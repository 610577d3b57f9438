"""The pinned anchor values and the checks that replay them.

`bggx repro`, `bggx example curves`, `bggx identity combin` and the
acceptance gate (`tests/test_acceptance.py`) all read this one table, so
each value the paper pins is written down once.  Every check returns its
failures as strings naming the anchor; an empty list means all hold.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import bgg, bounds, complexes, models
from .coefpoly import hq_poly

DEFAULT_SEED = 20260819

# the staircase conjecture sweep: k = 2..4, k < q <= 12
CONJECTURE_CELLS = tuple((k, q) for k in (2, 3, 4) for q in range(k + 1, 13))

# the curves-product example: E2 entries e[i][j] at r = 2, and its
# hypercohomology
CURVES_E2 = {(1, 0): 3, (1, 1): 18, (0, 2): 37}
CURVES_HYPER = (0, 3, 55, 0, 0)


def curves_table() -> tuple:
    """(datum, W, E2 table at r = 2) of the curves-product example."""
    datum, W = models.curves_product_model()
    return datum, W, complexes.e2_table(datum, W, 2)


def curves_anchors(table: "complexes.E2Table") -> list[tuple]:
    """(name, computed, pinned) for each curves anchor, in print order."""
    return [
        (f"e[{i}][{j}]", table.entries[i][j], pinned)
        for (i, j), pinned in sorted(CURVES_E2.items())
    ] + [("hypercohomology", table.hyper, CURVES_HYPER)]


def curves_failures(table: "complexes.E2Table") -> list[str]:
    return [
        f"curves {name} = {got}, expected {pinned}"
        for name, got, pinned in curves_anchors(table)
        if got != pinned
    ]


def combin_failures(limit: int) -> tuple[int, list[str]]:
    """(pairs checked, failures) of the combinatorial identity for A, B <= limit."""
    pairs = [(a, b) for a in range(limit + 1) for b in range(limit + 1)]
    return len(pairs), [
        f"combin identity (A={a}, B={b})"
        for a, b in pairs
        if bounds.combin_identity(a, b) != (1 if b == 0 else 0)
    ]


def g_poly_failures() -> list[str]:
    """The g-polynomial closed forms and the g_11 factorization, k = 1..6."""
    h, _ = hq_poly()
    failures = []
    for k in range(1, 7):
        table = bgg.chern_G_coeffs(k, 2)
        if table.g((1,)) != bgg.g1_closed(k):
            failures.append(f"g_1 closed form, k={k}")
        if table.g((2,)) != bgg.g2_closed(k):
            failures.append(f"g_2 closed form, k={k}")
        ring11 = table.g((1, 1))
        # rank 1 has no two-row classes; the ring coefficient is zero there
        closed_ok = ring11 == bgg.g11_closed(k) if k >= 2 else ring11 == 0
        if not closed_ok:
            failures.append(f"g_11 closed form, k={k}")
        center = bgg.g11_roots(k)
        beta_plus = center + Fraction(1, 2)
        beta_minus = center - Fraction(1, 2)
        product = (h - beta_plus) * (h - beta_minus) * Fraction(1, 2)
        if beta_plus - beta_minus != 1 or product != bgg.g11_closed(k):
            failures.append(f"g_11 factorization, k={k}")
    return failures


def bound_identity_failures() -> list[str]:
    """The piecewise h20 bound against its family maximum, the second-Chern
    thresholds, and the corollary chain on abelian Hodge rows."""
    failures = []
    for d in range(1, 11):
        for q in range(41):
            t11 = bounds.thm11_bound(d, q)
            if t11.value != t11.family_max:
                failures.append(f"piecewise h20 vs family max (d={d}, q={q})")
    for q in range(1, 31):
        for k in range(1, q + 1):
            c2 = bounds.c2_bound(q, k)
            if c2.applicable != (k <= q - 2):
                failures.append(f"second-Chern applicability (q={q}, k={k})")
            if c2.applicable and (c2.min_h > bounds.c1_bound(q, k)) != (c2.radicand > 1):
                failures.append(f"second-Chern threshold (q={q}, k={k})")
    for q in range(1, 7):
        for j in range(q + 1):
            hrow = [comb(q, i) * comb(q, j) for i in range(q + 1)]
            for k in range(1, q + 1):
                for p in range(min(k, q) + 1):
                    total = sum(
                        comb(k, p - i) * bounds.alternating_sum(hrow, i, k, i)
                        for i in range(p + 1)
                    )
                    if total != hrow[p]:
                        failures.append(
                            f"corollary chain (q={q}, j={j}, k={k}, p={p})"
                        )
    return failures
