"""Concrete Hodge data, plus the exactness battery that exercises the
complexes against the expected theorem bound.

The abelian exterior-algebra model is built from its definition, in the
wedge-monomial basis of H^j(Omega^i) = Lambda^i V (x) Lambda^j Vbar.  The
curves example C_3 x C_3, for two genus-3 curves, is the Kunneth product
of two curve data by :meth:`HodgeDatum.tensor`.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .complexes import (
    HodgeDatum,
    SparseRat,
    SubspaceW,
    build_complex,
    exactness_prefix,
)
from .ratlinalg import rank_exact


def expected_exactness(d: int, k: int, j: int) -> int:
    """Leading exactness the main bound promises: max(0, d - k - j + 1).

    A complex with only min(r, d) differentials cannot witness more
    than r leading steps, so batteries compare against
    min(expected_exactness(d, k, j), r).
    """
    return max(0, d - k - j + 1)


def curve_datum(g: int, pairing) -> HodgeDatum:
    """Datum of a curve of genus g >= 1 in a basis v_1..v_g of its 1-forms.

    Wedging with v_t sends the generator of H^0(O) to v_t, and H^1(O)
    to H^1(omega) by row t of pairing, an invertible g x g rational
    matrix: the duality pairing in the chosen basis of H^1(O).
    """
    rows = [[Fraction(x) for x in row] for row in pairing]
    if len(rows) != g or any(len(row) != g for row in rows) or rank_exact(rows) != g:
        raise ValueError(f"pairing must be an invertible {g}x{g} matrix")
    action = {}
    for t in range(g):
        action[(t + 1, 0, 0)] = SparseRat((g, 1), {(t, 0): 1})
        action[(t + 1, 0, 1)] = SparseRat((1, g), {(0, s): rows[t][s] for s in range(g)})
    return HodgeDatum(1, g, [[1, g], [g, 1]], action)


def abelian_model(q: int) -> HodgeDatum:
    """Exterior-algebra datum of a q-dimensional abelian variety.

    H^j(Omega^i) = Lambda^i V (x) Lambda^j Vbar has the basis (S, T) of
    an i-subset S and a j-subset T of range(q), at position lex-rank(S)
    * C(q, j) + lex-rank(T).  There v_a acts by left exterior
    multiplication on the first factor and by the identity on the
    second: it sends (S, T) to (S + {a}, T) with the Koszul sign, the
    parity of the number of indices in S smaller than a, and kills (S, T)
    when a is in S.

    Over any k-dimensional W, the complex (r, j) has homology C(q, j)
    C(q - k, r) at position r and 0 elsewhere.  Column j is C(q, j) copies
    of column 0, and with V = W (+) U each term Sym^{r-i} W (x) Lambda^i V
    splits as the sum over b of Lambda^b U (x) Sym^{r-i} W (x)
    Lambda^{i-b} W, the differential acting on the W factors only.  So the
    complex is the sum over b of Lambda^b U (x) the degree-(r - b) Koszul
    complex of W, shifted by b; in characteristic 0 that is exact in every
    positive degree, which leaves Lambda^r U at position r.
    """
    if q < 1:
        raise ValueError("need q >= 1")
    subsets = [list(itertools.combinations(range(q), n)) for n in range(q + 1)]
    rank = {S: x for level in subsets for x, S in enumerate(level)}
    sign = (Fraction(1), Fraction(-1))
    dims = [[comb(q, i) * comb(q, j) for j in range(q + 1)] for i in range(q + 1)]
    action = {}
    for i in range(q):
        # (row, column, value) of v_a on Lambda^i V, for each a
        wedge = [[] for _ in range(q)]
        for col, S in enumerate(subsets[i]):
            for a in range(q):
                if a not in S:
                    below = sum(s < a for s in S)
                    row = rank[S[:below] + (a,) + S[below:]]
                    wedge[a].append((row, col, sign[below % 2]))
        for j in range(q + 1):
            width = comb(q, j)
            for a in range(q):
                action[(a + 1, i, j)] = mat = SparseRat((dims[i + 1][j], dims[i][j]))
                # every position is in range, and every value is +-1
                mat.entries = {
                    (row * width + t, col * width + t): v
                    for row, col, v in wedge[a] for t in range(width)
                }
    return HodgeDatum(q, q, dims, action, {
        "model": "abelian variety, exterior algebra on q translation-invariant forms",
        "nondegeneracy": "every subspace W is non-degenerate "
        "(translation-invariant 1-forms have no zeros)",
    })


def curves_product_model(h1_basis=None) -> tuple[HodgeDatum, SubspaceW]:
    """Datum for a product of two genus-3 curves, with its subspace W.

    The datum is curve_datum(3, P0).tensor(curve_datum(3, P1)): forms
    1..3 act through the first factor, forms 4..6 through the second
    with the Koszul sign.  W is spanned by the three sums (t-th form on
    factor one) + (t-th form on factor two).

    h1_basis, when given, is a pair of invertible 3x3 rational
    matrices (P0, P1) replacing the duality-dual basis of each curve's
    H^1(O); homology dimensions must not depend on that choice.
    """
    if h1_basis is None:
        h1_basis = [[[int(t == s) for s in range(3)] for t in range(3)]] * 2
    first, second = (curve_datum(3, p) for p in h1_basis)
    datum = first.tensor(second)
    datum.metadata.update({
        "model": "product of two genus-3 curves (plane quartics)",
        "W": "spanned by w_t = (t-th form, first factor) + (t-th form, second factor)",
        "degeneracy_locus_Z1": "empty",
        "degeneracy_locus_Z2": "16 points",
        "sections_of_first_homology_sheaf": "C^48 = 16 stalks x C^3 "
        "(declared, not recomputed here)",
    })
    viol = datum.check_anticommutation()
    if viol is not None:
        raise RuntimeError(f"sign convention bug: anticommutation fails at {viol}")
    w_cols = [[Fraction(int(a == t or a == t + 3)) for a in range(6)] for t in range(3)]
    return datum, SubspaceW(w_cols)


def random_subspace(q: int, k: int, rng: random.Random) -> SubspaceW:
    """Random rational W of rank k (integer-leaning coordinates)."""
    while True:
        cols = [
            [
                Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3)))
                for _ in range(q)
            ]
            for _ in range(k)
        ]
        try:
            return SubspaceW(cols)
        except ValueError:
            continue


@dataclass(frozen=True)
class BatteryReport:
    """Outcome of one exactness battery over the abelian models."""

    q_values: tuple[int, ...]
    n_w: int
    seed: int
    checked: int
    trivial: int
    full_space_checked: int
    failures: tuple
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "q_values": list(self.q_values),
            "n_w": self.n_w,
            "seed": self.seed,
            "checked": self.checked,
            "trivial": self.trivial,
            "full_space_checked": self.full_space_checked,
            "failures": [dict(f) for f in self.failures],
            "passed": self.passed,
        }


def theorem_battery(
    q_values: Sequence[int] = (2, 3, 4, 5, 6),
    n_w: int = 20,
    *,
    seed: int,
    include_full_space: bool = True,
) -> BatteryReport:
    """Exactness-prefix sweep over abelian models.

    For every q in q_values (d = q), every k <= q, r <= q, j <= q and
    n_w random W, asserts

        exactness_prefix >= min(expected_exactness(q, k, j), r),

    the min because a complex with min(r, d) differentials cannot
    exhibit more than r leading steps.  Configurations whose bound is 0
    are counted as trivial and skipped.  With include_full_space, W = V
    at j = 0 must additionally be exact at every interior step.  Each
    complex is assembled only up to the maps its prefix check reads, over
    the echelon basis of its W (:meth:`SubspaceW.echelon`): the homology
    depends on span(W) only, and the echelon basis has zeros that split
    the maps into smaller blocks.  A failure records the drawn basis.

    The echelon entries are larger than the drawn ones but stay inside
    build_complex's int64 guards.  Six times a drawn entry is an integer
    of size at most 54, and by Cramer's rule an echelon entry with the
    common denominator cleared is a k x k minor of those integers: below
    (54 sqrt(k))^k < 2**35 by Hadamard's bound for k < q, while k = q
    gives the identity.  The abelian action is +-1, so the coefficients
    of the assembly stay below q * 2**35 < 2**38 and its entries below
    k * r * 2**38 < 2**44, far under 2**62.  Only the composition check
    may, on extreme draws, take its exact Python-int path.
    """
    rng = random.Random(seed)
    failures = []
    checked = trivial = full_checked = 0
    t0 = time.perf_counter()
    for q in q_values:
        datum = abelian_model(q)
        for k in range(1, q + 1):
            for j in range(q + 1):
                for r in range(1, q + 1):
                    target = min(expected_exactness(q, k, j), r)
                    if target == 0:
                        trivial += 1
                        continue
                    for _ in range(n_w):
                        W = random_subspace(q, k, rng)
                        c = build_complex(datum, W.echelon(), r, j, stop_at=target)
                        got = exactness_prefix(c, stop_at=target)
                        checked += 1
                        if got < target:
                            failures.append(
                                {
                                    "q": q, "k": k, "r": r, "j": j,
                                    "target": target, "prefix": got,
                                    "W": W.to_json()["columns"],
                                }
                            )
        if include_full_space:
            V = SubspaceW.full_space(q)
            for r in range(1, q + 1):
                n = min(r, q)
                c = build_complex(datum, V, r, 0, stop_at=n)
                got = exactness_prefix(c, stop_at=n)
                full_checked += 1
                if got < n:
                    failures.append(
                        {
                            "q": q, "k": q, "r": r, "j": 0,
                            "target": n, "prefix": got, "W": "full space",
                        }
                    )
    return BatteryReport(
        q_values=tuple(q_values),
        n_w=n_w,
        seed=seed,
        checked=checked,
        trivial=trivial,
        full_space_checked=full_checked,
        failures=tuple(failures),
        elapsed=time.perf_counter() - t0,
    )
