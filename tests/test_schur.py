"""Ring of Schubert classes: Pieri against a brute-force strip oracle,
products against an independent Littlewood-Richardson tableau count,
duality, and truncation coherence between boxes of different widths."""

import hashlib
import json
import random
from itertools import combinations

import pytest

from bggx.bgg import _times_c_Q_power
from bggx.partitions import (
    box_partitions,
    conjugate,
    horizontal_strips,
    normalize,
    vertical_strips,
)
from bggx.schur import (
    SchubertExpr,
    class_product,
    complement,
    giambelli,
    grassmannian,
    lr_coefficient,
    multiply,
    pieri,
    pieri_dual,
    stable,
)


# ---------------------------------------------------------------- oracles

def strip_oracle(lam, m, rows, width):
    """All nu in the box with |nu| = |lam| + m such that nu/lam is a
    horizontal strip, found by scanning every partition of the right size
    and checking the column condition on conjugates."""
    lam = normalize(lam)
    out = []
    for nu in box_partitions(rows, width, min_size=sum(lam) + m,
                             max_size=sum(lam) + m):
        lam_c = conjugate(lam)
        nu_c = conjugate(nu)
        if len(nu_c) < len(lam_c):
            continue
        lam_c = lam_c + (0,) * (len(nu_c) - len(lam_c))
        if all(0 <= n - l <= 1 for n, l in zip(nu_c, lam_c)):
            out.append(nu)
    return sorted(out)


def horizontal_strips_oracle(lam, m, rows, width):
    """Row by row from the top, each row taking lam_i..min(lam_{i-1}, width)
    boxes, largest first, every output normalized: the enumeration the
    pruned generator must reproduce in order."""
    lam = normalize(lam)
    if m < 0 or len(lam) > rows:
        return
    padded = lam + (0,) * (rows - len(lam))

    def rec(i, remaining, out):
        if remaining == 0:
            yield normalize(tuple(out) + padded[i:])
            return
        if i == rows:
            return
        low = padded[i]
        high = padded[i - 1] if i > 0 else (width if width is not None else low + remaining)
        if width is not None:
            high = min(high, width)
        high = min(high, low + remaining)
        for v in range(high, low - 1, -1):
            yield from rec(i + 1, remaining - (v - low), out + [v])

    yield from rec(0, m, [])


def vertical_strips_oracle(lam, c, rows, width):
    """Every c-subset of the rows in lexicographic order, kept when adding a
    box to each picked row stays a partition in the box, normalized."""
    lam = normalize(lam)
    if c < 0 or len(lam) > rows:
        return
    padded = lam + (0,) * (rows - len(lam))
    for pick in combinations(range(rows), c):
        nu = list(padded)
        for i in pick:
            nu[i] += 1
        if (width is None or all(nu[i] <= width for i in pick)) and all(
            nu[i] >= nu[i + 1] for i in range(rows - 1)
        ):
            yield normalize(tuple(nu))


def product_oracle(lam, mu, ctx):
    """sigma_lam * sigma_mu from raw LR coefficients, box-truncated."""
    out = {}
    target = sum(lam) + sum(mu)
    for nu in box_partitions(ctx.k, ctx.width, min_size=target, max_size=target):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out


# ----------------------------------------------------------------- pieri

def test_pieri_matches_strip_oracle():
    for k, q in [(2, 4), (2, 5), (3, 6)]:
        ctx = grassmannian(k, q)
        for lam in box_partitions(k, q - k):
            for m in range(0, q - k + 1):
                got = sorted(pieri(lam, m, ctx).terms)
                assert got == strip_oracle(lam, m, k, q - k), (k, q, lam, m)
                assert all(c == 1 for c in pieri(lam, m, ctx).terms.values())


def test_strip_generators_match_the_full_enumerations_in_order():
    # the partitions of the rows x width box (rows x 3 when unbounded), every
    # (len // 150)-th of them in the boxes holding 300 or more, and every
    # strip size plus one past the largest; order matters, since it is the
    # insertion order of every product dict
    for rows in range(9):
        for width in [*range(7), None]:
            lams = list(box_partitions(rows, 3 if width is None else width))
            for lam in lams[::max(1, len(lams) // 150)]:
                for m in range(-1, (7 if width is None else width) + 2):
                    got = list(horizontal_strips(lam, m, rows, width))
                    assert got == list(horizontal_strips_oracle(lam, m, rows, width)), \
                        (lam, m, rows, width)
                    assert all(nu == normalize(nu) for nu in got)
                for c in range(-1, rows + 2):
                    got = list(vertical_strips(lam, c, rows, width))
                    assert got == list(vertical_strips_oracle(lam, c, rows, width)), \
                        (lam, c, rows, width)
                    assert all(nu == normalize(nu) for nu in got)


def test_c_Q_row_sweeps_are_every_strip_size_at_once():
    # one factor of c(Q) = 1 + sigma_1 + sigma_2 + ..., applied by chern_F's
    # row-by-row prefix sums, is the sum of every Pieri step sigma_lam * sigma_m
    for k in range(1, 5):
        for q in range(k + 1, 10):
            ctx, width = grassmannian(k, q), q - k
            for lam in box_partitions(k, width):
                got = _times_c_Q_power({lam: 1}, k, width, 1)
                expect = {}
                for m in range(width + 1):
                    for nu, c in pieri(lam, m, ctx).terms.items():
                        expect[nu] = expect.get(nu, 0) + c
                assert got == expect, (k, q, lam)
                oracle = [nu for m in range(width + 1) for nu in strip_oracle(lam, m, k, width)]
                assert sorted(got) == sorted(oracle) and set(got.values()) == {1}, (k, q, lam)


def test_pieri_frozen_values():
    g24 = grassmannian(2, 4)
    assert pieri((1,), 1, g24).terms == {(2,): 1, (1, 1): 1}
    # width 2 clips sigma_3
    assert pieri((2,), 1, g24).terms == {(2, 1): 1}
    assert pieri((1, 1), 2, g24).terms == {}
    assert pieri((2, 1), 1, g24).terms == {(2, 2): 1}

    g25 = grassmannian(2, 5)
    assert pieri((2, 1), 2, g25).terms == {(3, 2): 1}
    assert pieri((1,), 2, g25).terms == {(3,): 1, (2, 1): 1}


def test_pieri_dual_matches_conjugate_rule():
    # adding a vertical c-strip to lam is adding a horizontal strip to lam'
    for k, q in [(2, 5), (3, 6), (3, 7)]:
        ctx = grassmannian(k, q)
        for lam in box_partitions(k, q - k, max_size=6):
            for c in range(0, k + 1):
                got = sorted(pieri_dual(lam, c, ctx).terms)
                via_conj = sorted(
                    conjugate(t)
                    for t in strip_oracle(conjugate(lam), c, q - k, k)
                )
                assert got == via_conj, (k, q, lam, c)


def test_stable_context_has_no_width_clipping():
    s2 = stable(2)
    assert pieri((3,), 2, s2).terms == {(5,): 1, (4, 1): 1, (3, 2): 1}
    # rows beyond k are still clipped in the stable ring
    assert pieri_dual((1, 1), 1, s2).terms == {(2, 1): 1}


# ------------------------------------------------------------- products

def test_products_match_lr_oracle_gr38():
    ctx = grassmannian(3, 8)
    smalls = list(box_partitions(3, 5, max_size=4))
    for lam in smalls:
        for mu in smalls:
            got = multiply(
                SchubertExpr.single(ctx, lam), SchubertExpr.single(ctx, mu)
            ).terms
            assert got == product_oracle(lam, mu, ctx), (lam, mu)


def test_products_match_lr_oracle_on_giambelli_pairs_gr37():
    # only factors with at least two rows and two columns reach the grouped
    # Jacobi-Trudi path; every such pair of Gr(3,7) classes
    ctx = grassmannian(3, 7)
    wide = [lam for lam in box_partitions(3, 4) if len(lam) >= 2 and lam[0] >= 2]
    for lam in wide:
        for mu in wide:
            assert class_product(lam, mu, ctx).terms == product_oracle(lam, mu, ctx), (lam, mu)


# sha256 of every product of two Gr(4,8) classes that fits the box, listed
# as sorted [[lam, mu], [[nu, coeff], ...]] pairs in JSON
_GR48_PRODUCTS_SHA256 = "8dbad4d34d42aeae98dd409935a6d1f02db959a78a0b6ec3047a2313e851be91"


def test_all_gr48_products_match_recorded_digest():
    ctx = grassmannian(4, 8)
    parts = list(box_partitions(4, 4))
    listing = sorted(
        ([list(lam), list(mu)],
         sorted([list(nu), str(c)] for nu, c in multiply(
             SchubertExpr.single(ctx, lam), SchubertExpr.single(ctx, mu)).terms.items()))
        for lam in parts for mu in parts if sum(lam) + sum(mu) <= 16
    )
    assert len(listing) == 2645
    assert hashlib.sha256(json.dumps(listing).encode()).hexdigest() == _GR48_PRODUCTS_SHA256


def test_product_frozen_values():
    g36 = grassmannian(3, 6)
    sq = class_product((2, 1), (2, 1), g36).terms
    assert sq == {(3, 3): 1, (3, 2, 1): 2, (2, 2, 2): 1}

    g24 = grassmannian(2, 4)
    assert class_product((1, 1), (2,), g24).terms == {}
    assert class_product((1,), (1,), g24).terms == {(2,): 1, (1, 1): 1}
    # point class squares to zero
    assert class_product((2, 2), (1,), g24).terms == {}


@pytest.mark.parametrize(
    "lam, mu",
    [
        ((1, 1), (3,)),  # a row wider than the box
        ((3, 1), (1,)),  # the other factor of a row product wider
        ((2, 1), (1, 1, 1)),  # a column longer than the box
        ((2, 2, 1), (1, 1)),  # the other factor of a column product longer
        ((2, 2), (3, 2)),  # Giambelli: one factor wider
        ((2, 2, 2), (2, 2)),  # Giambelli: one factor longer
    ],
    ids=["row", "row-partner", "column", "column-partner", "giambelli-wide", "giambelli-long"],
)
def test_class_product_checks_both_factors_against_the_box(lam, mu):
    # the order given takes each of the row, column and Giambelli branches,
    # the reverse order the mirror branch
    ctx = grassmannian(2, 4)
    for a, b in ((lam, mu), (mu, lam)):
        with pytest.raises(ValueError, match="does not fit"):
            class_product(a, b, ctx)


def test_giambelli_reproduces_the_class():
    for k, q in [(2, 4), (2, 6), (3, 6)]:
        ctx = grassmannian(k, q)
        for lam in box_partitions(k, q - k):
            assert giambelli(lam, ctx) == SchubertExpr.single(ctx, lam), lam


def test_associativity_and_commutativity_random():
    rng = random.Random(20260819)
    for ctx in [grassmannian(2, 5), grassmannian(3, 7)]:
        pool = list(box_partitions(ctx.k, ctx.width, max_size=5))
        for _ in range(60):
            lam, mu, nu = (rng.choice(pool) for _ in range(3))
            a = SchubertExpr.single(ctx, lam, rng.randint(-3, 3) or 1)
            b = SchubertExpr.single(ctx, mu) + SchubertExpr.single(ctx, nu)
            c = SchubertExpr.single(ctx, nu, rng.randint(1, 4))
            assert multiply(a, b) == multiply(b, a)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_unit_and_zero():
    ctx = grassmannian(2, 5)
    x = SchubertExpr.single(ctx, (2, 1), 7)
    assert multiply(SchubertExpr.unit(ctx), x) == x
    assert multiply(SchubertExpr.zero(ctx), x).is_zero()
    assert (x - x).is_zero()


# ------------------------------------------------------------- duality

def test_complement_and_duality_pairing():
    for k, q in [(2, 4), (2, 5), (3, 6)]:
        ctx = grassmannian(k, q)
        box = tuple([q - k] * k)
        classes = list(box_partitions(k, q - k))
        for lam in classes:
            hat = complement(lam, ctx)
            assert sum(hat) == k * (q - k) - sum(lam)
            assert complement(hat, ctx) == lam
            for mu in classes:
                if sum(mu) != sum(lam):
                    continue
                pairing = class_product(lam, complement(mu, ctx), ctx).coefficient(box)
                assert pairing == (1 if lam == mu else 0), (lam, mu)


# ---------------------------------------------------------- truncation

def test_truncation_coherence_across_widths():
    big = grassmannian(3, 10)
    small = grassmannian(3, 6)
    pool = list(box_partitions(3, 3, max_size=5))
    for lam in pool:
        for mu in pool:
            full = class_product(lam, mu, big).terms
            clipped = {n: c for n, c in full.items() if small.admits(n)}
            assert clipped == class_product(lam, mu, small).terms, (lam, mu)


def test_stable_matches_wide_box():
    st = stable(2)
    wide = grassmannian(2, 30)
    for lam, mu in [((3, 1), (2, 2)), ((4,), (3, 3)), ((2, 1), (2, 1))]:
        assert class_product(lam, mu, st).terms == class_product(lam, mu, wide).terms


# --------------------------------------------------------------- misc

def test_lr_oracle_known_values():
    # the classic c^{(3,2,1)}_{(2,1),(2,1)} = 2
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2,), (1, 1), (2, 1, 1)) == 1
    assert lr_coefficient((2,), (1, 1), (3, 1)) == 1
    assert lr_coefficient((2,), (1, 1), (2, 2)) == 0
    assert lr_coefficient((2, 2), (2, 1), (4, 3)) == 1


def test_json_round_trip():
    ctx = grassmannian(2, 6)
    x = SchubertExpr(ctx, {(3, 1): 5, (2,): -2})
    assert SchubertExpr.from_json(x.to_json()) == x
    data = x.to_json()
    assert data["context"] == {"k": 2, "q": 6}
    assert all(isinstance(t["coeff"], str) for t in data["terms"])


def test_rejects_foreign_partitions():
    ctx = grassmannian(2, 4)
    try:
        SchubertExpr.single(ctx, (3,))
        raised = False
    except ValueError:
        raised = True
    assert raised
