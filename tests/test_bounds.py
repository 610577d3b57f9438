"""Bound evaluators: identities exhaustively, examples frozen."""

from fractions import Fraction
from math import comb

import pytest

from bggx.bgg import chern_F
from bggx.bounds import (
    Bound,
    HodgeVector,
    alternating_sum,
    binom_bound,
    binomial,
    c1_bound,
    c2_bound,
    combin_identity,
    conjecture_rank_bound,
    hypothetical_top_chern_bound,
    subvariety_bound,
    thm11_bound,
    truncation_bound,
)


def abelian_table(q):
    return [[comb(q, i) * comb(q, j) for j in range(q + 1)] for i in range(q + 1)]


def test_generalized_binomial():
    assert binomial(-1, 0) == 1
    assert binomial(-1, 3) == -1
    assert binomial(-2, 3) == -4
    for a in range(0, 12):
        for b in range(0, 12):
            assert binomial(a, b) == comb(a, b)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_combin_identity_examples_and_exhaustive():
    assert combin_identity(5, 0) == 1
    assert combin_identity(3, 2) == 0
    assert combin_identity(0, 4) == 0
    for A in range(31):
        for B in range(31):
            assert combin_identity(A, B) == (1 if B == 0 else 0), (A, B)


def test_alternating_sum_examples():
    # q=3 abelian row at j=0, k=1, r=p=1: h1 - h0 = 3 - 1
    row3 = [comb(3, i) for i in range(4)]
    assert alternating_sum(row3, 1, 1, 1) == 2
    # p=0 collapses to one non-negative term
    assert alternating_sum(row3, 4, 2, 0) == comb(4 + 1, 1) * 1
    # q=4 abelian row, k=2, r=2, p=2: 3*1 - 2*4 + 1*6
    row4 = [comb(4, i) for i in range(5)]
    assert alternating_sum(row4, 2, 2, 2) == 3 * 1 - 2 * 4 + 1 * 6 == 1
    with pytest.raises(ValueError):
        alternating_sum(row3, 2, 2, 9)
    with pytest.raises(ValueError):  # a Hodge number is never truncated
        alternating_sum([1, 0.5], 1, 1, 1)


def test_corollary_chain_reproduces_hodge_numbers():
    """Sum_i C(k, p-i) M_{i,j} = h^{p,j} with M from the alternating sums.

    Formal identity in the row entries; checked on every abelian table
    q <= 6 and all p <= k, plus one arbitrary row to pin the formality.
    """
    for q in range(1, 7):
        tab = abelian_table(q)
        for j in range(q + 1):
            hrow = [tab[i][j] for i in range(q + 1)]
            for k in range(1, q + 1):
                for p in range(0, k + 1):
                    if p > q:
                        continue
                    total = sum(
                        comb(k, p - i) * alternating_sum(hrow, i, k, i)
                        for i in range(p + 1)
                    )
                    assert total == hrow[p], (q, j, k, p)
    arbitrary = [7, 0, 5, 11, 2, 3]
    for k in range(1, 6):
        for p in range(0, min(k, 5) + 1):
            total = sum(
                comb(k, p - i) * alternating_sum(arbitrary, i, k, i)
                for i in range(p + 1)
            )
            assert total == arbitrary[p]


def test_binom_bound_and_equality_on_abelian_tables():
    assert binom_bound(5, 0, 0) == Bound(1, True)
    assert binom_bound(3, 2, 1).value == 9
    # p + j range checked only when d is supplied
    assert binom_bound(2, 1, 1, d=5).applicable
    assert not binom_bound(2, 1, 1, d=2).applicable
    assert not binom_bound(2, 3, 0).applicable
    # abelian tables meet the k=q bound with equality everywhere
    for q in range(1, 7):
        tab = abelian_table(q)
        for i in range(q + 1):
            for j in range(q + 1):
                assert binom_bound(q, i, j).value == tab[i][j]


def test_subvariety_bound():
    assert subvariety_bound(5, 1, 1) == Bound(16, True)
    assert subvariety_bound(3, 0, 0) == Bound(1, True)
    assert not subvariety_bound(3, 2, 2).applicable


def test_thm11_piecewise_equals_family_max():
    assert thm11_bound(3, 7).value == 18
    assert thm11_bound(3, 4).value == 6
    assert thm11_bound(1, 5).family_max == 0
    for d in range(1, 11):
        for q in range(0, 41):
            res = thm11_bound(d, q)
            assert res.value == res.family_max, (d, q, res)


def test_c1_and_c2_bounds():
    for q in range(3, 20):
        assert c1_bound(q, 1) == 2 * q - 3
    r = c2_bound(10, 1)
    assert r.applicable and r.base == 17 and r.radicand == 57 and r.min_h == 21
    assert not c2_bound(9, 8).applicable  # k = q-1
    assert not c2_bound(9, 9).applicable
    for q in range(3, 31):
        for k in range(1, q - 1):
            r = c2_bound(q, k)
            assert r.applicable and r.radicand == 8 * q - 8 * k - 15 > 0
            # minimality of min_h by comparing squares
            t = 2 * (r.min_h - r.base) + 1
            assert t >= 0 and t * t >= r.radicand
            t_prev = 2 * (r.min_h - 1 - r.base) + 1
            assert t_prev < 0 or t_prev * t_prev < r.radicand
            # strict improvement over c1 exactly when the radicand exceeds 1
            assert r.min_h >= c1_bound(q, k)
            assert (r.min_h > c1_bound(q, k)) == (r.radicand > 1)


def test_truncation_and_hypothetical_bounds():
    for q in range(2, 15):
        assert truncation_bound(q, 1) == q - 1
        assert hypothetical_top_chern_bound(q, 2) == 4 * q - 7
    # the truncation bound never beats kq - C(k+1,2) in its range
    for k in range(1, 8):
        for q in range(k + 1, 30):
            assert k * q - comb(k + 1, 2) >= truncation_bound(q, k)
    assert truncation_bound(5, 2) == Fraction(3 * 5, 2) - Fraction(4 * 3, 6) == Fraction(11, 2)


def test_top_chern_premise_fails_for_k_2_to_4():
    # hypothetical_top_chern_bound's docstring: the top-degree (full box)
    # coefficient of c(F) vanishes for k = 2, 3, 4
    for k in (2, 3, 4):
        for q in range(k + 2, k + 5):
            assert chern_F(k, q).coefficient((q - k,) * k) == 0, (k, q)


def test_conjecture_rank_bound():
    assert conjecture_rank_bound(12, 4) == (22, 60)
    for q in range(2, 25):
        for k in range(1, q):
            rank, h = conjecture_rank_bound(q, k)
            if q <= 2 * k:
                assert rank == comb(q - k, 2)
                assert h == comb(q, 2)
            if q >= 2 * k:
                assert h == 2 * k * q - comb(2 * k + 1, 2)
    with pytest.raises(ValueError):
        conjecture_rank_bound(4, 4)


def test_hodge_vector():
    hv = HodgeVector(3, 2, table=[[1, 3, 3], [3, 9, 9], [3, 9, 9]])
    assert hv.row_for(0) == (1, 3, 3)
    hv2 = HodgeVector(3, 2, row=[1, 3, 3])
    assert hv2.row_for(1) == (1, 3, 3)
    with pytest.raises(ValueError):
        HodgeVector(3, 2, table=[[2, 3], [3, 9]])  # h00 != 1
    with pytest.raises(ValueError):
        HodgeVector(3, 2, table=[[1, 2], [3, 9]], symmetric=True)
    with pytest.raises(ValueError):
        HodgeVector(3, 2)
    rt = HodgeVector.from_json({"q": 3, "d": 2, "h": [[1, 3], [3, 9]]})
    assert rt.table[1][1] == 9
