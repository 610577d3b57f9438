"""Rank computations against a naive rational-elimination oracle."""

import random
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np
import pytest

from bggx.ratlinalg import (
    LIFT_PRIMES,
    MOD_PRIMES,
    rank_exact,
    rank_mod,
    rational_reconstruction,
    rref_mod,
)


def gauss_rank(rows):
    """Textbook Gaussian elimination over Fraction. Test-local oracle."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, m):
            f = rows[i][col] / pr[col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
        if rank == m:
            break
    return rank


def test_rank_exact_matches_gauss_oracle():
    rng = random.Random(20260819)
    for _ in range(60):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        assert rank_exact(mat) == gauss_rank(mat)


def test_rank_exact_rational_entries():
    rng = random.Random(7)
    for _ in range(30):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        mat = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        assert rank_exact(mat) == gauss_rank(mat)


def test_rank_exact_low_rank_product():
    # B (7x3) @ C (3x9) has rank at most 3
    rng = random.Random(3)
    b = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(7)]
    c = [[rng.randint(-4, 4) for _ in range(9)] for _ in range(3)]
    prod = [[sum(b[i][t] * c[t][j] for t in range(3)) for j in range(9)] for i in range(7)]
    r = rank_exact(prod)
    assert r == gauss_rank(prod)
    assert r <= 3


def test_rank_exact_edge_cases():
    assert rank_exact([]) == 0
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([[5]]) == 1
    assert rank_exact(np.array([[1, 2], [2, 4]])) == 1
    with pytest.raises(ValueError):
        rank_exact([[1, 2], [3]])


def test_rank_mod_matches_exact_on_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        a = rng.integers(-9, 10, size=(m, n))
        exact = rank_exact(a)
        for p in MOD_PRIMES:
            rp = rank_mod(a, p)
            assert rp <= exact
            assert rp == exact  # entries are tiny; no minor vanishes mod p


def test_rank_mod_is_only_a_lower_bound():
    p = MOD_PRIMES[0]
    assert rank_mod([[p]], p) == 0
    assert rank_exact([[p]]) == 1
    assert rank_mod([[p]], MOD_PRIMES[1]) == 1  # second prime recovers it


def test_rank_mod_blocked_path_known_rank():
    # [[I, X], [Y, YX]] has rank exactly r over every field: the identity
    # block gives r independent rows, and every row below is Y @ (top rows).
    r, m, n = 137, 400, 350
    rng = np.random.default_rng(5)
    x = rng.integers(0, 7, size=(r, n - r), dtype=np.int64)
    y = rng.integers(0, 7, size=(m - r, r), dtype=np.int64)
    top = np.hstack([np.eye(r, dtype=np.int64), x])
    bottom = np.hstack([y, y @ x])
    a = np.vstack([top, bottom])
    for p in MOD_PRIMES:
        assert rank_mod(a, p) == r
    # permuting rows and columns must not matter
    perm = np.random.default_rng(6)
    a2 = a[perm.permutation(m)][:, perm.permutation(n)]
    assert rank_mod(a2, MOD_PRIMES[0]) == r


def test_rank_mod_blocked_matches_small_path():
    # cross-check the dgemm panel path against plain elimination by
    # transposing: a 90x200 input runs blocked, its transpose is the
    # same matrix handed to the small path after internal transposition.
    rng = np.random.default_rng(17)
    a = rng.integers(-3, 4, size=(90, 200))
    p = MOD_PRIMES[0]
    assert rank_mod(a, p) == rank_mod(a.T, p) == rank_exact(a)


def test_rref_mod_is_reduced_and_spans_the_rows():
    rng = np.random.default_rng(29)
    for p in (MOD_PRIMES[0], 101):
        for _ in range(30):
            m, n = (int(x) for x in rng.integers(1, 9, size=2))
            rank = int(rng.integers(0, min(m, n) + 1))
            a = rng.integers(-4, 5, size=(m, rank)) @ rng.integers(-4, 5, size=(rank, n))
            reduced, pivots = rref_mod(a, p)
            assert len(pivots) == rank_mod(a, p) == reduced.shape[0]
            assert list(pivots) == sorted(set(pivots.tolist()))
            assert (reduced[:, pivots] == np.eye(len(pivots), dtype=np.int64)).all()
            for row, col in zip(reduced, pivots):
                assert not row[:col].any()  # echelon: nothing left of the pivot
            # same row space mod p: stacking adds no rank
            assert rank_mod(np.vstack([a % p, reduced]), p) == len(pivots)


def test_rational_reconstruction_round_trip():
    rng = random.Random(31)
    for m in (MOD_PRIMES[0], prod(LIFT_PRIMES[:4])):  # int64 and Python-int paths
        bound = isqrt(m // 2)
        want = []
        while len(want) < 40:
            num, den = rng.randint(-bound, bound), rng.randint(1, bound)
            if gcd(num, den) == 1:
                want.append((num, den))
        residues = np.array([num * pow(den, -1, m) % m for num, den in want], dtype=object)
        got = rational_reconstruction(residues.reshape(5, 8), m)
        assert got is not None
        assert list(zip(got[0].ravel().tolist(), got[1].ravel().tolist())) == want


def test_rational_reconstruction_reports_failure():
    m = 101
    bound = isqrt(m // 2)
    reachable = {n * pow(d, -1, m) % m for n in range(-bound, bound + 1) for d in range(1, bound + 1)}
    missing = next(x for x in range(m) if x not in reachable)
    assert rational_reconstruction(np.array([0, 1, missing]), m) is None
    num, den = rational_reconstruction(np.array([0, 1, m - 1]), m)
    assert num.tolist() == [0, 1, -1] and den.tolist() == [1, 1, 1]


def unit_lu(rng, m, n, rank, n_zero_cols):
    """L @ U with rank `rank` over Q and mod every prime, Bareiss-cheap.

    L is m x m unit lower triangular with two small entries per column
    below the diagonal; U is m x n in echelon form with `rank` unit
    pivots and `n_zero_cols` all-zero columns.  Every leading minor along
    the pivots is 1, so Bareiss never swaps or rescales and only updates
    the two rows a column of L reaches: rank_exact stays fast past 512
    columns.
    """
    low = np.eye(m, dtype=np.int64)
    for t in range(m - 1):
        below = rng.choice(np.arange(t + 1, m), size=min(2, m - t - 1), replace=False)
        low[below, t] = rng.integers(-3, 4, size=below.size)
    zero_cols = rng.choice(n, size=n_zero_cols, replace=False)
    live = np.setdiff1d(np.arange(n), zero_cols)
    pivots = np.sort(rng.choice(live, size=rank, replace=False))
    up = np.zeros((m, n), dtype=np.int64)
    for i, c in enumerate(pivots):
        up[i, c] = 1
        up[i, c + 1 :] = rng.integers(-3, 4, size=n - c - 1)
    up[:, zero_cols] = 0
    return low @ up


@pytest.mark.parametrize(
    "m, n, rank, n_zero_cols",
    [
        (15, 15, 15, 0),  # square, full rank: the last pivot is in the last row
        (16, 16, 16, 0),
        (17, 17, 17, 0),
        (21, 16, 12, 2),
        (23, 17, 14, 1),
        (255, 255, 255, 0),
        (256, 256, 256, 0),
        (257, 257, 257, 0),
        (260, 255, 230, 5),
        (262, 257, 240, 3),
        (530, 520, 497, 4),
    ],
)
def test_rank_mod_agrees_with_rank_exact_at_panel_boundaries(m, n, rank, n_zero_cols):
    # widths 15/16/17 and 255/256/257 straddle the two elimination
    # widths; 520 runs three outer panels, the last one partial
    rng = np.random.default_rng(m * 1000 + n)
    a = unit_lu(rng, m, n, rank, n_zero_cols)
    exact = rank_exact(a)
    assert exact == rank
    # hide the echelon structure: pivots now need row swaps
    b = a[rng.permutation(m)][:, rng.permutation(n)]
    p = MOD_PRIMES[0]
    # an entry equal to p is zero mod p: the same matrix over F_p
    zero = tuple(np.argwhere(b == 0)[0])
    b_p = b.copy()
    b_p[zero] = p
    for mat in (b, b.T, b_p, b_p.T):
        assert rank_mod(mat, p) == exact
    assert rank_mod(b, MOD_PRIMES[1]) == exact
