"""Exact and modular linear algebra for integer matrices.

The rank certificates of :mod:`bggx.complexes` are built from these:

* :func:`rank_mod` computes the rank over a prime field F_p using
  blocked elimination whose trailing updates are float64 matrix
  products.  With the primes in :data:`MOD_PRIMES` every intermediate
  value stays below 2**53, so the floating-point arithmetic is exact.
  A modular rank is always a *lower* bound for the rational rank.

* :func:`rref_mod` gives the reduced row echelon form over F_p, hence a
  kernel basis mod p, and :func:`rational_reconstruction` carries
  residues modulo a product of :data:`LIFT_PRIMES` back to fractions.
  Together they produce kernel candidates over Q whose exact check
  bounds the rational rank from *above*.

* :func:`rank_exact` runs fraction-free (Bareiss) elimination over the
  rationals.  It is unconditionally correct but cubic with growing
  integer entries: the last resort when no lifted kernel checks out,
  and the independent oracle the certificates are tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

import numpy as np

# Both are prime and below 2**19.01, so n accumulated products of
# canonical residues stay below 2**53 for n <= 30000 and the whole
# elimination can run in exact float64 with almost no reductions.
MOD_PRIMES = (524287, 524269)

# Primes for lifting kernels to Q by the Chinese remainder theorem: the
# two above, then six more below 2**19.01 (their product is about 2**152).
LIFT_PRIMES = MOD_PRIMES + (524261, 524257, 524243, 524231, 524221, 524219)

_PANEL = 256
_MINI = 16
_MAX_COLS = 30000


def _int_rows(matrix: Iterable[Sequence]) -> list[list[int]]:
    """Copy ``matrix`` into integer rows, clearing denominators per row.

    Scaling a row by a positive integer does not change the rank, so each
    row is multiplied by the lcm of its entries' denominators.
    """
    rows = []
    for row in matrix:
        vals = [Fraction(x) for x in row]
        mult = lcm(*(v.denominator for v in vals)) if vals else 1
        rows.append([int(v * mult) for v in vals])
    return rows


def rank_exact(matrix) -> int:
    """Rank over Q of a matrix with integer or rational entries.

    Accepts any iterable of rows (lists, tuples, numpy arrays).  Uses
    Bareiss fraction-free elimination: all intermediate entries are
    integers (minors of the original matrix), all divisions are exact.
    """
    if isinstance(matrix, np.ndarray):
        if matrix.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        rows = [[int(x) for x in row] for row in matrix.tolist()]
    else:
        rows = _int_rows(matrix)
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")

    rank = 0
    prev = 1
    col = 0
    while rank < m and col < n:
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        pv = pr[col]
        for i in range(rank + 1, m):
            ri = rows[i]
            f = ri[col]
            if f:
                for j in range(col + 1, n):
                    ri[j] = (ri[j] * pv - f * pr[j]) // prev
                ri[col] = 0
            elif prev != 1 or pv != 1:
                for j in range(col + 1, n):
                    ri[j] = ri[j] * pv // prev
        prev = pv
        rank += 1
        col += 1
    return rank


def rank_mod(matrix, p: int) -> int:
    """Rank of an integer matrix over F_p.

    This is always a lower bound for the rank over Q.  Blocked
    right-looking elimination carried out entirely in float64 with no
    pivot normalization and one BLAS product per panel.  For p below
    2**19.01 and at most 30000 columns, every trailing entry
    accumulates to at most p + n(p-1)^2 < 2**53 across all panels, so
    the floating-point arithmetic is exact and only the active panel
    ever needs canonicalizing.
    """
    a = np.asarray(matrix, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.size == 0:
        return 0
    if a.shape[1] > a.shape[0]:
        a = a.T
    m, n = a.shape
    if n > _MAX_COLS or n * (p - 1) ** 2 + p >= 2**53:
        raise ValueError("modulus too large for the exact float64 budget")
    a = np.ascontiguousarray(a % p, dtype=np.float64)

    rank = 0
    c0 = 0
    while c0 < n and rank < m:
        c1 = min(c0 + _PANEL, n)
        pw = c1 - c0
        panel = a[rank:, c0:c1]  # view: updates land in a directly
        L = np.zeros((panel.shape[0], pw))
        npiv = 0
        # Two-level blocking: per-pivot updates touch only a narrow
        # mini-panel; the rest of the panel is charged by one small
        # matrix product per mini, just like the outer trailing block.
        for mj0 in range(0, pw, _MINI):
            mj1 = min(mj0 + _MINI, pw)
            piv0 = npiv
            for j in range(mj0, mj1):
                col = panel[npiv:, j]
                np.mod(col, p, out=col)  # accumulation from every level
                nz = np.nonzero(col)[0]
                if nz.size == 0:
                    continue
                piv = npiv + int(nz[0])
                if piv != npiv:
                    a[[rank + npiv, rank + piv]] = a[[rank + piv, rank + npiv]]
                    L[[npiv, piv]] = L[[piv, npiv]]
                pivrow = panel[npiv, j:mj1]
                np.mod(pivrow, p, out=pivrow)
                inv = pow(int(panel[npiv, j]), p - 2, p)
                below = panel[npiv + 1 :, j]
                mults = (below * inv) % p
                if mults.any():
                    panel[npiv + 1 :, j:mj1] -= mults[:, None] * pivrow
                L[npiv + 1 :, npiv] = mults
                npiv += 1
            dn = npiv - piv0
            if dn and mj1 < pw:
                rest = panel[piv0:, mj1:]
                u = rest[:dn]
                np.mod(u, p, out=u)
                for i in range(1, dn):
                    li = L[piv0 + i, piv0 : piv0 + i]
                    if li.any():
                        u[i] -= li @ u[:i]
                        np.mod(u[i], p, out=u[i])
                rest[dn:] -= L[piv0 + dn :, piv0:npiv] @ u
        if npiv and c1 < n:
            # Replay the panel's row operations on the trailing block:
            # sequential forward substitution canonicalizes the pivot
            # rows, then one exact dgemm charges everything below; the
            # result is left unreduced until its own panel comes up.
            trail = a[rank:, c1:]
            u = trail[:npiv]
            np.mod(u, p, out=u)
            for i in range(1, npiv):
                li = L[i, :i]
                if li.any():
                    u[i] -= li @ u[:i]
                    np.mod(u[i], p, out=u[i])
            trail[npiv:] -= L[npiv:, :npiv] @ u
        rank += npiv
        c0 = c1
    return rank


def rref_mod(matrix, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of an integer matrix over F_p.

    Returns (reduced, pivots): the rank-many nonzero rows of the RREF,
    entries in [0, p), and their pivot columns in increasing order.
    Gauss-Jordan elimination in int64: every update multiplies two
    canonical residues, so nothing exceeds p**2 < 2**63.  Rows whose
    entry in the pivot column is already zero are left alone, which
    keeps sparse inputs cheap.
    """
    if p * p >= 2**63:
        raise ValueError("modulus too large for int64 elimination")
    a = np.asarray(matrix, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = a.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.flatnonzero(a[row:, col])
        if not nz.size:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        # rows at and below `row` vanish left of col, so only col: moves
        pivrow = a[row, col:] * pow(int(a[row, col]), p - 2, p) % p
        a[row, col:] = pivrow
        factors = a[:, col].copy()
        factors[row] = 0
        hit = np.flatnonzero(factors)
        if hit.size:
            a[hit, col:] = (a[hit, col:] - factors[hit, None] * pivrow) % p
        pivots.append(col)
        row += 1
    return a[:row], np.array(pivots, dtype=np.int64)


def rational_reconstruction(residues, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Fractions congruent to residues mod m, entry by entry.

    Each x in [0, m) becomes num/den with num = den * x (mod m),
    |num| <= N and 0 < den <= N for N = isqrt(m // 2); when such a
    reduced fraction exists it is unique, and the half-extended
    Euclidean algorithm on (m, x) finds it (Wang, Guy and Davenport
    1982).  Returns (num, den) with the shape of residues, int64 when
    m < 2**62 (every remainder and cofactor stays below 2m) and exact
    Python ints otherwise, or None when some entry has no fraction
    within the bounds.
    """
    bound = isqrt(m // 2)
    dtype = np.int64 if m < 2**62 else object
    x = np.asarray(residues)
    r1 = x.astype(dtype).ravel()
    r0 = np.full(r1.shape, m, dtype=dtype)
    t0 = np.zeros(r1.shape, dtype=dtype)
    t1 = np.ones(r1.shape, dtype=dtype)
    live = np.flatnonzero(r1 > bound)
    while live.size:
        a, b = r0[live], r1[live]
        q = a // b
        r0[live], r1[live] = b, a - q * b
        s, t = t0[live], t1[live]
        t0[live], t1[live] = t, s - q * t
        live = live[r1[live] > bound]
    if (abs(t1) > bound).any():
        return None
    sign = np.where(t1 < 0, -1, 1)
    return (r1 * sign).reshape(x.shape), (t1 * sign).reshape(x.shape)
