"""Exact and modular linear algebra for integer matrices.

The rank certificates of :mod:`bggx.complexes` are built from these:

* :func:`rank_mod` computes the rank over a prime field F_p by blocked
  elimination: one step, applied at the two panel widths of
  :data:`_WIDTHS`, eliminates a panel and charges its row operations to
  the columns right of it with one float64 matrix product.  With the
  primes in :data:`MOD_PRIMES` every intermediate value stays below
  2**53, so the floating-point arithmetic is exact.  A modular rank is
  always a *lower* bound for the rational rank.

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

# Panel widths of rank_mod's elimination, outermost first: a pivot's own
# update touches only its 16-column panel, and each panel reaches the
# columns right of it through one matrix product.
_WIDTHS = (256, 16)
_MAX_COLS = 30000


def _int_rows(matrix: Iterable[Sequence]) -> list[list[int]]:
    """Copy ``matrix`` into integer rows, clearing denominators per row.

    Scaling a row by a positive integer does not change the rank, so each
    row is multiplied by the lcm of its entries' denominators.  Python
    ints are taken as they are, and the scaling stays in integers.
    """
    rows = []
    for row in matrix:
        vals = [x if type(x) is int else Fraction(x) for x in row]
        mult = lcm(*(v.denominator for v in vals)) if vals else 1
        rows.append([v.numerator * (mult // v.denominator) for v in vals])
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
    right-looking elimination in float64 with no pivot normalization:
    one step, :func:`_eliminate`, applied at the panel widths in
    :data:`_WIDTHS`, each panel reaching the columns right of it by one
    BLAS product.  For p below 2**19.01 and at most 30000 columns, every
    trailing entry accumulates to at most p + n(p-1)^2 < 2**53 across
    all panels, so the floating-point arithmetic is exact and only the
    active panel ever needs canonicalizing.
    """
    a = np.asarray(matrix, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.size == 0:
        return 0
    if a.shape[1] > a.shape[0]:
        a = a.T
    n = a.shape[1]
    if n > _MAX_COLS or n * (p - 1) ** 2 + p >= 2**53:
        raise ValueError("modulus too large for the exact float64 budget")
    a = np.ascontiguousarray(a % p, dtype=np.float64)
    return _eliminate(a, p, 0, 0, n, _WIDTHS)


def _eliminate(
    a: np.ndarray, p: int, r0: int, c0: int, c1: int, widths: tuple[int, ...]
) -> int:
    """Eliminate columns c0:c1 of a[r0:] over F_p; return the number of pivots.

    The pivots land in rows r0, r0+1, ...; the multipliers of the pivot in
    row i are stored below it in column i, as in a compact LU.  With
    r0 <= c0 (true from the top-level call) column i is the pivot's own
    column or an eliminated one nothing reads again.  Rows are swapped
    whole, so multipliers travel with their rows.  With widths left, each
    chunk of widths[0] columns is eliminated with widths[1:] and its row
    operations are replayed on the rest of c0:c1: a forward substitution
    canonicalizes its pivot rows there, and one exact product charges the
    rows below.  With none left, columns go one at a time and updates
    stay inside c0:c1.  Either way an entry takes at most one product of
    two canonical residues per pivot.
    """
    r = r0
    if not widths:
        for j in range(c0, c1):
            col = a[r:, j]
            np.mod(col, p, out=col)  # accumulation from every level
            nz = np.nonzero(col)[0]
            if not nz.size:
                continue
            if nz[0]:
                piv = r + int(nz[0])
                a[[r, piv]] = a[[piv, r]]
            pivrow = a[r, j:c1]
            np.mod(pivrow, p, out=pivrow)
            mults = col[1:] * pow(int(pivrow[0]), p - 2, p) % p
            a[r + 1 :, r] = mults
            if mults.any():
                a[r + 1 :, j + 1 : c1] -= mults[:, None] * pivrow[1:]
            r += 1
        return r - r0
    for b0 in range(c0, c1, widths[0]):
        b1 = min(b0 + widths[0], c1)
        k = _eliminate(a, p, r, b0, b1, widths[1:])
        if k and b1 < c1:
            mults = a[r:, r : r + k]
            u = a[r : r + k, b1:c1]
            np.mod(u, p, out=u)
            for i in range(1, k):
                li = mults[i, :i]
                if li.any():
                    u[i] -= li @ u[:i]
                    np.mod(u[i], p, out=u[i])
            a[r + k :, b1:c1] -= mults[k:] @ u
        r += k
    return r - r0


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
