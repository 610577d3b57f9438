"""Closed-form evaluators for the Hodge-number inequalities and the
combinatorial identities behind them.

Everything here is elementary arithmetic on integers and exact
rationals: alternating binomial sums, the piecewise lower bounds for
h^{2,0}, and the square-root bound handled through its exact radicand.
Geometric hypotheses (a non-degenerate subspace exists, no higher
irrational pencils, an everywhere-exact complex on the Grassmannian)
are never inferred; evaluators report numeric applicability and leave
the geometry to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import Mapping, NamedTuple, Sequence

from .inputs import whole_number


def binomial(a: int, b: int) -> int:
    """Generalized binomial coefficient via the falling factorial.

    Defined for any integer a and b >= 0, so binomial(-1, 0) = 1 and
    binomial(-2, 3) = -4.  Matches math.comb on a >= 0.
    """
    if b < 0:
        raise ValueError("lower index must be non-negative")
    if a >= 0:
        return comb(a, b)
    num = 1
    for t in range(b):
        num *= a - t
    return num // factorial(b)


def combin_identity(A: int, B: int) -> int:
    """Sum_{n=0}^{min(A,B)} (-1)^(B-n) C(A,n) C(A+B-n-1, B-n).

    Contract: 1 if B = 0, else 0, for all non-negative A, B.  This is
    the coefficient extraction from (1+x)^A * (1+x)^(-A) = 1.
    """
    if A < 0 or B < 0:
        raise ValueError("need non-negative arguments")
    return sum(
        (-1) ** (B - n) * binomial(A, n) * binomial(A + B - n - 1, B - n)
        for n in range(min(A, B) + 1)
    )


def alternating_sum(hrow: Sequence[int], r: int, k: int, p: int) -> int:
    """Sum_{i=0}^p (-1)^(p-i) C(r-i+k-1, k-1) hrow[i].

    The non-negativity claim applies when the row comes from a variety
    with a non-degenerate k-subspace and p <= min(d-k-j+1, r); the
    evaluator itself just computes the number.
    """
    if p > len(hrow) - 1:
        raise ValueError("p exceeds the available Hodge row")
    if p < 0:
        raise ValueError("need p >= 0")
    return sum(
        (-1) ** (p - i) * binomial(r - i + k - 1, k - 1) * whole_number(hrow[i])
        for i in range(p + 1)
    )


class Bound(NamedTuple):
    """A bound value plus whether the numeric hypotheses hold."""

    value: int
    applicable: bool


def binom_bound(k: int, p: int, j: int, d: int | None = None) -> Bound:
    """h^{p,j} >= C(k,p) C(k,j) given a non-degenerate k-subspace.

    Numeric range: p, j <= k and p + j <= d - k + 1.  The second
    condition is only checked when d is supplied; with d=None the
    caller asserts it separately.  The value is computed regardless.
    """
    value = binomial(k, p) * binomial(k, j)
    applicable = p <= k and j <= k
    if d is not None:
        applicable = applicable and p + j <= d - k + 1
    return Bound(value, applicable)


def subvariety_bound(d: int, p: int, j: int) -> Bound:
    """h^{p,j} >= C(d+1-(p+j), p) C(d+1-(p+j), j) for abelian subvarieties.

    Applicable when max(p, j) <= d + 1 - (p + j).
    """
    s = d + 1 - (p + j)
    return Bound(binomial(s, p) * binomial(s, j), max(p, j) <= s)


class Thm11Bound(NamedTuple):
    value: int
    family_max: int


def thm11_bound(d: int, q: int) -> Thm11Bound:
    """Piecewise lower bound for h^{2,0} without higher irrational pencils.

    value = C(q,2) if q <= 2d - 1, else 2(d-1)q - C(2d-1, 2).
    family_max is the best member of the underlying family
    2k'q - C(2k'+1, 2) over 1 <= k' < d, clamped at 0 (empty and
    negative families bound nothing); the two agree on the whole grid.
    """
    if d < 1 or q < 0:
        raise ValueError("need d >= 1 and q >= 0")
    value = comb(q, 2) if q <= 2 * d - 1 else 2 * (d - 1) * q - comb(2 * d - 1, 2)
    family = [2 * kp * q - comb(2 * kp + 1, 2) for kp in range(1, d)]
    return Thm11Bound(value, max(0, *family) if family else 0)


def c1_bound(q: int, k: int) -> int:
    """h^{2,0} >= q(k+1) - C(k+2, 2) from the first Chern class."""
    return q * (k + 1) - comb(k + 2, 2)


@dataclass(frozen=True)
class C2Bound:
    """Square-root bound kept exact: base + (sqrt(radicand) - 1)/2.

    min_h is the least integer satisfying the inequality, decided by
    comparing squares; no floating point is involved.  applicable is
    False for k > q - 2, where the radicand goes negative.
    """

    applicable: bool
    base: int
    radicand: int
    min_h: int | None

    def to_json(self) -> dict:
        return {
            "applicable": self.applicable,
            "base": self.base,
            "radicand": self.radicand,
            "min_h": self.min_h,
        }


def c2_bound(q: int, k: int) -> C2Bound:
    """h^{2,0} >= q(k+1) - C(k+2,2) + (sqrt(8q - 8k - 15) - 1)/2.

    Needs an exact degree-3 complex on the Grassmannian of k-planes;
    numerically it needs k <= q - 2.  For integers the inequality says
    (2(h - base) + 1)^2 >= radicand with the left side non-negative.
    """
    base = c1_bound(q, k)
    radicand = 8 * q - 8 * k - 15
    if radicand < 0:
        return C2Bound(False, base, radicand, None)
    # smallest s >= 0 with s^2 >= radicand, then h = base + ceil((s-1)/2)
    s = isqrt(radicand)
    if s * s < radicand:
        s += 1
    return C2Bound(True, base, radicand, base + s // 2)


def truncation_bound(q: int, k: int) -> Fraction:
    """(k+1)q/2 - (k+2)(k+1)/6, from truncating the degree-3 complex.

    Not better than kq - C(k+1,2); kept for the comparison.
    """
    return Fraction(k + 1, 2) * q - Fraction((k + 2) * (k + 1), 6)


def hypothetical_top_chern_bound(q: int, k: int) -> int:
    """2kq - (k^2 + C(k+1,2)): conditional on a non-zero top Chern class.

    The premise fails for k = 2, 3, 4 (the top-degree coefficients all
    vanish there), so this is a what-if value, not an established bound.
    """
    return 2 * k * q - (k * k + comb(k + 1, 2))


class ConjectureBound(NamedTuple):
    rank_bound: int
    h_bound: int


def conjecture_rank_bound(q: int, k: int) -> ConjectureBound:
    """Rank and h^{2,0} bounds that follow from the leading-class conjecture.

    rank(F) >= C(q-k, 2) if q <= 2k, else k(2q - 3k - 1)/2; adding
    kq - C(k+1,2) gives h^{2,0} >= C(q,2) resp. 2kq - C(2k+1,2).
    """
    if not 1 <= k < q:
        raise ValueError("need 1 <= k < q")
    if q <= 2 * k:
        rank = comb(q - k, 2)
    else:
        rank = k * (2 * q - 3 * k - 1) // 2  # numerator is always even
    return ConjectureBound(rank, rank + k * q - comb(k + 1, 2))


class HodgeVector:
    """A Hodge table h[i][j] (or a single row) with q and d attached.

    Full tables must satisfy h[0][0] = 1; rows are for callers that
    only track one j.  All entries non-negative integers.
    """

    __slots__ = ("d", "q", "table", "row")

    def __init__(self, q: int, d: int, table=None, row=None, symmetric: bool = False):
        self.q = whole_number(q)
        self.d = whole_number(d)
        if (table is None) == (row is None):
            raise ValueError("give exactly one of table or row")
        if table is not None:
            tab = tuple(tuple(whole_number(x) for x in r) for r in table)
            if any(x < 0 for r in tab for x in r):
                raise ValueError("negative Hodge number")
            if tab[0][0] != 1:
                raise ValueError("h[0][0] must be 1 for a full table")
            if symmetric:
                for i in range(len(tab)):
                    for j in range(len(tab[i])):
                        if tab[i][j] != tab[j][i]:
                            raise ValueError(f"table not symmetric at ({i},{j})")
            self.table = tab
            self.row = None
        else:
            vals = tuple(whole_number(x) for x in row)
            if any(x < 0 for x in vals):
                raise ValueError("negative Hodge number")
            self.table = None
            self.row = vals

    def row_for(self, j: int) -> tuple[int, ...]:
        if self.row is not None:
            return self.row
        if any(len(r) <= j for r in self.table):
            raise ValueError(f"Hodge table has no column j={j}")
        return tuple(r[j] for r in self.table)

    @classmethod
    def from_json(cls, obj: Mapping) -> "HodgeVector":
        try:
            return cls(
                obj["q"],
                obj["d"],
                table=obj.get("h"),
                row=obj.get("row"),
                symmetric=bool(obj.get("symmetric", False)),
            )
        except OverflowError as exc:
            # a JSON number such as 1e400 loads as float infinity
            raise ValueError(f"Hodge number out of range: {exc}") from exc
