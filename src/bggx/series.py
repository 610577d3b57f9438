"""Truncated total-Chern-class series over a Schubert ring.

A GradedSeries keeps one homogeneous SchubertExpr per degree 0..D and all
arithmetic truncates above D. On a concrete Gr(k,q) the default D is the
dimension k(q-k), above which every class vanishes anyway.

The other half of this module builds universal Chern classes of symmetric
powers Sym^r of a rank-k bundle as polynomials in e_i = c_i(E), by three
exact graded recurrences: power sums p_n from Newton's identities, the
Chern character ch(Sym^r E) = h_r[e^x] = sum_{lam |- r} p_lam[e^x] / z_lam,
and c = exp(sum_n (-1)^{n-1} (n-1)! ch_n) (Macdonald, Symmetric Functions
and Hall Polynomials, Ch. I). All three run in Python ints: the degree-d
part of the Chern character is carried as r! d! ch_d, which is integral,
and each c_d is recovered by one exact division. Monomials are packed into
single int keys while the tables are built. Substituting
e_i -> (-1)^i sigma_{1^i} lands back in the Schubert ring.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .partitions import normalize, partitions_with_max_length
from .schur import GrassmannianContext, SchubertExpr, multiply, pieri_words

# Bound on the table cache, far above the 18 tables `repro` uses.
_CACHE_SIZE = 8192


class GradedSeries:
    """components[d] is the degree-d part; truncation degree D is fixed."""

    __slots__ = ("ctx", "D", "components")

    def __init__(self, ctx: GrassmannianContext, D: int, components=None):
        if D < 0:
            raise ValueError("truncation degree must be non-negative")
        self.ctx = ctx
        self.D = D
        comps = list(components) if components is not None else []
        while len(comps) < D + 1:
            comps.append(SchubertExpr.zero(ctx))
        if len(comps) != D + 1:
            raise ValueError("component list longer than D+1")
        for d, part in enumerate(comps):
            if part.ctx != ctx:
                raise ValueError("component context mismatch")
            for lam in part.terms:
                if sum(lam) != d:
                    raise ValueError(f"degree-{d} part holds |{lam}| != {d}")
        self.components = comps

    # ------------------------------------------------------------ builders

    @classmethod
    def unit(cls, ctx, D):
        s = cls(ctx, D)
        s.components[0] = SchubertExpr.unit(ctx)
        return s

    @classmethod
    def from_terms(cls, ctx, D, terms):
        comps = [dict() for _ in range(D + 1)]
        for lam, c in terms.items():
            lam = normalize(lam)
            d = sum(lam)
            if d <= D:
                comps[d][lam] = comps[d].get(lam, 0) + c
        return cls(ctx, D, [SchubertExpr(ctx, t) for t in comps])

    # ----------------------------------------------------------- accessors

    def coefficient(self, lam):
        lam = normalize(lam)
        d = sum(lam)
        if d > self.D:
            return 0
        return self.components[d].coefficient(lam)

    def constant_term(self):
        return self.components[0].coefficient(())

    def is_unit(self) -> bool:
        c = self.constant_term()
        return c == 1

    def terms(self):
        out = {}
        for part in self.components:
            out.update(part.terms)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GradedSeries)
            and self.ctx == other.ctx
            and self.D == other.D
            and self.components == other.components
        )

    def __repr__(self):
        bits = [repr(p) for p in self.components if not p.is_zero()]
        return " + ".join(bits) if bits else "0"

    # ---------------------------------------------------------- arithmetic

    def _check_compatible(self, other):
        if self.ctx != other.ctx or self.D != other.D:
            raise ValueError("series live over different contexts or degrees")

    def __add__(self, other):
        self._check_compatible(other)
        return GradedSeries(
            self.ctx,
            self.D,
            [a + b for a, b in zip(self.components, other.components)],
        )

    def __sub__(self, other):
        self._check_compatible(other)
        return GradedSeries(
            self.ctx,
            self.D,
            [a - b for a, b in zip(self.components, other.components)],
        )

    def scale(self, c):
        return GradedSeries(self.ctx, self.D, [p.scale(c) for p in self.components])

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return self.scale(other)
        self._check_compatible(other)
        out = [SchubertExpr.zero(self.ctx) for _ in range(self.D + 1)]
        for i, a in enumerate(self.components):
            if a.is_zero():
                continue
            for j, b in enumerate(other.components):
                if i + j > self.D:
                    break
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + multiply(a, b)
        return GradedSeries(self.ctx, self.D, out)

    __rmul__ = scale

    def to_json(self):
        return {
            "context": {"k": self.ctx.k,
                        "q": None if self.ctx.is_stable else self.ctx.q},
            "max_degree": self.D,
            "components": [p.to_json()["terms"] for p in self.components],
        }


# ------------------------------------------------------------- chern S, Q

def default_degree(ctx: GrassmannianContext, D=None) -> int:
    if D is not None:
        return D
    if ctx.is_stable:
        raise ValueError("stable context needs an explicit truncation degree")
    return ctx.k * ctx.width


def chern_S(ctx: GrassmannianContext, D=None) -> GradedSeries:
    """Total Chern class of the tautological subbundle: 1 + sum (-1)^i sigma_{1^i}."""
    D = default_degree(ctx, D)
    terms = {(): 1}
    for i in range(1, min(ctx.k, D) + 1):
        terms[(1,) * i] = (-1) ** i
    return GradedSeries.from_terms(ctx, D, terms)


def chern_Q(ctx: GrassmannianContext, D=None) -> GradedSeries:
    """Total Chern class of the quotient bundle: 1 + sigma_1 + sigma_2 + ..."""
    D = default_degree(ctx, D)
    top = D if ctx.is_stable else min(ctx.width, D)
    terms = {(): 1}
    for m in range(1, top + 1):
        terms[(m,)] = 1
    return GradedSeries.from_terms(ctx, D, terms)


# ------------------------------------------------------- series functions

def invert(s: GradedSeries) -> GradedSeries:
    """Multiplicative inverse of a series with constant term 1."""
    if not s.is_unit():
        raise ValueError("cannot invert a series whose constant term is not 1")
    ctx, D = s.ctx, s.D
    inv = [SchubertExpr.unit(ctx)]
    for d in range(1, D + 1):
        acc = SchubertExpr.zero(ctx)
        for i in range(1, d + 1):
            if s.components[i].is_zero():
                continue
            acc = acc + multiply(s.components[i], inv[d - i])
        inv.append(-acc)
    return GradedSeries(ctx, D, inv)


def log_series(s: GradedSeries) -> GradedSeries:
    """Formal log of a series with constant term 1."""
    if not s.is_unit():
        raise ValueError("log needs constant term 1")
    ctx, D = s.ctx, s.D
    u = GradedSeries(ctx, D, [SchubertExpr.zero(ctx)] + s.components[1:])
    total = GradedSeries(ctx, D)
    power = GradedSeries.unit(ctx, D)
    for m in range(1, D + 1):
        power = power * u
        total = total + power.scale(Fraction((-1) ** (m + 1), m))
    return total


def exp_series(s: GradedSeries) -> GradedSeries:
    """Formal exp of a series with zero constant term."""
    if s.constant_term() != 0:
        raise ValueError("exp needs zero constant term")
    ctx, D = s.ctx, s.D
    total = GradedSeries.unit(ctx, D)
    power = GradedSeries.unit(ctx, D)
    for m in range(1, D + 1):
        power = power * s
        total = total + power.scale(Fraction(1, factorial(m)))
    return total


# ---------------------------------------- symmetric powers via power sums
#
# While a table is built, a polynomial in e_1..e_k is a dict from packed
# exponent keys to ints, and a graded one is a list of such dicts indexed
# by degree. The monomial prod e_i^{a_i} is the key sum_i a_i B^(i-1), so
# multiplying two monomials adds their keys. The finished table unpacks
# each key to its exponent tuple once.


def _mul_add(out, a, b, s):
    """out += s * a * b for packed polynomials a and b."""
    for e1, c1 in a.items():
        c1 *= s
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2


def _z(lam):
    """z_lambda = prod_j j^{m_j} m_j!, the centralizer order of cycle type lam."""
    return prod(j**m * factorial(m) for j, m in Counter(lam).items())


class SymChernTable:
    """c(Sym^r E) for any rank-k bundle E, written in e_1..e_k = c_i(E).

    entries[d] maps an exponent tuple over (e_1, ..., e_k) to a Fraction;
    degrees beyond the rank of Sym^r are identically zero.
    """

    __slots__ = ("k", "r", "D", "entries")

    def __init__(self, k, r, D, entries):
        self.k = k
        self.r = r
        self.D = D
        self.entries = entries
        if entries[0] != {(0,) * k: Fraction(1)}:
            raise ArithmeticError("degree-0 entry of a Chern series must be 1")

    def to_json(self):
        return {
            "rank": self.k,
            "power": self.r,
            "max_degree": self.D,
            "entries": [
                [
                    {"monomial": list(e), "coeff": str(c)}
                    for e, c in sorted(slice_.items())
                ]
                for slice_ in self.entries
            ],
        }


def sym_power_chern(k: int, r: int, D=None) -> SymChernTable:
    """Chern class of Sym^r of a rank-k bundle, through degree D."""
    if k < 1 or r < 1:
        raise ValueError("need k >= 1 and r >= 1")
    if D is not None and D < 0:
        raise ValueError("truncation degree must be non-negative")
    rank = comb(k + r - 1, r)
    D = rank if D is None else D
    table = _sym_power_table(k, r, min(D, rank))
    if D == table.D:
        return table
    # c_d(Sym^r E) = 0 above the rank: pad with empty degree slices
    return SymChernTable(k, r, D, table.entries + [{} for _ in range(D - table.D)])


@lru_cache(maxsize=_CACHE_SIZE)
def _sym_power_table(k, r, cap):
    """The table through degree cap <= rank, cached on (k, r, cap) so that
    every D at or above the rank shares one table."""
    # Key base B = cap + 1. No digit ever carries: every product below is
    # formed inside a slice of weighted degree sum_i i a_i <= cap, so every
    # a_i <= cap < B (a_1 = cap is e_1^cap, the largest digit).
    B = cap + 1
    e_key = [B**i for i in range(k)]  # e_key[i - 1] packs e_i

    # Newton: p_n = sum_{i<n} (-1)^{i-1} e_i p_{n-i} + (-1)^{n-1} n e_n
    p = [{0: k}]
    for n in range(1, cap + 1):
        pn = {}
        for i in range(1, min(n - 1, k) + 1):
            sign, ei = (-1) ** (i - 1), e_key[i - 1]
            for e, c in p[n - i].items():
                pn[e + ei] = pn.get(e + ei, 0) + sign * c
        if n <= k:
            e = e_key[n - 1]
            pn[e] = pn.get(e, 0) + (-1) ** (n - 1) * n
        p.append(pn)

    # ch(Sym^r E) = h_r[e^x] = sum_{lam |- r} p_lam[e^x] / z_lam with
    # p_j[e^x] = sum_m j^m p_m / m!. Scaled to integers: the product of the
    # series j^m p_m under the binomial convolution (a * b)_d =
    # sum_i C(d, i) a_i b_{d-i} is d! p_lam[e^x]_d, and r!/z_lam is the size
    # of a conjugacy class, so X_d = r! d! ch_d.
    pj = {j: [{e: j**m * c for e, c in p[m].items()} for m in range(cap + 1)]
          for j in range(1, r + 1)}
    X = [{} for _ in range(cap + 1)]
    for lam in partitions_with_max_length(r, r):
        term = pj[lam[0]]
        for j in lam[1:]:
            out = [{} for _ in range(cap + 1)]
            for i, ai in enumerate(term):
                for m, bm in enumerate(pj[j][: cap + 1 - i]):
                    _mul_add(out[i + m], ai, bm, comb(i + m, i))
            term = out
        weight = factorial(r) // _z(lam)
        for d in range(1, cap + 1):
            for e, v in term[d].items():
                X[d][e] = X[d].get(e, 0) + weight * v

    # c = exp(sum_n (-1)^{n-1} (n-1)! ch_n), so
    # d c_d = sum_i (-1)^{i-1} i! ch_i c_{d-i}, i.e.
    # r! d c_d = sum_i (-1)^{i-1} X_i c_{d-i}; every c_d is integral
    c = [{0: 1}]
    for d in range(1, cap + 1):
        cd = {}
        for i in range(1, d + 1):
            _mul_add(cd, X[i], c[d - i], (-1) ** (i - 1))
        c.append({})
        for e, v in cd.items():
            v, rem = divmod(v, factorial(r) * d)
            if rem:
                raise ArithmeticError(f"c_{d}(Sym^{r} E) for rank {k} is not integral")
            if v:
                c[d][e] = v

    def unpack(e):
        exps = []
        for _ in range(k):
            e, a = divmod(e, B)
            exps.append(a)
        return tuple(exps)

    return SymChernTable(
        k, r, cap, [{unpack(e): Fraction(v) for e, v in cd.items()} for cd in c])


# -------------------------------------------------- back to Schubert land

def _e_word(exps):
    """The column classes of prod e_i^{a_i}: a_1 ones, then a_2 twos, ..."""
    return tuple(i for i, a in enumerate(exps, start=1) for _ in range(a))


def substitute(table: SymChernTable, ctx: GrassmannianContext, D=None) -> GradedSeries:
    """Specialize a symmetric-power table to c(Sym^r S) on the given context."""
    if table.k != ctx.k:
        raise ValueError(f"table rank {table.k} != context k {ctx.k}")
    D = default_degree(ctx, D)
    rank = comb(table.k + table.r - 1, table.r)
    if table.D < min(D, rank):
        raise ValueError("table truncated below the requested series degree")
    # one pass per degree slice, so its e-monomials share their prefixes
    slices = (table.entries + [{}] * D)[: D + 1]
    return GradedSeries(ctx, D, [
        pieri_words((), [(_e_word(e), (-1) ** d * c) for e, c in part.items()], ctx, vertical=True)
        for d, part in enumerate(slices)])
