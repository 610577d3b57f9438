"""Schubert-basis ring of a Grassmannian Gr(k, q), plus its stable limit.

Classes are indexed by partitions in the k x (q-k) box (sigma_lambda of
codimension |lambda|). A context with width=None is the inductive limit as
q grows: partitions keep at most k parts but parts are unbounded, which is
the ring of Schur polynomials in k variables.

Every product is a chain of one cached Pieri step (the nu with nu/lam a
horizontal or vertical m-strip in the box). sigma_lam * sigma_b expands
sigma_b = det(sigma_{b_i + j - i}) (Fulton, Young Tableaux, Sec. 2, 9.4) into
signed multisets of row indices, applied along shared prefixes; the series
code expands e-monomials the same way. An independent Littlewood-Richardson
tableau count (lr_coefficient) shares no code with the ring operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from operator import itemgetter

from .partitions import (
    fits_box,
    format_partition,
    horizontal_strips,
    normalize,
    vertical_strips,
)

# Bound on each cache, far above the 837 general products and 982 Pieri
# steps of all Gr(4,8) products plus the k <= 4 staircase, or (7,15)'s 3483.
_CACHE_SIZE = 1 << 14


@dataclass(frozen=True)
class GrassmannianContext:
    """k = rank of the tautological subbundle; width = q - k, or None for stable."""

    k: int
    width: int | None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.width is not None and self.width < 0:
            raise ValueError("box width must be non-negative")

    @property
    def is_stable(self) -> bool:
        return self.width is None

    @property
    def q(self) -> int:
        if self.width is None:
            raise ValueError("stable context has no ambient dimension q")
        return self.k + self.width

    def admits(self, lam) -> bool:
        return fits_box(lam, self.k, self.width)

    def check(self, lam):
        if not self.admits(lam):
            raise ValueError(f"partition {lam} does not fit the context {self}")

    def __repr__(self):
        if self.width is None:
            return f"Gr({self.k}, stable)"
        return f"Gr({self.k},{self.q})"


def grassmannian(k: int, q: int) -> GrassmannianContext:
    if q <= k:
        raise ValueError("need q > k for a non-trivial Grassmannian")
    return GrassmannianContext(k, q - k)


def stable(k: int) -> GrassmannianContext:
    return GrassmannianContext(k, None)


def _norm_coeff(c):
    # keep integer-valued coefficients as ints; Fraction arithmetic mixes freely
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class SchubertExpr:
    """Finite linear combination of Schubert classes over one context.

    Coefficients may be ints, Fractions, or any commutative ring element
    supporting +, * and truthiness (polynomials in particular).
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: GrassmannianContext, terms=None):
        self.ctx = ctx
        store = {}
        for lam, c in (terms or {}).items():
            lam = normalize(lam)
            ctx.check(lam)
            c = _norm_coeff(c)
            if c:
                store[lam] = c
        self.terms = store

    @classmethod
    def _make(cls, ctx, pairs):
        """Expression from (lam, c) pairs whose partitions the engine made,
        canonical and in the box, so not validated again; zeros dropped."""
        res = cls.__new__(cls)
        res.ctx = ctx
        res.terms = {lam: _norm_coeff(c) for lam, c in pairs if c}
        return res

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def unit(cls, ctx, coeff=1):
        return cls(ctx, {(): coeff})

    @classmethod
    def single(cls, ctx, lam, coeff=1):
        return cls(ctx, {normalize(lam): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam):
        return self.terms.get(normalize(lam), 0)

    def _require_same_ctx(self, other):
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")

    def __add__(self, other):
        if not isinstance(other, SchubertExpr):
            return NotImplemented
        self._require_same_ctx(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return SchubertExpr._make(self.ctx, out.items())

    def __neg__(self):
        return SchubertExpr._make(self.ctx, ((lam, -c) for lam, c in self.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return SchubertExpr._make(self.ctx, ((lam, v * c) for lam, v in self.terms.items()))

    def __mul__(self, other):
        if isinstance(other, SchubertExpr):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, SchubertExpr)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        pieces = []
        for lam, c in self.sorted_terms():
            sig = "1" if not lam else "s(" + ",".join(map(str, lam)) + ")"
            pieces.append(f"{c}*{sig}")
        return " + ".join(pieces)

    def to_json(self):
        ctx = {"k": self.ctx.k, "q": None if self.ctx.is_stable else self.ctx.q}
        terms = [
            {"partition": list(lam), "coeff": str(Fraction(c))}
            for lam, c in self.sorted_terms()
        ]
        return {"context": ctx, "terms": terms}

    @classmethod
    def from_json(cls, data):
        c = data["context"]
        ctx = stable(c["k"]) if c.get("q") is None else grassmannian(c["k"], c["q"])
        terms = {}
        for t in data["terms"]:
            terms[normalize(t["partition"])] = Fraction(t["coeff"])
        return cls(ctx, terms)


@lru_cache(maxsize=_CACHE_SIZE)
def _strips(lam, m, k, width, vertical):
    """The Pieri step: every nu in the k x width box with nu/lam a horizontal
    m-strip (a vertical one when `vertical`), as a tuple of canonical tuples."""
    return tuple((vertical_strips if vertical else horizontal_strips)(lam, m, k, width))


def _pieri(lam, m, ctx, vertical):
    lam = normalize(lam)
    ctx.check(lam)
    if m < 0:
        raise ValueError("class index must be non-negative")
    return SchubertExpr._make(ctx, ((nu, 1) for nu in _strips(lam, m, ctx.k, ctx.width, vertical)))


def pieri(lam, m: int, ctx: GrassmannianContext) -> SchubertExpr:
    """sigma_lam * sigma_(m): sum over horizontal m-strip extensions in the box."""
    return _pieri(lam, m, ctx, vertical=False)


def pieri_dual(lam, c: int, ctx: GrassmannianContext) -> SchubertExpr:
    """sigma_lam * sigma_(1^c): sum over vertical c-strip extensions in the box."""
    return _pieri(lam, c, ctx, vertical=True)


def pieri_words(start, words, ctx: GrassmannianContext, vertical=False) -> SchubertExpr:
    """sum of a * sigma_start * prod_{m in w} sigma_(m) (sigma_(1^m) when
    `vertical`) over the (w, a) pairs, w distinct tuples of strip sizes.

    Sorted words keep the integer product of every prefix of the current
    word on a stack, so a prefix that several words share is computed once.
    """
    k, width = ctx.k, ctx.width
    total = {}
    stack, prev = [{start: 1}], ()
    for word, w in sorted(words, key=itemgetter(0)):
        i = 0
        while i < min(len(prev), len(word)) and prev[i] == word[i]:
            i += 1
        del stack[i + 1:]
        for m in word[i:]:
            acc = {}
            for lam, c in stack[-1].items():
                for nu in _strips(lam, m, k, width, vertical):
                    acc[nu] = acc.get(nu, 0) + c
            stack.append(acc)
        prev, w = word, _norm_coeff(w)
        for nu, c in stack[-1].items():
            total[nu] = total.get(nu, 0) + w * c
    return SchubertExpr._make(ctx, total.items())


@lru_cache(maxsize=_CACHE_SIZE)
def _giambelli_words(b, width):
    """det(sigma_{b_i + j - i}) as (sorted non-zero row indices, signed count)
    pairs: terms with an index outside 0..width vanish, sigma_0 = 1 drops
    out, and terms with equal index multisets are merged, zero sums removed.
    """
    n = len(b)
    words = {}
    for perm in permutations(range(n)):
        ms = [b[i] + perm[i] - i for i in range(n)]
        if any(m < 0 or (width is not None and m > width) for m in ms):
            continue
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        word = tuple(sorted(m for m in ms if m))
        words[word] = words.get(word, 0) + (-1) ** inversions
    return tuple((word, c) for word, c in words.items() if c)


def giambelli(lam, ctx: GrassmannianContext) -> SchubertExpr:
    """Expand sigma_lam as det(sigma_{lam_i + j - i}) over special classes.

    Sanity: the result always equals sigma_lam itself.
    """
    lam = normalize(lam)
    ctx.check(lam)
    return pieri_words((), _giambelli_words(lam, ctx.width), ctx)


def class_product(lam, mu, ctx: GrassmannianContext) -> SchubertExpr:
    """sigma_lam * sigma_mu. Pieri fast paths, Giambelli in general."""
    lam, mu = normalize(lam), normalize(mu)
    # single-row / single-column fast paths
    if len(mu) <= 1:
        return pieri(lam, mu[0] if mu else 0, ctx)
    if len(lam) <= 1:
        return pieri(mu, lam[0] if lam else 0, ctx)
    if mu[0] == 1:
        return pieri_dual(lam, len(mu), ctx)
    if lam[0] == 1:
        return pieri_dual(mu, len(lam), ctx)
    pair = (lam, mu) if lam <= mu else (mu, lam)
    return SchubertExpr._make(ctx, _general_product(*pair, ctx))


@lru_cache(maxsize=_CACHE_SIZE)
def _general_product(lam, mu, ctx):
    # (nu, coefficient) pairs; the factor with fewer rows goes through Giambelli
    a, b = (lam, mu) if len(mu) <= len(lam) else (mu, lam)
    return tuple(pieri_words(a, _giambelli_words(b, ctx.width), ctx).terms.items())


def multiply(a: SchubertExpr, b: SchubertExpr) -> SchubertExpr:
    """Product of two expressions, bilinear over class_product."""
    if a.ctx != b.ctx:
        raise ValueError(f"context mismatch: {a.ctx} vs {b.ctx}")
    ctx = a.ctx
    out = {}
    for lam, ca in a.terms.items():
        for mu, cb in b.terms.items():
            c = ca * cb
            if not c:
                continue
            for nu, mult in class_product(lam, mu, ctx).terms.items():
                out[nu] = out.get(nu, 0) + c * mult
    return SchubertExpr._make(ctx, out.items())


def complement(lam, ctx: GrassmannianContext) -> tuple[int, ...]:
    """Poincare-dual partition: hat(lam)_i = (q-k) - lam_{k+1-i}."""
    if ctx.is_stable:
        raise ValueError("complement needs a finite box")
    lam = normalize(lam)
    ctx.check(lam)
    padded = lam + (0,) * (ctx.k - len(lam))
    return normalize(tuple(ctx.width - padded[ctx.k - 1 - i] for i in range(ctx.k)))


def lr_coefficient(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu} by direct tableau count.

    Counts semistandard fillings of nu/lam with content mu whose reverse
    reading word is a lattice word. Deliberately independent of the ring
    code above so it can act as an oracle for multiply().
    """
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if sum(nu) != sum(lam) + sum(mu):
        raise ValueError("|nu| must equal |lam| + |mu|")
    if not contains_for_lr(nu, lam):
        return 0
    if not mu:
        return 1 if nu == lam else 0
    rows = len(nu)
    lam_p = lam + (0,) * (rows - len(lam))
    # cells in reading order: top row first, right to left within a row
    cells = []
    for r in range(rows):
        for c in range(nu[r] - 1, lam_p[r] - 1, -1):
            cells.append((r, c))
    n_letters = len(mu)
    grid = [[0] * nu[r] for r in range(rows)]
    counts = [0] * (n_letters + 1)
    total = 0

    def feasible(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        # row-weak: value <= right neighbour (filled earlier in reading order)
        hi = n_letters
        if c + 1 < nu[r] and grid[r][c + 1]:
            hi = grid[r][c + 1]
        for v in range(1, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            # lattice word: after placing v, #v must not exceed #(v-1)
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            # column-strict: value > the cell above (cells above lam are empty)
            if r > 0 and c >= lam_p[r - 1] and grid[r - 1][c] >= v:
                continue
            grid[r][c] = v
            counts[v] += 1
            feasible(idx + 1)
            counts[v] -= 1
            grid[r][c] = 0

    feasible(0)
    return total


def contains_for_lr(nu, lam) -> bool:
    if len(lam) > len(nu):
        return False
    return all(n >= l for n, l in zip(nu, lam + (0,) * (len(nu) - len(lam))))


def format_expr(expr: SchubertExpr) -> str:
    """Human-readable rendering used by the CLI text format."""
    if expr.is_zero():
        return "0"
    bits = []
    for lam, c in expr.sorted_terms():
        name = "1" if not lam else "sigma(" + format_partition(lam) + ")"
        if c == 1 and lam:
            bits.append(name)
        elif c == -1 and lam:
            bits.append(f"-{name}")
        else:
            bits.append(f"{c}*{name}" if lam else f"{c}")
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out
