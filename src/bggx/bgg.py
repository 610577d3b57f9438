"""Chern classes of the cokernel sheaves living over the Grassmannian.

Two computations drive everything here. On a concrete Gr(k,q), the class
c(F) = c(Sym^2 S) * c(Q)^q, whose Schubert coefficients are predicted to
vanish strictly above a staircase partition mu. And in the stable ring with
symbolic h and q, the class c(G) = c(Sym^2 S)^q / (c(S)^h * c(Sym^3 S)),
whose low-degree coefficients g_lambda are quadratic polynomials in h.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .coefpoly import CoefPoly, hq_poly
from .partitions import box_partitions, horizontal_extensions, strictly_bigger
from .schur import grassmannian, stable
from .series import (
    GradedSeries,
    chern_S,
    exp_series,
    invert,
    log_series,
    substitute,
    sym_power_chern,
)


def mu_partition(k: int, q: int) -> tuple[int, ...]:
    """The staircase (q-k-1, q-k-2, ..., q-2k), stopping early at 0 when q < 2k."""
    if not 1 <= k < q:
        raise ValueError("need 1 <= k < q")
    parts = []
    for i in range(k):
        p = q - k - 1 - i
        if p <= 0:
            break
        parts.append(p)
    return tuple(parts)


def rank_lower_bound(k: int, q: int) -> int:
    """Codimension of sigma_mu: binom(q-k,2) for q <= 2k, k(2q-3k-1)/2 above."""
    if q <= 2 * k:
        return comb(q - k, 2)
    return k * (2 * q - 3 * k - 1) // 2


def chern_F(k: int, q: int) -> GradedSeries:
    """c(F) = c(Sym^2 S) * c(Q)^q on Gr(k,q), complete through degree k(q-k).

    The q-th power of c(Q) is applied as q passes of "extend by a horizontal
    strip of any size", which is how multiplication by 1 + sigma_1 + sigma_2
    + ... acts on the Schubert basis. No truncation is needed beyond the box,
    so each lam's extensions are the same on every pass: they are listed on
    first use and reused by the later passes of this call.
    """
    ctx = grassmannian(k, q)
    width = q - k
    D = k * width
    terms = substitute(sym_power_chern(k, 2, D), ctx).terms()
    extensions = {}
    for _ in range(q):
        new = {}
        for lam, c in terms.items():
            nus = extensions.get(lam)
            if nus is None:
                nus = extensions[lam] = list(horizontal_extensions(lam, k, width))
            for nu in nus:
                new[nu] = new.get(nu, 0) + c
        terms = {nu: c for nu, c in new.items() if c}
    return GradedSeries.from_terms(ctx, D, terms)


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of scanning c(F) against the staircase prediction on one cell."""

    k: int
    q: int
    mu: tuple[int, ...]
    mu_coefficient: Fraction
    above_mu_all_zero: bool
    offending: tuple
    codim_mu: int
    rank_lower_bound: int
    boundary: bool  # q = k+1, where mu is empty and the reading is ambiguous

    @property
    def passed(self) -> bool:
        return self.above_mu_all_zero and self.mu_coefficient != 0

    @property
    def status(self) -> str:
        if not self.passed:
            return "FAIL"
        return "WARN" if self.boundary else "PASS"

    def to_json(self):
        return {
            "k": self.k,
            "q": self.q,
            "mu": list(self.mu),
            "mu_coefficient": str(Fraction(self.mu_coefficient)),
            "above_mu_all_zero": self.above_mu_all_zero,
            "offending": [
                {"partition": list(lam), "coeff": str(Fraction(c))}
                for lam, c in self.offending
            ],
            "codim_mu": self.codim_mu,
            "rank_lower_bound": self.rank_lower_bound,
            "status": self.status,
        }


def verify_conjecture(k: int, q: int) -> ConjectureReport:
    """Check that every Schubert coefficient of c(F) strictly above mu is 0
    and the coefficient at mu is not."""
    mu = mu_partition(k, q)
    f = chern_F(k, q)
    coeffs = f.terms()
    offending = []
    for lam in box_partitions(k, q - k, min_size=sum(mu) + 1):
        if not strictly_bigger(lam, mu):
            continue
        c = coeffs.get(lam, 0)
        if c:
            offending.append((lam, c))
    return ConjectureReport(
        k=k,
        q=q,
        mu=mu,
        mu_coefficient=coeffs.get(mu, 0),
        above_mu_all_zero=not offending,
        offending=tuple(offending),
        codim_mu=sum(mu),
        rank_lower_bound=rank_lower_bound(k, q),
        boundary=(q == k + 1),
    )


# ----------------------------------------------------------- symbolic side

@dataclass(frozen=True)
class GCoeffs:
    """g_lambda polynomials in (h, q) for one k, valid once q-k >= max_degree."""

    k: int
    max_degree: int
    coeffs: dict = field(hash=False)

    @property
    def valid_for_q_ge(self) -> int:
        return self.k + self.max_degree

    def g(self, lam) -> CoefPoly:
        lam = tuple(lam)
        if lam not in self.coeffs:
            return CoefPoly.constant(0, ("h", "q"))
        return self.coeffs[lam]

    def to_json(self):
        return {
            "k": self.k,
            "max_degree": self.max_degree,
            "valid_for_q_ge": self.valid_for_q_ge,
            "coeffs": {
                ",".join(map(str, lam)) if lam else "0": str(p)
                for lam, p in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            },
        }


def chern_G_coeffs(k: int, max_degree: int = 2) -> GCoeffs:
    """Extract g_lambda from c(G) = c(Sym^2 S)^q / (c(S)^h c(Sym^3 S)).

    Works in the stable ring (partitions of length <= k, parts unbounded)
    with h and q as polynomial symbols; the result describes every Gr(k,q)
    with q - k >= max_degree.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    st = stable(k)
    D = max_degree
    h, q = hq_poly()
    sym2 = substitute(sym_power_chern(k, 2, D), st, D)
    sym3 = substitute(sym_power_chern(k, 3, D), st, D)
    s = chern_S(st, D)
    g = (
        exp_series(log_series(sym2).scale(q))
        * exp_series(log_series(s).scale(-h))
        * invert(sym3)
    )
    coeffs = {}
    for part in g.components:
        for lam, c in part.terms.items():
            coeffs[lam] = c if isinstance(c, CoefPoly) else CoefPoly.constant(c, ("h", "q"))
    return GCoeffs(k=k, max_degree=max_degree, coeffs=coeffs)


def chern_G_concrete(k: int, h0: int, q0: int, max_degree: int = 2) -> GradedSeries:
    """Same class with numeric exponents, by plain powers and inversion.

    Independent of the symbolic path: used to validate specializations."""
    st = stable(k)
    D = max_degree
    sym2 = substitute(sym_power_chern(k, 2, D), st, D)
    sym3 = substitute(sym_power_chern(k, 3, D), st, D)
    s = chern_S(st, D)
    out = GradedSeries.unit(st, D)
    for _ in range(q0):
        out = out * sym2
    inv_s = invert(s)
    for _ in range(h0):
        out = out * inv_s
    return out * invert(sym3)


# Reference closed forms for the three lowest coefficients, as displayed
# formulas in h and q at fixed k. The ring computation above must reproduce
# these exactly; they also back the CLI's self-check command.

def g1_closed(k: int) -> CoefPoly:
    h, q = hq_poly()
    return h - q * (k + 1) + comb(k + 2, 2)


def g2_closed(k: int) -> CoefPoly:
    h, q = hq_poly()
    half = Fraction(1, 2)
    binom_q2 = q * (q - 1) * half
    return (
        h * h * half
        - (q * (k + 1) - comb(k + 2, 2) - half) * h
        + (
            binom_q2 * (k + 1) ** 2
            - q * Fraction(k + 2, 2) * (k * k + k + 2)
            + Fraction((k + 3) * (k + 2) * (k * k + k + 4), 8)
        )
    )


def g11_closed(k: int) -> CoefPoly:
    h, q = hq_poly()
    half = Fraction(1, 2)
    binom_q2 = q * (q - 1) * half
    return (
        h * h * half
        - (q * (k + 1) - comb(k + 2, 2) + half) * h
        + (binom_q2 * (k + 1) ** 2 - q * k * comb(k + 2, 2) + 3 * comb(k + 3, 4))
    )


def g11_roots(k: int) -> CoefPoly:
    """Center c(q) of the roots c - 1/2, c + 1/2 of g11_closed(k) in h."""
    _, q = hq_poly()
    return q * (k + 1) - comb(k + 2, 2) + Fraction(1, 2)
