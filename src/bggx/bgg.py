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
from itertools import combinations_with_replacement
from math import comb

from .bounds import conjecture_rank_bound
from .coefpoly import CoefPoly, hq_poly
from .partitions import contains
from .schur import SchubertExpr, grassmannian, stable
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


def chern_F(k: int, q: int) -> GradedSeries:
    """c(F) = c(Sym^2 S) * c(Q)^q on Gr(k,q), complete through degree k(q-k).

    Multiplying by c(Q) = 1 + sigma_1 + sigma_2 + ... sends sigma_lam to the
    sum of sigma_nu over the nu in the box with nu/lam a horizontal strip of
    any size (Pieri). Padded to k rows, that is the interlacing
    nu_1 >= lam_1 >= nu_2 >= lam_2 >= ... >= nu_k >= lam_k >= 0 (Macdonald,
    Symmetric Functions and Hall Polynomials, I.5), so

        (c(Q) v)_nu = sum_{lam_k = 0}^{nu_k} sum_{lam_{k-1} = nu_k}^{nu_{k-1}}
                      ... sum_{lam_1 = nu_2}^{nu_1} v_lam.

    Summed from the last row up, each inner sum is a prefix sum along one
    row of the cone q-k >= x_1 >= ... >= x_k >= 0. After the sweeps of rows
    k..j+1 the vector is indexed by (lam_1..lam_j, nu_{j+1}..nu_k), a point
    of the cone since lam_j >= nu_{j+1}; the sweep of row j,
    v[x] += v[x - e_j] wherever x_j - 1 >= x_{j+1} (x_{k+1} = 0), taken in
    increasing x_j, turns lam_j into nu_j. So each of the q factors of c(Q)
    costs k sweeps over the C(q, k) box partitions, in exact arithmetic.
    """
    ctx = grassmannian(k, q)
    D = k * (q - k)
    sym2 = substitute(sym_power_chern(k, 2, D), ctx).terms()
    comps = [{} for _ in range(D + 1)]
    for lam, c in _times_c_Q_power(sym2, k, q - k, q).items():
        comps[sum(lam)][lam] = c
    return GradedSeries(ctx, D, [SchubertExpr._make(ctx, t.items()) for t in comps])


def _times_c_Q_power(terms, k: int, width: int, n: int) -> dict:
    """(sum of c sigma_lam over the (lam, c) in terms) * c(Q)^n in the
    k x width box, by the row sweeps of chern_F, as a dict of its non-zero
    coefficients; the lam must be canonical partitions in the box."""
    # the padded box partitions, by size so that x - e_j comes before x
    points = sorted(combinations_with_replacement(range(width, -1, -1), k), key=sum)
    index = {x: i for i, x in enumerate(points)}
    sweeps = [[(i, index[x[:j] + (x[j] - 1,) + x[j + 1:]])
               for i, x in enumerate(points) if x[j] > (x[j + 1] if j + 1 < k else 0)]
              for j in reversed(range(k))]
    v = [0] * len(points)
    for lam, c in terms.items():
        v[index[lam + (0,) * (k - len(lam))]] += c
    for _ in range(n):
        for pairs in sweeps:
            for x, y in pairs:
                v[x] += v[y]
    return {x[:k - x.count(0)]: c for x, c in zip(points, v) if c}


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
    # the nonzero coefficients at a nu strictly containing mu, in the order
    # of box_partitions: at the first differing row the larger part comes
    # first, and a partition comes before its extensions
    offending = sorted(
        ((nu, c) for nu, c in coeffs.items() if c and nu != mu and contains(nu, mu)),
        key=lambda item: [-x for x in item[0]],
    )
    return ConjectureReport(
        k=k,
        q=q,
        mu=mu,
        mu_coefficient=coeffs.get(mu, 0),
        above_mu_all_zero=not offending,
        offending=tuple(offending),
        codim_mu=sum(mu),
        rank_lower_bound=conjecture_rank_bound(q, k).rank_bound,
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
