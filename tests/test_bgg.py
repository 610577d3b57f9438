"""Cokernel-sheaf Chern classes: the staircase vanishing pattern of c(F),
and the symbolic g-polynomials of c(G) against their displayed closed forms
and against concrete specializations computed by plain powers."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, prod

import pytest

from bggx import bgg
from bggx.bgg import (
    chern_F,
    chern_G_coeffs,
    g1_closed,
    g2_closed,
    g11_closed,
    g11_roots,
    mu_partition,
    verify_conjecture,
)
from bggx.bounds import c2_bound, conjecture_rank_bound
from bggx.coefpoly import CoefPoly, hq_poly
from bggx.partitions import box_partitions, contains
from bggx.schur import grassmannian, stable
from bggx.series import GradedSeries, chern_S, invert, substitute, sym_power_chern


# -------------------------------------------------------------- staircase

def test_mu_partition_values():
    assert mu_partition(2, 6) == (3, 2)
    assert mu_partition(3, 12) == (8, 7, 6)
    assert mu_partition(2, 3) == ()
    assert mu_partition(2, 4) == (1,)
    assert mu_partition(4, 12) == (7, 6, 5, 4)
    assert mu_partition(3, 5) == (1,)
    with pytest.raises(ValueError):
        mu_partition(3, 3)


def test_rank_lower_bound_is_codim_mu():
    for k in range(1, 6):
        for q in range(k + 1, 14):
            assert conjecture_rank_bound(q, k).rank_bound == sum(mu_partition(k, q)), (k, q)


# ----------------------------------------------------------------- c(F)

def test_chern_F_degree_one():
    for k, q in [(1, 3), (2, 5), (2, 6), (3, 7)]:
        f = chern_F(k, q)
        assert f.coefficient(()) == 1
        assert f.coefficient((1,)) == q - (k + 1), (k, q)


def skew_schur_at_ones(nu, lam, k, q):
    """s_{nu/lam}(1^q) by the k x k Jacobi-Trudi determinant
    det[h_{nu_i - lam_j - i + j}(1^q)], with h_m(1^q) = C(m+q-1, q-1).
    Test-local; independent of the strip enumeration in chern_F."""
    nu = tuple(nu) + (0,) * (k - len(nu))
    lam = tuple(lam) + (0,) * (k - len(lam))

    def h(m):
        return comb(m + q - 1, q - 1) if m >= 0 else 0

    total = 0
    for perm in permutations(range(k)):
        inversions = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        total += (-1) ** inversions * prod(
            h(nu[i] - lam[j] - i + j) for i, j in enumerate(perm)
        )
    return total


def test_chern_F_matches_jacobi_trudi_oracle():
    # the coefficient of sigma_nu in sigma_lam * c(Q)^q is s_{nu/lam}(1^q)
    for k in range(1, 5):
        for q in range(k + 1, 9):
            sym2 = substitute(sym_power_chern(k, 2, k * (q - k)), grassmannian(k, q))
            expect = {}
            for lam, a in sym2.terms().items():
                for nu in box_partitions(k, q - k, min_size=sum(lam)):
                    c = a * skew_schur_at_ones(nu, lam, k, q)
                    if c:
                        expect[nu] = expect.get(nu, 0) + c
            expect = {nu: c for nu, c in expect.items() if c}
            got = {nu: c for nu, c in chern_F(k, q).terms().items() if c}
            assert got == expect, (k, q)


def test_chern_F_k1_is_line_bundle_case():
    # k=1: c(F) = (1 - 2 sigma_1) * c(Q)^q on projective space
    q = 5
    f = chern_F(1, q)
    # degree-d coefficient of (1-2t)/(1-t)^q with t^d, all degrees up to q-1
    # (1-t)^-q = sum binom(q-1+d, d) t^d
    for d in range(0, q):
        expect = comb(q - 1 + d, d) - 2 * comb(q - 2 + d, d - 1) if d else 1
        assert f.coefficient((d,) if d else ()) == expect


def test_conjecture_small_cells():
    r = verify_conjecture(2, 6)
    assert r.mu == (3, 2)
    assert r.above_mu_all_zero
    assert r.mu_coefficient != 0
    assert r.status == "PASS"
    assert r.codim_mu == 5 and r.rank_lower_bound == 5

    r = verify_conjecture(2, 5)
    assert r.mu == (2, 1) and r.passed

    r = verify_conjecture(3, 7)
    assert r.passed and r.status == "PASS"


def test_conjecture_boundary_q_eq_k_plus_1():
    # mu is empty; the complex has c(F) = 1 exactly, which passes with WARN
    for k in (1, 2, 3):
        r = verify_conjecture(k, k + 1)
        assert r.boundary and r.mu == ()
        assert r.status in ("WARN", "FAIL")
        # frozen expectation: these boundary cells do hold
        assert r.passed and r.status == "WARN"


def test_offending_partitions_come_in_box_order(monkeypatch):
    # no real cell has an offending coefficient: feed verify_conjecture a
    # c(F) whose terms cover the box in shuffled order, a third of them 0
    rng = random.Random(7)
    for k, q in ((2, 6), (3, 8), (4, 9)):
        box = list(box_partitions(k, q - k))
        coeffs = {lam: rng.choice((0, 1, -2)) for lam in rng.sample(box, len(box))}

        class Stub:
            def terms(self):
                return coeffs

        monkeypatch.setattr(bgg, "chern_F", lambda k, q: Stub())
        mu = mu_partition(k, q)
        want = [(lam, coeffs[lam]) for lam in box
                if coeffs[lam] and lam != mu and contains(lam, mu)]
        got = verify_conjecture(k, q)
        assert list(got.offending) == want and want
        assert got.above_mu_all_zero is False


def test_conjecture_report_json_round():
    data = verify_conjecture(2, 5).to_json()
    assert data["mu"] == [2, 1]
    assert data["status"] == "PASS"
    assert isinstance(data["mu_coefficient"], str)


# sha256 of the sort_keys JSON list of verify_conjecture(k, q).to_json() over
# these cells, recorded before Schubert products shared one cached Pieri step
_STAIRCASE_CELLS = tuple((k, q) for k in (2, 3, 4) for q in range(k + 1, 11)) + ((5, 6), (5, 7))
_STAIRCASE_SHA256 = "7fabb4f764fad738512649e77684d501585a6c17837c07a863dd69800e6d92db"


def test_conjecture_reports_match_recorded_digest():
    blob = json.dumps([verify_conjecture(k, q).to_json() for k, q in _STAIRCASE_CELLS],
                      sort_keys=True)
    assert len(_STAIRCASE_CELLS) == 23
    assert hashlib.sha256(blob.encode()).hexdigest() == _STAIRCASE_SHA256


# sha256 of the same listing over the k = 6, 7 cells, recorded before
# chern_F applied c(Q) as row-by-row prefix sums
_K67_CELLS = tuple((6, q) for q in range(7, 13)) + tuple((7, q) for q in range(8, 12))
_K67_SHA256 = "5de3a38541a385f966934d24105a3ef7d2337333ddce62b69aa1bea295e6f9e9"


def test_k6_k7_conjecture_reports_match_recorded_digest():
    blob = json.dumps([verify_conjecture(k, q).to_json() for k, q in _K67_CELLS],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == _K67_SHA256


def test_chern_layers_import_without_numpy_or_scipy():
    # the Schubert, Chern and bounds layers run in Python ints; numpy and
    # scipy are the rank engine's, and importing them would cost every
    # chern and bounds command
    code = ("import sys, bggx.bgg, bggx.bounds, bggx.schur, bggx.series; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


_RANK_ENGINE_RUN = """
import random, sys
import numpy as np
import bggx.cli
from bggx import complexes, models
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
before = set(sys.modules)
models.theorem_battery(q_values=(3,), n_w=2, seed=1)
dat, W = models.curves_product_model()
moved = W.times([[1, 0, 0], [1, 1, 0], [-1, 1, 1]])
complexes.e2_table(dat, moved, 2)
# every row leads at column 0 and every column at row 0: one pivot on
# each side, so the bound on this rank-10 block comes from _schur_rank_lb
rng = random.Random(3)
block = [rng.randint(1, 3) for _ in range(800)]
mat = complexes._canonical_csr((80, 10), [np.arange(800)], [np.array(block)])
schur_calls = []
real_schur = complexes._schur_rank_lb
complexes._schur_rank_lb = lambda *args: schur_calls.append(1) or real_schur(*args)
assert complexes._cert_rank_lb(mat, 524287, 10) == 10 and schur_calls
print(sorted(m for m in set(sys.modules) - before
             if m.split('.')[0] == 'scipy' or m.startswith(('numpy.ma', 'numpy.random'))))
"""


def test_rank_engine_imports_no_scipy_and_nothing_lazily():
    # scipy is gone from the package, and numpy.ma (np.unique without
    # return_inverse, np.setdiff1d) and numpy.random are imported on
    # first use: none of them may load inside a run's timed work
    out = subprocess.run([sys.executable, "-c", _RANK_ENGINE_RUN], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


# ------------------------------------------------------------ g-polynomials

def test_g1_matches_closed_form():
    for k in range(1, 7):
        g = chern_G_coeffs(k, 1)
        assert g.g((1,)) == g1_closed(k), k
        assert g.g(()) == 1


def test_g2_g11_match_closed_forms():
    for k in range(1, 7):
        g = chern_G_coeffs(k, 2)
        assert g.g((2,)) == g2_closed(k), k
        if k >= 2:
            assert g.g((1, 1)) == g11_closed(k), k
    # rank 1 has no two-row classes at all; the coefficient is vacuously zero
    assert chern_G_coeffs(1, 2).g((1, 1)) == 0


def test_g11_factors_with_consecutive_integer_roots():
    h, _ = hq_poly()
    for k in range(1, 7):
        center = g11_roots(k)
        beta_plus = center + Fraction(1, 2)
        beta_minus = center - Fraction(1, 2)
        assert beta_plus - beta_minus == 1
        product = (h - beta_plus) * (h - beta_minus) * Fraction(1, 2)
        assert product == g11_closed(k), k


def test_g2_discriminant_matches_c2_radicand():
    # the roots of g_2 in h are the second-Chern threshold: writing
    # g_2 = a h^2 + b h + c at a concrete q, the discriminant of the monic
    # quadratic, (b/a)^2 - 4c/a, is the exact radicand 8(q - k) - 15
    for k in range(1, 7):
        g2 = g2_closed(k)
        for q in range(k + 1, 30):
            f0, f1, f2 = (g2.evaluate(h=h, q=q) for h in (0, 1, 2))
            a = (f2 - 2 * f1 + f0) / 2
            b = f1 - f0 - a
            assert (b / a) ** 2 - 4 * f0 / a == c2_bound(q, k).radicand, (k, q)


def test_g2_leading_coefficient_is_half():
    for k in range(1, 7):
        for poly in (g2_closed(k), g11_closed(k)):
            assert poly.terms[(2, 0)] == Fraction(1, 2)


def chern_G_concrete(k, h0, q0, max_degree=2):
    """c(G) with numeric exponents, by plain powers and inversion.
    Test-local; independent of the exp/log path of chern_G_coeffs."""
    st = stable(k)
    D = max_degree
    sym2 = substitute(sym_power_chern(k, 2, D), st, D)
    sym3 = substitute(sym_power_chern(k, 3, D), st, D)
    out = GradedSeries.unit(st, D)
    for _ in range(q0):
        out = out * sym2
    inv_s = invert(chern_S(st, D))
    for _ in range(h0):
        out = out * inv_s
    return out * invert(sym3)


def test_specialization_matches_concrete_powers():
    rng = random.Random(20260819)
    sym_by_k = {k: chern_G_coeffs(k, 2) for k in range(1, 5)}
    for _ in range(100):
        k = rng.randint(1, 4)
        h0 = rng.randint(0, 7)
        q0 = rng.randint(0, 6)
        concrete = chern_G_concrete(k, h0, q0, 2)
        for lam in [(), (1,), (2,), (1, 1)]:
            if len(lam) > k:
                continue
            expect = concrete.coefficient(lam)
            got = sym_by_k[k].g(lam).evaluate(h=h0, q=q0)
            assert got == expect, (k, h0, q0, lam)


def test_gcoeffs_metadata():
    g = chern_G_coeffs(3, 2)
    assert g.valid_for_q_ge == 5
    data = g.to_json()
    assert data["k"] == 3
    assert "1,1" in data["coeffs"]
    assert data["coeffs"]["0"] == "1"
