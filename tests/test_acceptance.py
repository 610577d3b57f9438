"""Acceptance gate: seven checks, one printed verdict line each.

Every check is exact; there are no tolerances anywhere.  The verdict
lines print outside pytest's capture so they stay visible in -v runs.
"""

import random
import time
from fractions import Fraction
from math import comb

import scipy.sparse as sp

from bggx import anchors, bounds, complexes, models, schur, series
from bggx.bgg import verify_conjecture
from bggx.coefpoly import CoefPoly
from bggx.partitions import box_partitions


def _report(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


def test_criterion_1_conjecture_sweep(capsys):
    start = time.perf_counter()
    reports = [verify_conjecture(k, q) for k, q in anchors.CONJECTURE_CELLS]
    elapsed = time.perf_counter() - start
    bad = [(r.k, r.q) for r in reports if not r.passed]
    warns = sum(1 for r in reports if r.status == "WARN")
    boundary_only = all(r.q == r.k + 1 for r in reports if r.status == "WARN")
    ok = not bad and boundary_only and elapsed <= 300
    _report(
        capsys,
        ok,
        "criterion 1 (conjecture sweep)",
        f"{len(reports)} staircase cells, {warns} boundary warns, {elapsed:.1f}s",
    )
    assert not bad, bad
    assert boundary_only
    assert elapsed <= 300, elapsed


def test_criterion_2_g_polynomials(capsys):
    start = time.perf_counter()
    bad = anchors.g_poly_failures()
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        not bad,
        "criterion 2 (g polynomials)",
        f"closed forms and integer-root factorization k=1..6, {elapsed:.1f}s",
    )
    assert not bad, bad


def test_criterion_3_curves_example(capsys):
    start = time.perf_counter()
    _, _, table = anchors.curves_table()
    elapsed = time.perf_counter() - start
    bad = anchors.curves_failures(table)
    _report(
        capsys,
        not bad and elapsed < 1.0,
        "criterion 3 (curves example)",
        ", ".join(f"{name} = {got}" for name, got, _ in anchors.curves_anchors(table))
        + f", {elapsed:.2f}s",
    )
    assert not bad, bad
    assert elapsed < 1.0, elapsed


def test_criterion_4_exactness_battery(capsys):
    start = time.perf_counter()
    report = models.theorem_battery(
        q_values=(2, 3, 4, 5, 6), n_w=20, seed=anchors.DEFAULT_SEED, include_full_space=True
    )
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed <= 120
    _report(
        capsys,
        ok,
        "criterion 4 (exactness battery)",
        f"q=2..6, 20 W per cell: {report.checked} checked,"
        f" {report.trivial} trivial targets, {report.full_space_checked}"
        f" full-space columns, {elapsed:.1f}s",
    )
    assert report.passed, report.failures[:3]
    assert elapsed <= 120, elapsed


def test_criterion_5_identity_and_bound_algebra(capsys):
    start = time.perf_counter()
    checked, bad = anchors.combin_failures(30)
    variables = ("k", "q")
    kv = CoefPoly.variable("k", variables)
    qv = CoefPoly.variable("q", variables)
    half = Fraction(1, 2)
    lhs = (qv - kv) * (qv - kv - 1) * half + kv * qv - kv * (kv + 1) * half
    if lhs != qv * (qv - 1) * half:
        bad.append("rank identity binom(q-k,2)+kq-binom(k+1,2)")
    lhs = kv * (qv * 2 - kv * 3 - 1) * half + kv * qv - kv * (kv + 1) * half
    if lhs != kv * qv * 2 - kv * (kv * 2 + 1):
        bad.append("rank identity k(2q-3k-1)/2+kq-binom(k+1,2)")
    for d in range(1, 11):
        for q in range(41):
            family = [2 * kp * q - comb(2 * kp + 1, 2) for kp in range(1, d)]
            expected = max(0, *family) if family else 0
            if bounds.thm11_bound(d, q).value != expected:
                bad.append(f"piecewise h20 (d={d}, q={q})")
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        not bad,
        "criterion 5 (identity and bound algebra)",
        f"{checked} combin pairs, 2 symbolic identities, 410 grid cells, {elapsed:.1f}s",
    )
    assert not bad, bad[:5]
    assert elapsed < 1.0, elapsed


def _random_expr(ctx, rng):
    box = list(box_partitions(ctx.k, ctx.width))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        lam = box[rng.randrange(len(box))]
        terms[lam] = terms.get(lam, 0) + rng.randint(-3, 3)
    return schur.SchubertExpr(ctx, terms)


def test_criterion_6_ring_property_suite(capsys):
    start = time.perf_counter()
    bad = []
    rng = random.Random(anchors.DEFAULT_SEED)
    for k, q in ((2, 5), (3, 7)):
        ctx = schur.grassmannian(k, q)
        for trial in range(200):
            a, b, c = (_random_expr(ctx, rng) for _ in range(3))
            ab = schur.multiply(a, b)
            if ab != schur.multiply(b, a):
                bad.append(f"commutativity Gr({k},{q}) trial {trial}")
            if schur.multiply(ab, c) != schur.multiply(a, schur.multiply(b, c)):
                bad.append(f"associativity Gr({k},{q}) trial {trial}")
        top = (ctx.width,) * ctx.k
        for lam in box_partitions(ctx.k, ctx.width):
            pairing = schur.class_product(lam, schur.complement(lam, ctx), ctx)
            if pairing.coefficient(top) != 1:
                bad.append(f"duality pairing Gr({k},{q}) at {lam}")
    ctx = schur.grassmannian(3, 8)
    small = list(box_partitions(3, 5, max_size=4))
    for lam in small:
        for mu in small:
            product = schur.class_product(lam, mu, ctx)
            degree = sum(lam) + sum(mu)
            for nu in box_partitions(3, 5, min_size=degree, max_size=degree):
                if product.coefficient(nu) != schur.lr_coefficient(lam, mu, nu):
                    bad.append(f"LR oracle at {lam} * {mu} -> {nu}")
    for q in range(2, 11):
        for k in range(1, q):
            ctx = schur.grassmannian(k, q)
            whitney = series.chern_S(ctx) * series.chern_Q(ctx)
            if whitney != series.GradedSeries.unit(ctx, ctx.k * ctx.width):
                bad.append(f"c(S)c(Q) != 1 in Gr({k},{q})")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed <= 60
    _report(
        capsys,
        ok,
        "criterion 6 (ring property suite)",
        f"400 random triples, duality pairings, LR oracle {len(small)}^2 pairs,"
        f" Whitney check 1<=k<q<=10, {elapsed:.1f}s",
    )
    assert not bad, bad[:5]
    assert elapsed <= 60, elapsed


def test_criterion_7_complex_well_formedness(capsys):
    start = time.perf_counter()
    bad = []
    rng = random.Random(anchors.DEFAULT_SEED)
    built = []
    for q in (2, 3, 4):
        datum = models.abelian_model(q)
        for r in range(1, q + 1):
            for j in range(q + 1):
                W = models.random_subspace(q, rng.randint(1, q), rng)
                built.append((f"abelian q={q} r={r} j={j}", complexes.build_complex(datum, W, r, j)))
    curves, W0 = models.curves_product_model()
    for j in range(3):
        built.append((f"curves r=2 j={j}", complexes.build_complex(curves, W0, 2, j)))
    for name, c in built:
        for i in range(len(c.term_dims) - 2):
            later, earlier = (
                sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
                for m in (c.maps[i + 1], c.maps[i])
            )
            product = later @ earlier
            product.eliminate_zeros()
            if product.nnz:
                bad.append(f"composition-zero fails: {name} step {i}")
        homology = complexes.homology_dims(c)
        euler_terms = sum((-1) ** i * dim for i, dim in enumerate(c.term_dims))
        euler_homology = sum((-1) ** i * h for i, h in enumerate(homology))
        if euler_terms != euler_homology:
            bad.append(f"Euler identity fails: {name}")
    baseline = complexes.e2_table(curves, W0, 2)
    changes = 0
    while changes < 100:
        g = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        try:
            moved = W0.times(g)
        except ValueError:
            continue  # singular draw, not a basis change
        changes += 1
        if complexes.e2_table(curves, moved, 2) != baseline:
            bad.append(f"basis-change variance at draw {changes}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed <= 60
    _report(
        capsys,
        ok,
        "criterion 7 (complex well-formedness)",
        f"{len(built)} built complexes, composition-zero and Euler,"
        f" 100 basis changes on curves, {elapsed:.1f}s",
    )
    assert not bad, bad[:5]
    assert elapsed <= 60, elapsed
