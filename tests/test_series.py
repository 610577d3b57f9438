"""Graded Chern-class series: inverse/exp/log round trips, the Whitney
identity c(S)c(Q)=1 over a (k,q) grid, and symmetric-power tables checked
against a brute-force Chern-root expansion that shares no code with the
table builder."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from bggx.coefpoly import hq_poly
from bggx.partitions import box_partitions
from bggx.schur import SchubertExpr, grassmannian, pieri_dual, stable
from bggx.series import (
    GradedSeries,
    SymChernTable,
    _sym_power_table,
    chern_Q,
    chern_S,
    e_monomial_sigma,
    evaluate_coeffs,
    exp_series,
    invert,
    log_series,
    pow_symbolic,
    substitute,
    sym_power_chern,
)


# ---------------------------------------------------------------- oracle

def roots_product(k, r, D):
    """Expand prod over size-r multisets of (1 + x_{i1} + ... + x_{ir})
    directly in Q[x_1..x_k], through degree D. Test-local; independent of
    the table code."""
    poly = {(0,) * k: 1}
    for multiset in combinations_with_replacement(range(k), r):
        factor = {(0,) * k: 1}
        for i in multiset:
            e = [0] * k
            e[i] = 1
            key = tuple(e)
            factor[key] = factor.get(key, 0) + 1
        new = {}
        for e1, c1 in poly.items():
            for e2, c2 in factor.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) <= D:
                    new[e] = new.get(e, 0) + c1 * c2
        poly = {e: c for e, c in new.items() if c}
    return poly


def elementary_in_roots(i, k):
    out = {}
    from itertools import combinations

    for sub in combinations(range(k), i):
        e = [0] * k
        for s in sub:
            e[s] = 1
        out[tuple(e)] = 1
    return out


def table_as_root_poly(table):
    """Substitute e_i -> elementary symmetric polynomial and re-expand."""
    k = table.k
    total = {}
    for slice_ in table.entries:
        for exps, c in slice_.items():
            term = {(0,) * k: Fraction(c)}
            for i, a in enumerate(exps, start=1):
                for _ in range(a):
                    new = {}
                    for e1, c1 in term.items():
                        for e2, c2 in elementary_in_roots(i, k).items():
                            e = tuple(x + y for x, y in zip(e1, e2))
                            new[e] = new.get(e, 0) + c1 * c2
                    term = new
            for e, c2 in term.items():
                s = total.get(e, 0) + c2
                if s:
                    total[e] = s
                else:
                    total.pop(e, None)
    return total


# ------------------------------------------------------------ chern S, Q

def test_chern_classes_whitney_identity():
    for q in range(2, 11):
        for k in range(1, q):
            ctx = grassmannian(k, q)
            prod = chern_S(ctx) * chern_Q(ctx)
            assert prod == GradedSeries.unit(ctx, ctx.k * ctx.width), (k, q)


def test_chern_S_explicit():
    ctx = grassmannian(2, 5)
    s = chern_S(ctx)
    assert s.coefficient(()) == 1
    assert s.coefficient((1,)) == -1
    assert s.coefficient((1, 1)) == 1
    assert s.coefficient((2,)) == 0


def test_chern_Q_is_inverse_of_chern_S():
    for k, q in [(1, 3), (2, 5), (3, 7)]:
        ctx = grassmannian(k, q)
        assert invert(chern_S(ctx)) == chern_Q(ctx)


# --------------------------------------------------------- random series

def random_unit_series(ctx, D, rng):
    terms = {(): 1}
    for lam in box_partitions(ctx.k, ctx.width, min_size=1, max_size=D):
        if rng.random() < 0.4:
            c = rng.randint(-4, 4)
            if c:
                terms[lam] = c
    return GradedSeries.from_terms(ctx, D, terms)


def test_exp_log_and_double_inverse_round_trips():
    rng = random.Random(97)
    ctx_small = grassmannian(2, 5)
    ctx_big = grassmannian(3, 7)
    for trial in range(200):
        ctx = ctx_big if trial % 10 == 0 else ctx_small
        s = random_unit_series(ctx, 6, rng)
        assert exp_series(log_series(s)) == s
        assert invert(invert(s)) == s


def test_log_of_product_is_sum_of_logs():
    rng = random.Random(11)
    ctx = grassmannian(2, 5)
    for _ in range(20):
        s = random_unit_series(ctx, 6, rng)
        t = random_unit_series(ctx, 6, rng)
        assert log_series(s * t) == log_series(s) + log_series(t)


def test_log_exp_trivial_cases():
    ctx = grassmannian(2, 4)
    one = GradedSeries.unit(ctx, 4)
    zero = GradedSeries(ctx, 4)
    assert log_series(one) == zero
    assert exp_series(zero) == one
    assert invert(one) == one


def test_preconditions_raise():
    ctx = grassmannian(2, 4)
    not_unit = GradedSeries.from_terms(ctx, 4, {(): 2})
    with pytest.raises(ValueError):
        invert(not_unit)
    with pytest.raises(ValueError):
        log_series(not_unit)
    with pytest.raises(ValueError):
        exp_series(GradedSeries.unit(ctx, 4))
    with pytest.raises(ValueError):
        sym_power_chern(2, 2, -1)


# ------------------------------------------------------- symbolic powers

def test_pow_symbolic_integer_matches_repeated_multiplication():
    rng = random.Random(5)
    ctx = grassmannian(2, 5)
    s = random_unit_series(ctx, 6, rng)
    acc = GradedSeries.unit(ctx, 6)
    for n in range(0, 7):
        assert pow_symbolic(s, n) == acc
        acc = acc * s
    assert pow_symbolic(s, -2) == invert(s) * invert(s)


def test_pow_symbolic_substitution_matches_concrete_power():
    _, q = hq_poly()
    ctx = grassmannian(2, 6)
    base = chern_Q(ctx, 5)
    sym = pow_symbolic(base, q)
    assert evaluate_coeffs(sym, h=0, q=5) == pow_symbolic(base, 5)
    assert evaluate_coeffs(sym, h=0, q=0) == GradedSeries.unit(ctx, 5)


# ------------------------------------------------- symmetric power table

def test_table_matches_root_expansion_brute_force():
    cases = [(k, r, min(4, comb(k + r - 1, r))) for k in range(1, 4) for r in range(1, 5)]
    for k, r, D in cases + [(4, 2, 10), (4, 3, 6), (5, 2, 6)]:
        table = sym_power_chern(k, r, D)
        assert table_as_root_poly(table) == roots_product(k, r, D), (k, r, D)


def test_table_on_equal_roots_is_a_power():
    # E = L^{+k}: e_i -> C(k,i) x^i, and Sym^2 E is C(k+1,2) copies of L^2
    for k in (5, 6):
        n = comb(k + 1, 2)
        table = sym_power_chern(k, 2)
        assert table.D == n
        for d, slice_ in enumerate(table.entries):
            got = 0
            for exps, c in slice_.items():
                for i, a in enumerate(exps, start=1):
                    c *= comb(k, i) ** a
                got += c
            assert got == comb(n, d) * 2**d, (k, d)


def test_table_r1_is_chern_class_itself():
    table = sym_power_chern(3, 1)
    for d in range(0, 4):
        e = [0] * 3
        if d:
            e[d - 1] = 1
        assert table.entries[d] == {tuple(e): 1}


def test_table_degree_one_entries():
    # one Chern root scaled by r for a line bundle
    for r in range(1, 6):
        t = sym_power_chern(1, r)
        assert t.entries[1] == {(1,): r}
    # degree-1 coefficient binom(k+r-1, k) in general
    for k in range(1, 5):
        for r in (2, 3):
            t = sym_power_chern(k, r, 2)
            e1 = tuple([1] + [0] * (k - 1))
            assert t.entries[1] == {e1: comb(k + r - 1, k)}
    assert sym_power_chern(2, 2, 1).entries[1] == {(1, 0): 3}
    assert sym_power_chern(3, 3, 1).entries[1] == {(1, 0, 0): 10}


def test_table_splitting_two_line_bundles():
    # rank 2: Sym^2(a + b) has roots 2a, a+b, 2b
    table = sym_power_chern(2, 2)
    got = table_as_root_poly(table)
    # explicit product (1+2a)(1+a+b)(1+2b)
    a, b = (1, 0), (0, 1)
    poly = {(0, 0): 1}
    for factor in [{(0, 0): 1, a: 2}, {(0, 0): 1, a: 1, b: 1}, {(0, 0): 1, b: 2}]:
        new = {}
        for e1, c1 in poly.items():
            for e2, c2 in factor.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                new[e] = new.get(e, 0) + c1 * c2
        poly = new
    assert got == poly


def test_table_zero_above_rank():
    table = sym_power_chern(2, 2, 5)
    assert all(not table.entries[d] for d in range(4, 6))
    assert table.entries[3]  # top Chern class of a rank-3 bundle


def test_table_truncates_and_pads_the_full_table():
    for k, r in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        full = sym_power_chern(k, r)
        rank = comb(k + r - 1, r)
        assert full.D == rank
        for D in (0, 1, rank - 1, rank, rank + 1, rank + 4):
            table = sym_power_chern(k, r, D)
            expect = SymChernTable(k, r, D, full.entries[: D + 1] + [{}] * (D - rank))
            assert table.D == D, (k, r, D)
            assert table.entries == expect.entries, (k, r, D)
            assert table.to_json() == expect.to_json(), (k, r, D)


def test_table_cache_is_keyed_on_the_capped_degree():
    # the repro sweep (k = 2..4, q <= 12) asks for 27 degrees D = k(q-k),
    # which cap at min(D, rank of Sym^2) to 7 distinct tables
    _sym_power_table.cache_clear()
    for k in (2, 3, 4):
        for q in range(k + 1, 13):
            sym_power_chern(k, 2, k * (q - k))
    info = _sym_power_table.cache_info()
    assert (info.misses, info.hits) == (7, 20)


# ----------------------------------------------------------- substitution

def test_substitute_r1_gives_chern_S():
    for k, q in [(1, 4), (2, 5), (3, 6)]:
        ctx = grassmannian(k, q)
        assert substitute(sym_power_chern(k, 1), ctx) == chern_S(ctx)


def test_substitute_line_bundle_powers():
    # k=1: Sym^r S is the line bundle S^r, so c = 1 - r sigma_1 and nothing else
    ctx = grassmannian(1, 5)
    s = substitute(sym_power_chern(1, 3), ctx)
    assert s.coefficient(()) == 1
    assert s.coefficient((1,)) == -3
    for d in range(2, 5):
        assert s.coefficient((d,)) == 0


def test_substitute_sym2_degree_one():
    ctx = grassmannian(2, 5)
    s = substitute(sym_power_chern(2, 2), ctx)
    assert s.coefficient((1,)) == -3


def test_e_monomial_sign_convention():
    ctx = grassmannian(2, 5)
    assert e_monomial_sigma((1, 0), ctx) == SchubertExpr.single(ctx, (1,), -1)
    assert e_monomial_sigma((0, 1), ctx) == SchubertExpr.single(ctx, (1, 1), 1)
    # e_1^2 = sigma_1^2 = sigma_2 + sigma_{1,1}
    sq = e_monomial_sigma((2, 0), ctx)
    assert sq == SchubertExpr(ctx, {(2,): 1, (1, 1): 1})


def unit_started_expansion(table, ctx, D):
    """substitute() the way it was first written: every e-monomial multiplied
    out from the unit by one pieri_dual per factor, then scaled and summed."""
    comps = []
    for d in range(D + 1):
        part = SchubertExpr.zero(ctx)
        for exps, c in (table.entries[d].items() if d < len(table.entries) else ()):
            expr = SchubertExpr.unit(ctx)
            for i, a in enumerate(exps, start=1):
                for _ in range(a):
                    acc = SchubertExpr.zero(ctx)
                    for lam, coeff in expr.terms.items():
                        acc = acc + pieri_dual(lam, i, ctx).scale(coeff)
                    expr = acc
            part = part + expr.scale((-1) ** d * c)
        comps.append(part)
    return GradedSeries(ctx, D, comps)


def test_substitute_matches_unit_started_expansion():
    for k in range(1, 5):
        for r in (1, 2):
            for ctx, D in [(grassmannian(k, k + 1), None), (grassmannian(k, k + 3), None),
                           (grassmannian(k, 2 * k + 2), None), (stable(k), 6)]:
                D = k * ctx.width if D is None else D
                table = sym_power_chern(k, r, D)
                expect = unit_started_expansion(table, ctx, D)
                assert substitute(table, ctx, D) == expect, (k, r, ctx, D)


def test_substitute_stable_context():
    st = stable(2)
    s = substitute(sym_power_chern(2, 2), st, D=3)
    assert s.coefficient((1,)) == -3
    conc = substitute(sym_power_chern(2, 2), grassmannian(2, 9), D=3)
    assert s.terms() == conc.terms()
