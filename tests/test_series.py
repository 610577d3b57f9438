"""Graded Chern-class series: inverse/exp/log round trips, the Whitney
identity c(S)c(Q)=1 over a (k,q) grid, and symmetric-power tables checked
against a brute-force Chern-root expansion that shares no code with the
table builder."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

import pytest

from bggx.cli import main
from bggx.coefpoly import CoefPoly, hq_poly
from bggx.partitions import box_partitions
from bggx.schur import SchubertExpr, grassmannian, pieri_dual, stable
from bggx.series import (
    GradedSeries,
    SymChernTable,
    _sym_power_table,
    chern_Q,
    chern_S,
    exp_series,
    invert,
    log_series,
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

def pow_symbolic(s, exponent):
    """s**e for e an integer (repeated multiplication / inversion) or a
    CoefPoly symbol, realized as exp(e * log s). Test-local oracle."""
    if isinstance(exponent, int):
        base = invert(s) if exponent < 0 else s
        out = GradedSeries.unit(s.ctx, s.D)
        for _ in range(abs(exponent)):
            out = out * base
        return out
    return exp_series(log_series(s).scale(exponent))


def evaluate_coeffs(s, **assignments):
    """Substitute rational values for the symbols in CoefPoly coefficients."""
    return GradedSeries(s.ctx, s.D, [
        SchubertExpr(s.ctx, {lam: c.evaluate(**assignments) if isinstance(c, CoefPoly) else c
                             for lam, c in part.terms.items()})
        for part in s.components])


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


# sha256 of `bggx --format json chern sym --rank k --power r --max-degree D`,
# keyed (k, r, D), recorded when the tables were still built in Fraction
# arithmetic: every k, r <= 4 at D = 2, 5 and the rank of Sym^r (except the
# full (4, 4) table, which the root oracle below checks), plus the full
# Sym^2 tables at k = 5, 6.
_CHERN_SYM_SHA256 = {
    (1, 1, 1): "210cc8835e57990397cc19148bb2ba660faf49f96d4b3f29a69f099d82ed9b30",
    (1, 1, 2): "36789a37ee977812776aad5d1d11c799dda08b547da88400bc745c9015f9f0db",
    (1, 1, 5): "69d59794449cd2c428f8aac2d96490a67939de7ad6af6b6e8d8156a094afc8bc",
    (1, 2, 1): "7b739392cc12464ac90027fa9cfe13d6349be791661989e5367229cdb8bbd7fc",
    (1, 2, 2): "5cb9b4bcd2ebf51ce49971cfd8aaa545395ef91b68d45a08056814df7947a899",
    (1, 2, 5): "660477be824ed14375707227871a6b8d8f8cb89e9202e1f086d00a4972d40730",
    (1, 3, 1): "113e4be9e44baaed25d42b68c549787ee438aa7a0a38ee32674dedf85dd5df06",
    (1, 3, 2): "615838d8aaed4ca6d721fda46cf016c3dfff26672e500b42c243a62b4408422b",
    (1, 3, 5): "0d562daafd2acab52aa397891e7b598e34339a8ae5bdf67bd50626940e3384ed",
    (1, 4, 1): "928f7c387a37de922185e8b14632faa0bda346762fcca0dab7516826a05cf9bd",
    (1, 4, 2): "e6139408480a61a1bbfca9c94aa07214fdc0300e3bee416cfded1cb387d246cb",
    (1, 4, 5): "76348671506ca0520b85f03f6567197167d17c586d1bc0912a9e6a3f2f5a7f95",
    (2, 1, 2): "668e95f7bb2c3ef20578cdef7a1c5ffbcdcabec04b3f9ba84a6e17666aa9be20",
    (2, 1, 5): "f960afdb099d5f219aef836fa098bfdecf9fb318b14ed18c6e8bb5c910ea018c",
    (2, 2, 2): "ac867dcfc9dcb495822ddfff99c1100020072511544d98f46fa86585bfb8a85d",
    (2, 2, 3): "6067c524f724f9aee77af6b9a638052b1f852aff5ba962a07b088ee0ccd01bf3",
    (2, 2, 5): "e89e2a9a704b2b2ad390b203262db452c5d6828d403f97f63b36a71c44275254",
    (2, 3, 2): "5f23c848586f492c670159aa10c0b1fccc35f3efbd30edb843764b78348b533e",
    (2, 3, 4): "684fb8d78f93af27532b28618cf9cdc113c3d779d49c381140565e9aa0c1ab15",
    (2, 3, 5): "60fcd3b7ec4c8df13aa06d5cccb9f8a2681261fc148c4126e00fbd5c25bd8832",
    (2, 4, 2): "f38290e6a9ece856ac38865b9d61369c652ef7102be8aa75b9c6f9693562510d",
    (2, 4, 5): "b33567c667a9c82fc34a958c4010e100d21017c682e02c6ca5b0dd548aa8626f",
    (3, 1, 2): "bc03dd347ae9626e779fa664e0a4600538ba132c444174c58dddfc590b31ea96",
    (3, 1, 3): "bca870b88040ac16946fe22d2e4e8b8e7d1840a74bb0c9a3f81cc65a677d7a45",
    (3, 1, 5): "54b2789aa4ca76e292e71983933b09c5a067c8a03894cc5e9550d81dc56eadc9",
    (3, 2, 2): "b5678109db5f7fe52c355eeb9dc5549c2a0e4c89f1f7e883833fad747b07c3f6",
    (3, 2, 5): "b925f87f7161e5773706c511544d49e73caefe1e03cac0dece4696202e40b671",
    (3, 2, 6): "723e465d0f43d9f941371319c93a43c9caaeaa0e7159ed555b5233c6f1967667",
    (3, 3, 2): "3b7ee905cc9a859b849d83759829a7bd849e7131d6830b5795bf268b773e10a0",
    (3, 3, 5): "234e5d28914cbf1c4b5f3de2631d7f345e4c529f2b0ce5587a890cc8d743563a",
    (3, 3, 10): "1621d023c3ff0334fa39764c719a47ff04be0536198c370626645db3f52d4b61",
    (3, 4, 2): "1dbe875a0daa5bf0de8c3c164dc490bebff68c07748a874000a3fd81c46c9df6",
    (3, 4, 5): "731faf97103b9306d9f69fbb535046d59fc6a51df46542b11af169a10ba07224",
    (3, 4, 15): "bb7a3cee240647a5784b0cac63e5a369013d528493803b882e9ae903329d9589",
    (4, 1, 2): "f552028fe067f0119f10c79b1600e3eaa85ee4cf02a269911844928b989697f8",
    (4, 1, 4): "7873df5da59d1e9f2e4b0c9a43c4b0be9af1ccc7ca0508d532099797b7d10473",
    (4, 1, 5): "3b6bd1c1fc3fec00e92547c5ff2b3f9d51e9fc3c88a7f303cc5d40587b7ccefc",
    (4, 2, 2): "db9c76dcc42e3829ec28b9494a05fda9d51e8750915e88001543f5e63c4bb889",
    (4, 2, 5): "a24a6a215251f5ce2ecbcec9d1c5fabf02d0f90ae7ca24dcb350a3d0dd480454",
    (4, 2, 10): "b0953d3b79f8905e3139df851fec92eaf3a2766e9501c4572c7814308ebc4e31",
    (4, 3, 2): "9cb50bf086906fae26dde89ca4dc5170bc6a8de3dc513e624569284deee7ccff",
    (4, 3, 5): "e39e8902a9c349d076e3fb9e6afed25e6b708bbe905813a1c912e972ea1f0d70",
    (4, 3, 20): "0c651f84dd928dbf2aa80bc0cde96b2f662ecc77989ed19317c2629af1377da3",
    (4, 4, 2): "46b9e2e16f51c8b2d845c1fe168058cc36678b892977ca11c871321639ca956c",
    (4, 4, 5): "02b78bfcc8d0f86d5bb124bf72b5ef975cc4c4d150f9f6b256fbe34d4b40679c",
    (5, 2, 15): "c6c71f2b09d0f8a99b61c326ef5b071e5de594f5531494dd20131e45353962b5",
    (6, 2, 21): "61d1cfa97aee7e7c240a0ef7a4df32f8c1248d16efea436cd22c9fc0b5d3ad6e",
}


def test_chern_sym_json_matches_recorded_digests():
    for (k, r, D), digest in _CHERN_SYM_SHA256.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["--format", "json", "chern", "sym", "--rank", str(k),
                         "--power", str(r), "--max-degree", str(D)])
        assert code == 0, (k, r, D)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, (k, r, D)
        table = sym_power_chern(k, r, D)
        assert all(isinstance(c, Fraction) for part in table.entries for c in part.values())


def elementary_at(x):
    """e_0..e_k of the integers x, from prod (1 + x_i t)."""
    e = [1]
    for xi in x:
        e = [a + xi * b for a, b in zip(e + [0], [0] + e)]
    return e


def sym_power_at(x, r):
    """Coefficients in t of prod over size-r multisets M of (1 + (sum_M x) t)."""
    poly = [1]
    for multiset in combinations_with_replacement(x, r):
        s = sum(multiset)
        poly = [a + s * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


@pytest.mark.parametrize("k, r", [(5, 3), (4, 4)])
def test_full_rank_table_matches_roots_at_integer_points(k, r):
    table = sym_power_chern(k, r)
    rank = comb(k + r - 1, r)
    assert table.D == rank
    rng = random.Random(1000 * k + r)
    points = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(3)]
    # a single nonzero root isolates the pure e_1 monomials, whose top one,
    # e_1^rank, carries the largest digit of the builder's packed keys
    points.append([2] + [0] * (k - 1))
    # Chern classes of Sym^r E are integral in the c_i(E)
    assert all(c.denominator == 1 for part in table.entries for c in part.values())
    for x in points:
        e = elementary_at(x)
        got = [sum(c.numerator * prod(e[i] ** a for i, a in enumerate(exps, start=1))
                   for exps, c in part.items())
               for part in table.entries]
        assert got == sym_power_at(x, r), (k, r, x)


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


def e_monomial_sigma(exps, ctx):
    """prod e_i^{a_i} with e_i -> c_i(S) = (-1)^i sigma_{1^i}, one pieri_dual
    per factor from the unit. Test-local; substitute() is checked against it
    below, so these values pin its sign convention."""
    expr = SchubertExpr.unit(ctx)
    for i, a in enumerate(exps, start=1):
        for _ in range(a):
            acc = SchubertExpr.zero(ctx)
            for lam, coeff in expr.terms.items():
                acc = acc + pieri_dual(lam, i, ctx).scale((-1) ** i * coeff)
            expr = acc
    return expr


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
            part = part + e_monomial_sigma(exps, ctx).scale(c)
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
