"""Derivative complexes: construction, homology, invariance, faults."""

import dataclasses
import functools
import itertools
import json
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bggx import complexes
from bggx.bounds import alternating_sum
from bggx.complexes import (
    ComplexOfMatrices,
    DataError,
    HodgeDatum,
    SparseRat,
    SubspaceW,
    build_complex,
    e2_table,
    exactness_prefix,
    homology_dims,
)
from bggx.models import abelian_model, curve_datum, curves_product_model, random_subspace
from bggx.ratlinalg import LIFT_PRIMES, MOD_PRIMES, rank_exact, rank_mod


def test_sparserat_basics():
    a = SparseRat.from_dense([[1, 2], [0, "1/3"]])
    b = SparseRat.from_dense([[0, 1], [1, 0]])
    assert a.compose(b).dense() == [[2, 1], [Fraction(1, 3), 0]]
    assert a.plus(a).dense()[1][1] == Fraction(2, 3)
    assert not a.is_zero() and SparseRat((3, 2)).is_zero()
    assert a == SparseRat((2, 2), {(0, 0): 1, (0, 1): 2, (1, 1): Fraction(1, 3)})
    with pytest.raises(ValueError):
        SparseRat((2, 2), {(2, 0): 1})
    with pytest.raises(ValueError):
        a.compose(SparseRat((3, 1), {}))


def test_subspace_validation_and_basis_change():
    with pytest.raises(ValueError):
        SubspaceW([[1, 2], [2, 4]])  # dependent columns
    with pytest.raises(ValueError):
        SubspaceW([[1, 0], [0, 1], [1, 1]])  # k > q
    V = SubspaceW.full_space(3)
    assert V.k == V.q == 3
    W = SubspaceW([["1/2", 1, 0], [0, 1, 1]])
    assert W.k == 2 and W.q == 3
    half = Fraction(1, 2)
    assert SubspaceW([[half, 1, 0], [0, 1, 1]]).columns[0][0] is half  # kept as given
    same = W.times([[1, 0], [0, 1]])
    assert same.columns == W.columns
    doubled = W.times([[2, 0], [0, 2]])
    assert doubled.columns[0][0] == 1
    with pytest.raises(ValueError):
        W.times([[1, 1], [1, 1]])  # singular
    with pytest.raises(ValueError):
        W.times([[1], [1]])  # not k x k
    rt = SubspaceW.from_json(W.to_json())
    assert rt.columns == W.columns


def test_hodge_datum_validation():
    ab = abelian_model(2)
    assert ab.check_anticommutation() is None
    with pytest.raises(DataError):
        HodgeDatum(2, 2, [[0, 1, 1]] * 3, {})  # h00 = 0
    with pytest.raises(DataError):
        HodgeDatum(2, 2, [[1, 1, 1], [3, 1, 1], [1, 1, 1]], {})  # h10 != q
    with pytest.raises(DataError):
        HodgeDatum(2, 2, [[1, 1], [2, 1]], {})  # wrong table shape
    dims = [[1, 2, 1], [2, 4, 2], [1, 2, 1]]
    with pytest.raises(DataError):
        HodgeDatum(2, 2, dims, {(3, 0, 0): SparseRat((2, 1), {})})  # a out of range
    with pytest.raises(DataError):
        HodgeDatum(2, 2, dims, {(1, 0, 0): SparseRat((3, 1), {})})  # bad shape
    # numbers are read exactly, never truncated
    with pytest.raises(DataError):
        HodgeDatum(1, 1, [[1, 1.9], [1, 1]], {})
    with pytest.raises(DataError):
        HodgeDatum(1.5, 1, [[1, 1], [1, 1]], {})
    with pytest.raises(DataError):
        HodgeDatum(2, 2, dims, {(1, 0.5, 0): SparseRat((2, 1), {})})
    assert HodgeDatum(1.0, 1, [[1, 1.0], [1, 1]], {}).dims == ((1, 1), (1, 1))


@st.composite
def _curves(draw, rational=False):
    """curve_datum(g, P) for g in 1..3 and a random invertible P.

    P has integer entries in [-3, 3], or with rational=True fractions
    there with denominators up to 3.
    """
    g = draw(st.integers(1, 3))
    entry = st.fractions(-3, 3, max_denominator=3) if rational else st.integers(-3, 3)
    row = st.lists(entry, min_size=g, max_size=g)
    pairing = draw(st.lists(row, min_size=g, max_size=g))
    assume(rank_exact(pairing) == g)
    return curve_datum(g, pairing)


def _convolve(a, b):
    out = [[0] * (len(a) + len(b) - 1) for _ in range(len(a) + len(b) - 1)]
    for (i1, row1), (i2, row2) in itertools.product(enumerate(a), enumerate(b)):
        for (j1, x), (j2, y) in itertools.product(enumerate(row1), enumerate(row2)):
            out[i1 + i2][j1 + j2] += x * y
    return tuple(map(tuple, out))


@settings(max_examples=25, deadline=None)
@given(factors=st.lists(_curves(), min_size=2, max_size=3))
def test_tensor_of_curves_anticommutes_with_convolved_dims(factors):
    product, dims = factors[0], factors[0].dims
    for factor in factors[1:]:
        product, dims = product.tensor(factor), _convolve(dims, factor.dims)
    assert product.check_anticommutation() is None
    assert product.dims == dims
    assert product.d == len(factors)
    assert product.dims[1][0] == product.q == sum(f.q for f in factors)


def test_hodge_datum_json_round_trip_dense_and_sparse():
    dat = abelian_model(5)  # largest action blocks exceed the dense cutoff
    js = dat.to_json()
    forms = {("matrix" in item, "entries" in item) for item in js["action"]}
    assert (True, False) in forms and (False, True) in forms
    rt = HodgeDatum.from_json(js)
    assert rt.dims == dat.dims and rt.d == dat.d and rt.q == dat.q
    assert set(rt.action) == set(dat.action)
    for key, mat in dat.action.items():
        assert rt.action[key] == mat
    with pytest.raises(DataError):
        HodgeDatum.from_json({"d": 2, "q": 2, "dims": "nope"})


def _json_round_trip(datum):
    return HodgeDatum.from_json(json.loads(json.dumps(datum.to_json())))


def _assert_same_datum(got, want):
    assert (got.d, got.q, got.dims) == (want.d, want.q, want.dims)
    assert got.action.keys() == want.action.keys()
    for key, mat in want.action.items():
        assert got.action[key] == mat, key


def _encodings(datum):
    """The encodings datum.to_json() uses for its action items.

    Each item is checked against its size: "matrix" up to 1600 cells,
    "entries" past that.
    """
    out = set()
    for item in datum.to_json()["action"]:
        m, n = datum.action[(item["a"], item["i"], item["j"])].shape
        assert ("matrix" in item) == (m * n <= 1600) != ("entries" in item)
        out.add("matrix" if "matrix" in item else "entries")
    return out


@settings(max_examples=30, deadline=None)
@given(factors=st.lists(_curves(rational=True), min_size=2, max_size=3))
def test_curve_products_survive_a_json_round_trip(factors):
    product = functools.reduce(HodgeDatum.tensor, factors)
    _encodings(product)
    _assert_same_datum(_json_round_trip(product), product)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_abelian_models_survive_a_json_round_trip(q):
    datum = abelian_model(q)
    assert _encodings(datum) == {"matrix"}
    _assert_same_datum(_json_round_trip(datum), datum)


def test_json_round_trip_of_both_encodings():
    # C_3 x C_3 x C_3 has action matrices on both sides of 1600 cells
    curve = curve_datum(3, [[1, "1/2", 0], [0, 2, -1], [3, 0, "-5/3"]])
    product = curve.tensor(curve).tensor(curve)
    assert _encodings(product) == {"matrix", "entries"}
    _assert_same_datum(_json_round_trip(product), product)


def _csr(a) -> complexes.Csr:
    """a, anything scipy's csr_matrix accepts, as a Csr with scipy's arrays."""
    mat = sp.csr_matrix(a)
    return complexes.Csr(mat.shape, mat.indptr, mat.indices, mat.data)


def _scipy(mat: complexes.Csr) -> sp.csr_matrix:
    """A Csr as a scipy matrix, the oracle for products and comparisons."""
    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def _map_dense(c, i):
    """Exact rational entries of the i-th differential of one summand of c."""
    s = c.map_scales[i]
    return [[x * s for x in row] for row in _scipy(c.maps[i]).toarray().tolist()]


def test_build_complex_abelian_small():
    dat = abelian_model(2)
    W = SubspaceW([[1, 1]])
    c = build_complex(dat, W, 2, 0)
    assert c.term_dims == (1, 2, 1)
    assert len(c.term_dims) == 3
    assert homology_dims(c) == (0, 0, 0)
    # r=1 is the plain evaluation W (x) H^j(O) -> H^j(Omega^1)
    c1 = build_complex(dat, SubspaceW([["1/2", "1/3"]]), 1, 0)
    assert c1.term_dims == (1, 2)
    assert _map_dense(c1, 0) == [[Fraction(1, 2)], [Fraction(1, 3)]]
    with pytest.raises(ValueError):
        build_complex(dat, SubspaceW([[1, 0, 0]]), 2, 0)  # wrong q
    with pytest.raises(ValueError):
        build_complex(dat, W, 0, 0)
    with pytest.raises(ValueError):
        build_complex(dat, W, 2, 5)


def test_rational_action_scales_each_map():
    # scaling the action at each i by its own rational keeps anticommutation
    # and scales the i-th differential by the same factor
    dat = abelian_model(3)
    factor = {0: Fraction(1, 2), 1: Fraction(-5, 3), 2: Fraction(7, 4)}
    action = {
        (a, i, j): SparseRat(m.shape, {key: v * factor[i] for key, v in m.entries.items()})
        for (a, i, j), m in dat.action.items()
    }
    scaled = HodgeDatum(dat.d, dat.q, dat.dims, action)
    W = SubspaceW([["1/3", 2, -1], [0, "5/2", 1]])
    for j in (0, 2):
        plain, c = build_complex(dat, W, 3, j), build_complex(scaled, W, 3, j)
        for i in range(3):
            want = [[x * factor[i] for x in row] for row in _map_dense(plain, i)]
            assert _map_dense(c, i) == want


def test_complex_equality_compares_maps_by_value():
    dat, W = curves_product_model()
    a, b = build_complex(dat, W, 2, 0), build_complex(dat, W, 2, 0)
    assert a == b and hash(a) == hash(b)
    assert a != build_complex(dat, W, 2, 1)
    assert a != dataclasses.replace(a, maps=(_csr(2 * _scipy(a.maps[0])), a.maps[1]))
    assert a != dataclasses.replace(a, map_scales=(Fraction(1, 2), Fraction(1, 2)))
    assert a != "not a complex"


def test_zero_complex_homology():
    z = _csr((0, 0))
    c = ComplexOfMatrices(term_dims=(0, 0, 0), maps=(z, z), map_scales=(Fraction(1), Fraction(1)))
    assert homology_dims(c) == (0, 0, 0)


def test_curves_anchor_dims_homology_prefix():
    dat, W = curves_product_model()
    c = build_complex(dat, W, 2, 0)
    assert c.term_dims == (6, 18, 9)
    assert homology_dims(c) == (0, 3, 0)
    assert exactness_prefix(c) == 1
    assert exactness_prefix(c, stop_at=1) == 1


def test_truncated_assembly_serves_the_walk_up_to_stop_at():
    rng = random.Random(20261019)
    curves, W0 = curves_product_model()
    for dat, extra in [(abelian_model(3), []), (abelian_model(4), []), (curves, [W0])]:
        for W in [random_subspace(dat.q, k, rng) for k in (1, dat.q // 2 + 1)] + extra:
            for r, j in itertools.product(range(1, dat.d + 2), range(dat.d + 1)):
                full = build_complex(dat, W, r, j)
                n = len(full.maps)
                for t in range(n + 1):
                    part = build_complex(dat, W, r, j, stop_at=t)
                    assert part.term_dims == full.term_dims and part.labels == full.labels
                    assert part.map_scales == full.map_scales[:t]
                    assert len(part.maps) == t
                    for a, b in zip(part.maps, full.maps):
                        assert a.shape == b.shape and (_scipy(a) != _scipy(b)).nnz == 0
                    assert exactness_prefix(part, stop_at=t) == exactness_prefix(full, stop_at=t)
                    if t < n:
                        with pytest.raises(ValueError, match="not assembled"):
                            homology_dims(part)
                assert homology_dims(part) == homology_dims(full)
    with pytest.raises(ValueError):
        build_complex(curves, W0, 2, 0, stop_at=-1)


def test_full_space_koszul_exactness():
    dat = abelian_model(3)
    c = build_complex(dat, SubspaceW.full_space(3), 3, 0)
    h = homology_dims(c)
    assert h[:-1] == (0, 0, 0)


def test_exact_and_auto_methods_agree():
    rng = random.Random(7)
    dat = abelian_model(3)
    for _ in range(4):
        k = rng.randint(1, 3)
        W = random_subspace(3, k, rng)
        r = rng.randint(1, 3)
        j = rng.randint(0, 3)
        c = build_complex(dat, W, r, j)
        assert homology_dims(c, method="exact") == homology_dims(c, method="auto")
    with pytest.raises(ValueError):
        homology_dims(c, method="fast")


def test_euler_characteristic_identity():
    rng = random.Random(11)
    for q in (2, 3, 4):
        dat = abelian_model(q)
        for _ in range(3):
            W = random_subspace(q, rng.randint(1, q), rng)
            c = build_complex(dat, W, rng.randint(1, q), rng.randint(0, q))
            h = homology_dims(c)
            lhs = sum((-1) ** i * d for i, d in enumerate(c.term_dims))
            rhs = sum((-1) ** i * x for i, x in enumerate(h))
            assert lhs == rhs


def test_e2_table_abelian_r1():
    dat = abelian_model(2)
    t = e2_table(dat, SubspaceW([[1, 2]]), 1)
    assert all(t.entries[0][j] == 0 for j in range(3))
    assert t.hyper[0] == t.entries[0][0]
    js = t.to_json()
    assert js["r"] == 1 and js["entries"][0] == list(t.entries[0])


def _doubled_column(dat, j):
    """dat with column j taken twice: each M_a at (i, j) becomes diag(M_a, M_a)."""
    dims = [[x * (1 + (col == j)) for col, x in enumerate(row)] for row in dat.dims]
    action = {}
    for (a, i, col), mat in dat.action.items():
        if col == j:
            (m, n), ent = mat.shape, mat.entries
            mat = SparseRat((2 * m, 2 * n), {**ent, **{(r + m, c + n): v for (r, c), v in ent.items()}})
        action[(a, i, col)] = mat
    return HodgeDatum(dat.d, dat.q, dims, action)


def test_e2_table_curves_anchor():
    dat, W = curves_product_model()
    t = e2_table(dat, W, 2)
    assert t.nonzero() == [(0, 2, 37), (1, 0, 3), (1, 1, 18)]
    assert t.hyper == (0, 3, 55, 0, 0)
    # column 2 taken twice is two equal summands, each with its homology
    # at position 0, where the walk yields before the last position
    doubled = _doubled_column(dat, 2)
    assert doubled.summand(2)[0] == 2 and doubled.check_anticommutation() is None
    for r, column_2 in ((2, (37, 0, 0)), (3, (57, 0, 0))):
        once, twice = e2_table(dat, W, r), e2_table(doubled, W, r)
        assert tuple(row[2] for row in once.entries) == column_2
        assert twice.entries == tuple(row[:2] + (2 * row[2],) for row in once.entries)
    assert e2_table(doubled, W, 2).hyper == (0, 3, 92, 0, 0)


def basis_change_invariance_check(datum, W, g, r, j) -> bool:
    """Homology dims computed over W and over W.g agree (they must)."""
    base = homology_dims(build_complex(datum, W, r, j))
    changed = homology_dims(build_complex(datum, W.times(g), r, j))
    return base == changed


def test_basis_change_invariance():
    dat, W = curves_product_model()
    assert basis_change_invariance_check(dat, W, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2, 0)
    assert basis_change_invariance_check(dat, W, [[2, 0, 0], [0, 2, 0], [0, 0, 2]], 2, 1)
    rng = random.Random(3)
    for _ in range(3):
        g = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        try:
            assert basis_change_invariance_check(dat, W, g, 2, 0)
        except ValueError:
            continue  # singular draw, resample next loop
    with pytest.raises(ValueError):
        basis_change_invariance_check(dat, W, [[1, 1, 0], [1, 1, 0], [0, 0, 1]], 2, 0)


def test_echelon_basis_spans_w_and_depends_on_the_span_only():
    rng = random.Random(20261020)
    for q in range(1, 7):
        for k in range(1, q + 1):
            W = random_subspace(q, k, rng)
            E = W.echelon()
            assert (E.q, E.k) == (q, k)
            assert rank_exact([*W.columns, *E.columns]) == k
            # built without the constructor, but as the constructor builds it
            assert all(type(x) is Fraction for col in E.columns for x in col)
            assert SubspaceW(E.columns).columns == E.columns
            # reduced: column s is 1 at its pivot, 0 before it and at the
            # other pivots, and the pivots increase
            pivots = [next(a for a, x in enumerate(col) if x) for col in E.columns]
            assert pivots == sorted(set(pivots))
            for s, col in enumerate(E.columns):
                assert [col[p] for p in pivots] == [int(s == t) for t in range(k)]
            g = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            if rank_exact(g) == k:
                assert W.times(g).echelon().columns == E.columns
    assert SubspaceW([["1/2", 0, 1], [1, 1, 0]]).echelon().columns == (
        (1, 0, 2), (0, 1, -2)
    )


def test_echelon_refuses_a_basis_that_is_not_independent():
    # the constructor never lets dependent columns through; forge a W past
    # it to check that echelon counts its pivots instead of trusting them
    W = SubspaceW.__new__(SubspaceW)
    W.q, W.k = 3, 2
    W.columns = ((Fraction(1), Fraction(2), Fraction(0)), (Fraction(2), Fraction(4), Fraction(0)))
    with pytest.raises(RuntimeError, match="1 pivots for 2"):
        W.echelon()


def test_abelian_column_j_is_binomial_copies_of_column_0():
    # column 0 is one summand and is ranked whole, so it is an oracle for
    # the summand the walk ranks at column j
    rng = random.Random(20261020)
    for q in (2, 3, 4):
        dat = abelian_model(q)
        assert [dat.summand(j)[:2] for j in range(q + 1)] == [
            (comb(q, j), tuple(comb(q, i) for i in range(q + 1))) for j in range(q + 1)
        ]
        for k in range(1, q + 1):
            W = random_subspace(q, k, rng)
            for r in range(1, q + 1):
                first = build_complex(dat, W, r, 0)
                assert first.copies == 1
                h_first = homology_dims(first)
                for j in range(q + 1):
                    c = build_complex(dat, W, r, j)
                    assert c.copies == comb(q, j)
                    assert c.term_dims == tuple(comb(q, j) * d for d in first.term_dims)
                    assert homology_dims(c) == tuple(comb(q, j) * h for h in h_first), (q, k, r, j)


def test_curves_column_1_stays_whole():
    # H^1 of C_3 x C_3 has two components of different sizes
    dat, W = curves_product_model()
    assert [dat.summand(j)[0] for j in range(3)] == [1, 1, 1]
    c = build_complex(dat, W, 2, 1)
    assert c.copies == 1 and c.maps[0].shape == (20 * 3, 6 * 6)


def test_summands_that_differ_in_sign_are_not_merged():
    # column 1 holds two components x_t -> y_t; they are equal when both
    # maps are 1, and differ when one of them is -1
    def datum(sign):
        action = {(1, 0, 0): [[1]], (1, 0, 1): [[1, 0], [0, sign]]}
        return HodgeDatum(1, 1, [[1, 2], [1, 2]], action)

    W = SubspaceW([[1]])
    for sign, copies, sizes in ((1, 2, (1, 1)), (-1, 1, (2, 2))):
        dat = datum(sign)
        assert dat.summand(1)[:2] == (copies, sizes)
        c = build_complex(dat, W, 2, 1)
        assert c.copies == copies and c.term_dims == (2, 2)
        assert _scipy(c.maps[0]).toarray().tolist() == ([[2]] if sign == 1 else [[2, 0], [0, -2]])
        assert homology_dims(c) == homology_dims(c, method="exact") == (0, 0)
    # a basis vector on no edge keeps its column whole
    lone = HodgeDatum(1, 1, [[1, 3], [1, 2]], {(1, 0, 1): [[1, 0, 0], [0, 1, 0]]})
    assert lone.summand(1)[:2] == (1, (3, 2))
    assert homology_dims(build_complex(lone, W, 1, 1)) == (1, 0)


def test_abelian_homology_matches_its_koszul_closed_form():
    # C(q, j) C(q - k, r) at position r and 0 elsewhere, over every
    # k-dimensional W (see abelian_model).  W_k gives +-1 entries in many
    # small blocks, a random W dense rational maps, and its echelon basis
    # the same span once more; q = 6 takes W_k alone.  E^q, the Kunneth
    # product of an elliptic curve, is the same datum in another basis
    # (q <= 4: that basis hides the C(q, j) equal summands of column j)
    curve = curve_datum(1, [[1]])
    products = [curve]
    while len(products) < 4:
        products.append(products[-1].tensor(curve))
    rng = random.Random(20261020)
    for q in (1, 2, 3, 4, 5, 6):
        data = [abelian_model(q)] + products[q - 1 : q]
        for k in range(1, q + 1):
            spaces = [SubspaceW([[int(a == t) for a in range(q)] for t in range(k)])]
            for _ in range(2 if q <= 5 else 0):
                W = random_subspace(q, k, rng)
                spaces += [W, W.echelon()]
            for r, j in itertools.product(range(1, q + 2), range(q + 1)):
                expected = tuple(comb(q, j) * comb(q - k, r) * (i == r) for i in range(min(r, q) + 1))
                for dat, W in itertools.product(data, spaces):
                    got = homology_dims(build_complex(dat, W, r, j))
                    assert got == expected, (q, dat.metadata, k, r, j, W.columns)


def test_composition_check_is_exact_past_int64():
    # (2**32)**2 wraps to 0 in int64: the check must not take that product
    big = _csr(np.array([[2**32]], dtype=np.int64))
    assert not complexes._compose_is_zero(big, big)
    # entries near 2**40 whose products still fit: one term per entry of
    # a row of later, here 2
    later = _csr(np.array([[2**20, 2**20]], dtype=np.int64))
    earlier = _csr(np.array([[2**40], [-(2**40)]], dtype=np.int64))
    assert complexes._compose_is_zero(later, earlier)
    assert not complexes._compose_is_zero(later, _csr(3 * abs(_scipy(earlier))))
    assert complexes._compose_is_zero(later, _csr(sp.csr_matrix((2, 1), dtype=np.int64)))


def test_anticommutation_fault_is_diagnosed():
    dat = abelian_model(2)
    action = dict(dat.action)
    bad = dict(action[(1, 0, 0)].entries)
    (key, val), = list(bad.items())[:1]
    bad[key] = val + 1  # breaks M_1 o M_1 = 0 while shapes stay legal
    action[(1, 0, 0)] = SparseRat(action[(1, 0, 0)].shape, bad)
    broken = HodgeDatum(dat.d, dat.q, dat.dims, action)
    assert broken.check_anticommutation() is not None
    with pytest.raises(DataError, match=r"a=\d+, b=\d+, i=\d+, j=\d+"):
        build_complex(broken, SubspaceW([[1, 1]]), 2, 0)


def test_alternating_sum_corollary_on_computed_prefixes():
    """Whenever the prefix reaches p, the leading alternating sums are >= 0."""
    rng = random.Random(5)
    for q in (2, 3, 4):
        dat = abelian_model(q)
        for _ in range(3):
            k = rng.randint(1, q)
            W = random_subspace(q, k, rng)
            r = rng.randint(1, q)
            j = rng.randint(0, q)
            c = build_complex(dat, W, r, j)
            p = exactness_prefix(c)
            hrow = [dat.dims[i][j] for i in range(q + 1)]
            for pp in range(min(p, min(r, q)) + 1):
                assert alternating_sum(hrow, r, k, pp) >= 0, (q, k, r, j, pp)


def test_term_dims_formula():
    dat = abelian_model(4)
    W = SubspaceW([[1, 0, 0, 0], [0, 1, 1, 0]])
    for r, j in ((1, 0), (3, 2), (4, 4)):
        c = build_complex(dat, W, r, j)
        n = min(r, 4)
        expect = tuple(
            comb(r - i + 1, 1) * dat.dims[i][j] for i in range(n + 1)
        )
        assert c.term_dims == expect



def _interleaved_blocks(rng, blocks, empty_rows, empty_cols):
    """Direct sum of integer blocks plus empty rows and columns.

    Rows (and columns) of the blocks and the empty ones are shuffled
    together by a random interleaving that keeps each block's own order,
    the layout in which equal blocks are recognized as equal.
    """
    def placement(sizes, empty):
        labels = np.repeat(np.arange(-1, len(sizes)), [empty, *sizes])
        rng.shuffle(labels)
        return [np.flatnonzero(labels == b) for b in range(len(sizes))], len(labels)

    rows, m = placement([b.shape[0] for b in blocks], empty_rows)
    cols, n = placement([b.shape[1] for b in blocks], empty_cols)
    full = np.zeros((m, n), dtype=np.int64)
    for b, r, c in zip(blocks, rows, cols):
        full[np.ix_(r, c)] = b
    return _csr(full)


def _block(rng, rows, cols, rank):
    """Random integer block that is the product of rows x rank and rank x cols factors."""
    return rng.integers(-3, 4, size=(rows, rank)) @ rng.integers(-3, 4, size=(rank, cols))


def _reversed_rows(mat):
    """mat as CSR arrays whose column indices run backwards inside each row."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    order = np.lexsort((-np.arange(mat.nnz), rows))
    return complexes.Csr(mat.shape, mat.indptr, mat.indices[order], mat.data[order])


def test_block_split_certificate(monkeypatch):
    rng = np.random.default_rng(20260819)
    twin = _block(rng, 60, 12, 12)  # tall enough that the projection runs
    half = _block(rng, 60, 12, 6)  # same shape as twin, other entries
    wide = _block(rng, 4, 50, 2)
    zero = np.zeros((3, 2), dtype=np.int64)
    cases = [  # (blocks, empty rows, empty columns, distinct nonzero blocks, reversed rows)
        ([twin, twin, _block(rng, 5, 7, 3), twin, half], 4, 3, 3, False),
        ([_block(rng, 9, 9, 9), zero], 0, 5, 1, False),
        ([wide, wide, wide, _block(rng, 3, 3, 2), zero], 2, 0, 2, False),
        ([zero, zero], 2, 2, 0, False),
        ([half, twin, half, wide, twin], 3, 2, 3, True),
    ]
    ranked = []
    real_rank_mod = complexes.rank_mod

    def counting_rank_mod(a, p):
        ranked.append(np.shape(a))
        return real_rank_mod(a, p)

    monkeypatch.setattr(complexes, "rank_mod", counting_rank_mod)
    for blocks, empty_rows, empty_cols, distinct, reverse in cases:
        mat = _interleaved_blocks(rng, blocks, empty_rows, empty_cols)
        if reverse:
            mat = _reversed_rows(mat)
            assert not _scipy(mat).has_sorted_indices
        found = [
            sp.csr_matrix((data, indices, indptr), shape=shape).toarray()
            for shape, indptr, indices, data in complexes._independent_blocks(mat)
        ]
        # a block's own empty rows and columns belong to no block
        want = [b[b.any(axis=1)][:, b.any(axis=0)] for b in blocks if b.any()]
        key = lambda a: (a.shape, a.tobytes())  # noqa: E731
        assert sorted(map(key, found)) == sorted(map(key, want))
        exact = rank_exact(_scipy(mat).toarray())
        for p in MOD_PRIMES:
            for needed in (exact, exact + 40):
                ranked.clear()
                # never above rank_exact (sound), and here equal to it
                lb = complexes._cert_rank_lb(mat, p, needed)
                assert lb == exact, (mat.shape, p, needed)
                assert len(ranked) == distinct
        if blocks[0] is twin:
            assert exact == 3 * 12 + 3 + 6


def _staircase(rng, rows, cols, p, density):
    """Random sparse integer rows in shuffled, loose echelon form.

    Leading columns are drawn with repeats, half of the leading entries
    are multiples of p (so the leading entry mod p sits further right),
    tails mix small entries with multiples of p, and about one row in
    six is the sum of two others.
    """
    a = np.zeros((rows, cols), dtype=np.int64)
    for r, c in enumerate(rng.integers(0, cols, size=rows)):
        a[r, c] = rng.choice([1, -2, 3, p, -2 * p, 3 * p])
        tail = np.flatnonzero(rng.random(cols - c - 1) < density) + c + 1
        a[r, tail] = rng.choice([-3, -1, 1, 2, p, -p], size=tail.size)
    for r in np.flatnonzero(rng.random(rows) < 1 / 6):
        a[r] = a[rng.integers(0, rows)] + a[rng.integers(0, rows)]
    return a[rng.permutation(rows)]


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from((3, 7, 524287)),
    long_side=st.integers(1, 72),
    short_side=st.integers(1, 14),
    tall=st.booleans(),
    density=st.sampled_from((0.05, 0.15, 0.4)),
    needed=st.integers(0, 14),
    by_columns=st.booleans(),
)
def test_pivot_and_schur_bound_never_exceeds_exact_rank(
    seed, p, long_side, short_side, tall, density, needed, by_columns
):
    # rows in shuffled, loose echelon form, or by_columns the transpose
    # of such rows: columns in shuffled, loose column-echelon form
    rng = np.random.default_rng(seed)
    m, n = (long_side, short_side) if tall else (short_side, long_side)
    dense = _staircase(rng, n, m, p, density).T if by_columns else _staircase(rng, m, n, p, density)
    mat = _csr(dense)
    needed = min(needed, m, n)
    rank_p = rank_mod(dense, p)
    lb = complexes._cert_rank_lb(mat, p, needed)
    assert lb <= min(needed, rank_exact(dense))
    if max(m, n) <= 32:  # no block is long enough to be projected
        assert lb == min(needed, rank_p)
    # both pivot counts are bounds, and the Schur complement of the row
    # pivots, ranked without a projection whenever S has at most 32 more
    # columns than the rank sought, makes up the rest of rank_p
    block = (mat.shape, mat.indptr, mat.indices, mat.data)
    live = mat.data % p != 0
    piv_rows, piv_cols = complexes._structural_pivots(block, live)
    k = len(piv_rows)
    assert max(k, complexes._column_pivot_count(block, live)) <= rank_p
    if n <= min(m, n) + 32:
        s_rank = complexes._schur_rank_lb(block, p, min(m, n) - k, piv_rows, piv_cols)
        assert k + s_rank == rank_p


def test_pinned_block_makes_no_rank_mod_call(monkeypatch):
    calls = []

    def recording(name):
        real = getattr(complexes, name)

        def wrapper(*args):
            calls.append((name, np.shape(args[0]) if name == "rank_mod" else args[0][0]))
            return real(*args)

        monkeypatch.setattr(complexes, name, wrapper)

    recording("rank_mod")
    recording("_schur_rank_lb")
    recording("_independent_blocks")
    p = MOD_PRIMES[0]
    rng = np.random.default_rng(11)
    # 40 rows leading at distinct columns and 50 combinations of them,
    # shuffled: pinned at 40 far past the projection size (90 rows), and
    # a shuffled triangular 5 x 5 block pinned at 5.  Their transposes
    # fall short on the rows and are pinned by their column pivots.
    echelon = np.triu(rng.integers(-3, 4, size=(40, 40)), 1) + np.diag(rng.choice([-1, 1, 2], size=40))
    combos = rng.integers(-2, 3, size=(50, 40)) @ echelon
    tall = np.vstack([echelon, combos])[rng.permutation(90)]
    small = np.triu(rng.integers(1, 4, size=(5, 5)))[rng.permutation(5)]
    for block, rank, by_rows in ((tall, 40, True), (small, 5, True), (tall.T, 40, False), (small.T, 5, False)):
        mat = _csr(block)
        arrays = (mat.shape, mat.indptr, mat.indices, mat.data)
        row_pivots = complexes._structural_pivots(arrays, mat.data % p != 0)[0]
        assert (len(row_pivots) == rank) == by_rows
        assert rank_exact(block) == rank
        assert complexes._cert_rank_lb(mat, p, rank) == rank
        assert not calls
    # several blocks interleaved with empty rows and columns: the whole
    # map's row pivots pin the sum of the ranks before any split, and its
    # transpose is pinned by the whole map's column pivots
    triangle = np.triu(rng.integers(1, 4, size=(7, 7)))[rng.permutation(7)]
    mixed = _interleaved_blocks(rng, [tall, small, triangle, small], 6, 4)
    dense = _scipy(mixed).toarray()
    for mat, by_rows in ((mixed, True), (_csr(dense.T), False)):
        arrays = (mat.shape, mat.indptr, mat.indices, mat.data)
        row_pivots = complexes._structural_pivots(arrays, mat.data % p != 0)[0]
        assert (len(row_pivots) == 57) == by_rows
        assert rank_exact(dense) == 57
        assert complexes._cert_rank_lb(mat, p, 57) == 57
        assert not calls
    # a leading entry divisible by p hides its pivot on both sides:
    # split, and ranked mod p again
    small[np.flatnonzero(small[:, 0])[0], 0] = p
    assert complexes._cert_rank_lb(_csr(small), p, 5) == rank_mod(small, p)
    assert calls == [("_independent_blocks", (5, 5)), ("rank_mod", (5, 5))]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from((7, MOD_PRIMES[0])),
    kinds=st.lists(
        st.tuples(
            st.sampled_from(("product", "rows", "columns", "zero")),
            st.integers(1, 64),
            st.integers(1, 12),
        ),
        min_size=1,
        max_size=4,
    ),
    empty_rows=st.integers(0, 3),
    empty_cols=st.integers(0, 3),
    reverse=st.booleans(),
)
def test_whole_map_pivots_settle_what_the_blocks_would(
    seed, p, kinds, empty_rows, empty_cols, reverse
):
    # blocks pinned by their row pivots ("rows": loose echelon rows),
    # by their column pivots (the transpose), or by neither; a block more
    # than 32 longer than the rank sought takes the Schur step
    rng = np.random.default_rng(seed)
    blocks = []
    for kind, long_side, short_side in kinds:
        if kind == "product":
            blocks.append(_block(rng, long_side, short_side, int(rng.integers(0, short_side + 1))))
        elif kind == "zero":
            blocks.append(np.zeros((short_side, long_side), dtype=np.int64))
        else:
            rows = _staircase(rng, short_side, long_side, p, 0.15)
            blocks.append(rows if kind == "rows" else rows.T)
    mat = _interleaved_blocks(rng, blocks, empty_rows, empty_cols)
    rank = sum(rank_exact(b) for b in blocks if b.any())
    parts = complexes._independent_blocks(mat)

    def pivot_counts(m):
        live = m.data % p != 0
        return len(complexes._structural_pivots(m, live)[0]), complexes._column_pivot_count(m, live)

    counts = [pivot_counts(b) for b in parts]
    assert pivot_counts(mat) == (sum(r for r, _ in counts), sum(c for _, c in counts))

    @functools.lru_cache(maxsize=None)
    def block_bound(x, needed):
        return complexes._block_rank_lb(parts[x], p, needed)

    if reverse:
        mat = _reversed_rows(mat)
    for needed in range(rank + 41):
        # the bound before the whole map was counted: block by block
        want = min(needed, sum(block_bound(x, min(needed, *b.shape)) for x, b in enumerate(parts)))
        assert complexes._cert_rank_lb(mat, p, needed) == want, needed


def test_schur_complement_is_refused_past_the_dense_limit(monkeypatch):
    # every row of a positive 80 x 10 block of rank 10 leads at column 0,
    # and every column at row 0: one pivot on each side, so the bound
    # comes from S, whose side-by-side B and D take 80 x 9 entries
    rng = np.random.default_rng(3)
    block = rng.integers(1, 4, size=(80, 10))
    assert rank_exact(block) == 10
    mat = _csr(block)
    p = MOD_PRIMES[0]
    monkeypatch.setattr(complexes, "_DENSE_RANK_LIMIT", 80 * 9)
    assert complexes._cert_rank_lb(mat, p, 10) == 10
    monkeypatch.setattr(complexes, "_DENSE_RANK_LIMIT", 80 * 9 - 1)
    with pytest.raises(DataError, match="too large for a dense rank"):
        complexes._cert_rank_lb(mat, p, 10)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 7),
    n=st.integers(1, 7),
    entries=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(-3, 3)), max_size=30
    ),
    cancelled=st.lists(st.integers(0, 29), max_size=10),
    parts=st.integers(1, 4),
)
def test_assembly_matches_scipy_coo_to_csr(m, n, entries, cancelled, parts):
    # duplicated positions are summed, and the negated copies make some
    # of the sums cancel to zero
    entries = [(r % m, c % n, v) for r, c, v in entries]
    entries += [(r, c, -v) for r, c, v in (entries[i % len(entries)] for i in cancelled if entries)]
    rows, cols, vals = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    got = _scipy(complexes._canonical_csr(
        (m, n), np.array_split(rows * n + cols, parts), np.array_split(vals, parts)
    ))
    want = sp.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr()
    want.eliminate_zeros()
    assert got.shape == want.shape and got.dtype == want.dtype == np.int64
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@st.composite
def _factors(draw):
    """Integer matrices later (m x k) and earlier (k x n), mostly zeros.

    Any side may be 0, and rows and columns are often empty.  Half of
    the pairs are [A, A] and [[B], [-B]], whose product vanishes.
    """
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    cells = st.sampled_from((0, 0, 0, 1, -1, 2))

    def matrix(rows, cols):
        flat = draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=np.int64).reshape(rows, cols)

    later, earlier = matrix(m, k), matrix(k, n)
    if draw(st.booleans()):
        later, earlier = np.hstack([later, later]), np.vstack([earlier, -earlier])
    return later, earlier


# the pair of test_composition_check_is_exact_past_int64: the int64 path,
# and past its bound the exact path
_PAST_2_40 = (np.array([[2**20, 2**20]]), np.array([[2**40], [-(2**40)]]))


@settings(max_examples=150, deadline=None)
@given(pair=_factors())
@example(pair=_PAST_2_40)
@example(pair=(_PAST_2_40[0], 3 * abs(_PAST_2_40[1])))
def test_compose_is_zero_matches_scipy(pair):
    later, earlier = pair
    want = (sp.csr_matrix(later) @ sp.csr_matrix(earlier)).count_nonzero() == 0
    assert complexes._compose_is_zero(_csr(later), _csr(earlier)) == want


@settings(max_examples=150, deadline=None)
@given(pair=_factors(), exact=st.booleans())
def test_csr_dot_matches_scipy(pair, exact):
    dense, x = pair
    mat = _csr(dense)
    want = sp.csr_matrix(dense) @ x
    if exact:  # Python ints past int64, as in the exact check of a lifted kernel
        mat = mat._replace(data=mat.data.astype(object))
        x, want = x.astype(object) * 2**70, want.astype(object) * 2**70
    got = complexes._csr_dot(mat, x)
    assert got.dtype == (object if exact else np.int64)
    assert got.shape == want.shape and (got == want).all()


@settings(max_examples=100, deadline=None)
@given(pair=_factors())
def test_csr_transpose_round_trips(pair):
    mat = _csr(pair[0])
    t = complexes._csr_transpose(mat)
    assert t.shape == mat.shape[::-1] and (_scipy(t) != _scipy(mat).T).nnz == 0
    back = complexes._csr_transpose(t)
    assert back.shape == mat.shape and all(map(np.array_equal, back[1:], mat[1:]))


def test_auto_matches_exact_on_split_abelian_maps():
    # the maps hold one summand of column j; over a coordinate W they
    # still split into blocks, one per multidegree
    rng = random.Random(20260819)
    for q in (3, 4):
        dat = abelian_model(q)
        for _ in range(3):
            k = rng.randint(1, q)
            W = SubspaceW([[int(a == t) for a in range(q)] for t in rng.sample(range(q), k)])
            r = rng.randint(2, q)
            j = rng.randint(1, q - 1)
            c = build_complex(dat, W, r, j)
            assert any(len(complexes._independent_blocks(m)) > 1 for m in c.maps if m.nnz)
            assert exactness_prefix(c, method="auto") == exactness_prefix(c, method="exact")
            assert homology_dims(c, method="auto") == homology_dims(c, method="exact")


def _tracking_ranks(monkeypatch):
    """Record the primes rref_mod runs with and the shapes rank_exact sees."""
    primes, exact_shapes = [], []
    real_rref, real_exact = complexes.rref_mod, complexes.rank_exact

    def rref(a, p):
        primes.append(p)
        return real_rref(a, p)

    def exact(a):
        exact_shapes.append(np.shape(a))
        return real_exact(a)

    monkeypatch.setattr(complexes, "rref_mod", rref)
    monkeypatch.setattr(complexes, "rank_exact", exact)
    return primes, exact_shapes


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 14),
    cols=st.integers(1, 14),
    rank=st.integers(0, 14),
)
def test_lifted_kernel_rank_matches_bareiss_on_products(seed, rows, cols, rank):
    rng = np.random.default_rng(seed)
    mat = _csr(_block(rng, rows, cols, min(rank, rows, cols)))
    assert complexes._rank_exact_csr(mat) == rank_exact(_scipy(mat).toarray())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(0, 8)), min_size=1, max_size=5
    ),
    repeats=st.integers(1, 3),
    empty_rows=st.integers(0, 3),
    empty_cols=st.integers(0, 3),
)
def test_lifted_kernel_rank_matches_bareiss_on_block_diagonals(
    seed, shapes, repeats, empty_rows, empty_cols
):
    rng = np.random.default_rng(seed)
    blocks = [_block(rng, m, n, min(r, m, n)) for m, n, r in shapes]
    blocks += blocks[:1] * (repeats - 1)  # equal blocks are ranked once
    mat = _interleaved_blocks(rng, blocks, empty_rows, empty_cols)
    assert complexes._rank_exact_csr(mat) == rank_exact(_scipy(mat).toarray())


def test_unlucky_prime_lift_fails_its_check(monkeypatch):
    # over Q rows 0 and 1 are independent and row 2 is their sum, but
    # mod MOD_PRIMES[0] row 1 vanishes: diag(1, p0) sits inside the block
    p0 = MOD_PRIMES[0]
    core = np.array([[1, 1, 0], [0, p0, p0], [1, 1 + p0, p0]])
    assert complexes._cert_rank_lb(_csr(core), p0, 3) == 1
    rng = np.random.default_rng(5)
    mat = _interleaved_blocks(rng, [core, _block(rng, 6, 4, 2)], 2, 1)
    primes, exact_shapes = _tracking_ranks(monkeypatch)
    assert complexes._rank_exact_csr(mat) == rank_exact(_scipy(mat).toarray()) == 4
    # the core's kernel mod p0 has the wrong dimension, so its lift fails
    # the exact check; the next prime has the rational rank and pivots
    assert primes.count(p0) == 2 and primes.count(MOD_PRIMES[1]) == 1
    assert not exact_shapes


def _sum_row_block(base):
    """3 x 3 integer block of rank 2, third row the sum of the first two.

    The kernel vector that is 1 on the free column has denominators
    dividing the 2 x 2 pivot minor, which is near base**2.
    """
    r0, r1 = [base + 3, 7, base - 11], [5, base + 13, 17]
    return np.array([r0, r1, [x + y for x, y in zip(r0, r1)]], dtype=np.int64)


def test_kernel_lift_combines_primes_by_crt(monkeypatch):
    # denominators near 2**41 reconstruct only modulo four primes (past
    # 2**62, in Python ints), and the cleared kernel times the block
    # exceeds the int64 bound, so the exact check runs in Python ints too
    primes, exact_shapes = _tracking_ranks(monkeypatch)
    assert complexes._rank_exact_csr(_csr(_sum_row_block(2**20))) == 2
    assert primes == list(LIFT_PRIMES[:4]) and not exact_shapes
    # denominators near 2**101 are beyond every product of LIFT_PRIMES:
    # each lift fails and Bareiss decides
    primes.clear()
    block = _sum_row_block(2**50)
    assert complexes._rank_exact_csr(_csr(block)) == 2
    assert primes == list(LIFT_PRIMES) and exact_shapes == [block.shape]


def test_auto_matches_exact_on_moved_curves_w(monkeypatch):
    dat, W = curves_product_model()
    rng = random.Random(20260819)
    primes, exact_shapes = _tracking_ranks(monkeypatch)
    for r in range(2, 7):
        # a row-permuted unit triangular basis change with +-1 entries
        g = [[1 if s == t else (rng.choice((-1, 1)) if s > t else 0) for s in range(3)] for t in range(3)]
        rng.shuffle(g)
        moved = W.times(g)
        primes.clear()
        exact_shapes.clear()  # W.times checks its basis with rank_exact
        auto = e2_table(dat, moved, r)
        # the ranks the modular bound left open came from lifted kernels
        assert primes and not exact_shapes
        assert auto == e2_table(dat, moved, r, method="exact")
        assert exact_shapes  # the oracle really ran Bareiss
