"""Concrete models and the exactness battery."""

import hashlib
import json
import random
from math import comb

import pytest

from bggx import models
from bggx.anchors import DEFAULT_SEED
from bggx.complexes import SubspaceW, e2_table
from bggx.models import (
    BatteryReport,
    abelian_model,
    curves_product_model,
    expected_exactness,
    random_subspace,
    theorem_battery,
)


def test_expected_exactness_values():
    assert expected_exactness(4, 2, 0) == 3
    assert expected_exactness(2, 3, 0) == 0
    assert expected_exactness(6, 4, 1) == 2
    for d in range(1, 7):
        assert expected_exactness(d, 1, 0) == d


def _datum_digest(datum):
    """sha256 of the bytes `--emit-datum` writes for this datum."""
    text = json.dumps(datum.to_json(), sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# The datum bytes fix each model's basis order, signs and metadata;
# changing any of them changes a digest.
_ABELIAN_DIGESTS = {
    1: "d9c955daeae5930d96263ccd0955283b09bdfb96aebc026f31ec893c83440615",
    2: "8b5c7a6508119cb9c4fab92796edefc21bafed5ee13b811612e8fb9443932d81",
    3: "58f7f9597d85ff1b235a2cffe1a543bbd5171f0c83f804b364b1279b10cb9684",
    4: "8dbff45fa0d1b8adaedb03293cf9ab8abb9e6a6b9245253ccdd5e8e91586378e",
    5: "176ed5c529096b84ecff1d5c9453f4779d82bef6251aa19da942e04e159147c0",
    6: "3a07b8ddf6c132fa99f713871be0fb8bae45dd8ac58315b654e6dcf3b8f696ec",
}
_CURVES_DIGEST = "8af3e1690f58794512fd13083e52f99a41bd0c7f99f56f23e7c7ed109c26620f"
_CURVES_H1_DIGEST = "69646f87faed71a24aa18ed2e0b82ddc49e85684a84069d30fa53f3672d37640"
_H1_PAIR = ([[1, 2, 0], [0, 1, 0], [0, 0, 1]], [[2, 0, 0], [0, 1, -1], [1, 0, 1]])


@pytest.mark.parametrize("q", sorted(_ABELIAN_DIGESTS))
def test_abelian_datum_bytes_are_pinned(q):
    assert _datum_digest(abelian_model(q)) == _ABELIAN_DIGESTS[q]


def test_curves_datum_bytes_are_pinned():
    assert _datum_digest(curves_product_model()[0]) == _CURVES_DIGEST
    dat, _ = curves_product_model(h1_basis=_H1_PAIR)
    assert _datum_digest(dat) == _CURVES_H1_DIGEST


def test_abelian_dims():
    assert abelian_model(1).dims == ((1, 1), (1, 1))
    assert abelian_model(3).dims[1][2] == 9
    for q in (2, 4, 5):
        dat = abelian_model(q)
        for i in range(q + 1):
            for j in range(q + 1):
                assert dat.dims[i][j] == comb(q, i) * comb(q, j)
    with pytest.raises(ValueError):
        abelian_model(0)


def test_abelian_anticommutation():
    for q in range(1, 6):
        assert abelian_model(q).check_anticommutation() is None


def test_curves_dims_and_subspace():
    dat, W = curves_product_model()
    assert dat.dims == ((1, 6, 9), (6, 20, 6), (9, 6, 1))
    assert (W.q, W.k) == (6, 3)
    for t in range(3):
        col = W.columns[t]
        assert [a for a, x in enumerate(col) if x] == [t, t + 3]
    assert dat.check_anticommutation() is None


def test_curves_metadata_recorded_verbatim():
    dat, _ = curves_product_model()
    assert dat.metadata["degeneracy_locus_Z1"] == "empty"
    assert dat.metadata["degeneracy_locus_Z2"] == "16 points"
    assert "C^48" in dat.metadata["sections_of_first_homology_sheaf"]


def test_curves_h1_basis_invariance():
    base_dat, W = curves_product_model()
    base = e2_table(base_dat, W, 2)
    rng = random.Random(20260819)
    done = 0
    while done < 3:
        pair = [
            [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            for _ in range(2)
        ]
        try:
            dat, W2 = curves_product_model(h1_basis=pair)
        except ValueError:
            continue  # singular draw
        assert W2.columns == W.columns
        t = e2_table(dat, W2, 2)
        assert t.entries == base.entries and t.hyper == base.hyper
        done += 1
    with pytest.raises(ValueError):
        curves_product_model(h1_basis=([[1, 0, 0], [0, 1, 0], [1, 1, 0]],
                                       [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_random_subspace_is_reproducible_rank_k():
    rng = random.Random(42)
    W = random_subspace(5, 3, rng)
    assert (W.q, W.k) == (5, 3)
    rng2 = random.Random(42)
    assert random_subspace(5, 3, rng2).columns == W.columns


def test_battery_accounting_small():
    rep = theorem_battery(q_values=(2,), n_w=2, seed=DEFAULT_SEED)
    assert isinstance(rep, BatteryReport)
    # q=2: six (k, j, r) configurations have a positive target, six are trivial
    assert rep.checked == 12 and rep.trivial == 6 and rep.full_space_checked == 2
    assert rep.passed and rep.failures == ()
    js = rep.to_json()
    assert js["passed"] is True and js["seed"] == rep.seed
    assert js["q_values"] == [2]


def test_battery_failures_record_the_drawn_basis(monkeypatch):
    # the complexes are built over W.echelon(), but a failure names the
    # W that was drawn, so a failing cell can be rebuilt from the record
    built_over = []
    real_build = models.build_complex

    def build(datum, W, r, j, stop_at=None):
        built_over.append(W.columns)
        return real_build(datum, W, r, j, stop_at=stop_at)

    monkeypatch.setattr(models, "build_complex", build)
    monkeypatch.setattr(models, "exactness_prefix", lambda c, stop_at: 0)
    rep = theorem_battery(q_values=(3,), n_w=2, seed=5, include_full_space=False)
    rng = random.Random(5)
    assert len(rep.failures) == rep.checked == len(built_over) > 0
    for failure, used in zip(rep.failures, built_over):
        drawn = random_subspace(3, failure["k"], rng)
        assert failure["W"] == drawn.to_json()["columns"]
        assert used == drawn.echelon().columns


def test_battery_dense_small_grid():
    """Dense run (50 W per configuration) on the sizes that stay fast."""
    rep = theorem_battery(q_values=(2, 3, 4), n_w=50, seed=DEFAULT_SEED)
    assert rep.passed, rep.failures[:3]
    assert rep.checked > 0 and rep.full_space_checked == 2 + 3 + 4
