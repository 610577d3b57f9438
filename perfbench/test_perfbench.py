"""Tests of the benchmark itself: its tracing, its counts and its layout.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload traced twice with one seed, about a minute on two
cores.  These tests are not part of the package's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracer import layer_metrics
from workloads import WORKLOADS

SEED = 7

# Where each per-layer metric must be nonzero: the workloads README.md names
# for it (a "little" share counts as nonzero).
NONZERO_ON = {
    "ratlinalg.rank_mod.calls": ("battery-q6", "curves-e2", "repro"),
    "ratlinalg.rank_mod.self_s": ("battery-q6", "curves-e2", "repro"),
    "ratlinalg.rank_mod.ops": ("battery-q6", "curves-e2", "repro"),
    "ratlinalg.rank_mod.bytes": ("battery-q6", "curves-e2", "repro"),
    "ratlinalg.rank_exact.calls": ("curves-e2",),
    "ratlinalg.rank_exact.self_s": ("curves-e2",),
    "ratlinalg.rank_exact.ops": ("curves-e2",),
    "complexes.build_complex.calls": ("battery-q6", "repro"),
    "complexes.build_complex.self_s": ("battery-q6", "repro"),
    "complexes.build_complex.nnz": ("battery-q6", "repro"),
    "complexes.exactness_prefix.self_s": ("battery-q6", "repro"),
    "complexes.homology_dims.self_s": ("curves-e2",),
    "complexes.e2_table.self_s": ("curves-e2",),
    "complexes.rank_useful_ratio": ("battery-q6", "curves-e2", "repro"),
    "complexes.exact_fallback_ratio": ("curves-e2",),
    "models.random_subspace.calls": ("battery-q6", "repro"),
    "models.random_subspace.self_s": ("battery-q6", "repro"),
    "models.theorem_battery.self_s": ("battery-q6", "repro"),
    "series.sym_power_chern.calls": ("schubert-chern", "repro"),
    "series.sym_power_chern.self_s": ("schubert-chern", "repro"),
    "series.substitute.self_s": ("schubert-chern", "repro"),
    "schur.class_product.calls": ("schubert-chern", "repro"),
    "schur.class_product.self_s": ("schubert-chern", "repro"),
    "schur.class_product.distinct_ratio": ("schubert-chern", "repro"),
    "schur.multiply.self_s": ("schubert-chern", "repro"),
    "bgg.verify_conjecture.calls": ("schubert-chern", "repro"),
    "bgg.chern_F.self_s": ("schubert-chern", "repro"),
    "bgg.chern_G_coeffs.self_s": ("repro",),
    "bounds.self_s": ("repro",),
    "cli.main.self_s": ("repro",),
}

# Layers a workload must not reach at all.
ZERO_ON = {
    "ratlinalg.rank_exact.calls": ("battery-q6", "schubert-chern"),
    "ratlinalg.rank_mod.calls": ("schubert-chern",),
}

COUNT_SUFFIXES = (".calls", ".ops", ".bytes", ".nnz", "_ratio")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per-layer metrics of two traced repetitions per workload, same seed."""
    with open(run.HERE / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    sys.path.insert(0, str(run.ROOT / "src"))
    tmp = tmp_path_factory.mktemp("spans")
    out = {}
    for name in WORKLOADS:
        out[name] = []
        for rep in range(2):
            spans = tmp / f"{name}-{rep}.json"
            record = run.run_repetition(name, SEED, spans, timeout=170)
            assert "error" not in record, record["error"]
            _attempted, failed, msgs = run.check_repetition(name, record, expected)
            assert failed == 0, msgs
            with open(spans, encoding="utf-8") as handle:
                out[name].append(layer_metrics(json.load(handle)))
    return out


def test_metrics_match_benchmark_json(traced):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    listed = {m["name"] for m in bench["per_layer"]}
    assert listed == set(traced["repro"][0]) | {"trace.overhead_ratio"}
    assert set(NONZERO_ON) == set(traced["repro"][0])
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)


@pytest.mark.parametrize("metric", sorted(NONZERO_ON))
def test_layer_metric_nonzero_where_named(traced, metric):
    for name in NONZERO_ON[metric]:
        assert traced[name][0][metric] > 0, (metric, name)


@pytest.mark.parametrize("metric", sorted(ZERO_ON))
def test_layer_not_reached(traced, metric):
    for name in ZERO_ON[metric]:
        assert traced[name][0][metric] == 0, (metric, name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(traced, name):
    first, second = traced[name]
    counts = [key for key in first if key.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {key: first[key] for key in counts} == {key: second[key] for key in counts}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "repro", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
