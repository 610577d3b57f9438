"""Command-line behaviour: formats, determinism, exit codes, fault paths."""

import hashlib
import json
from pathlib import Path

import pytest

from bggx import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schubert_mult_pieri_square(capsys):
    code, out, _ = run(
        capsys, "schubert", "mult", "--k", "2", "--q", "5",
        "--lhs", "1", "--rhs", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "schubert mult"
    assert payload["status"] == "PASS"
    assert payload["results"]["product"] == [
        {"partition": [1, 1], "coeff": "1"},
        {"partition": [2], "coeff": "1"},
    ]


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ["conjecture", "verify", "--k", "2..3", "--q-max", "6", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    # and no wall-clock leakage into the machine format
    assert "wall" not in out1


def test_text_format_reports_wall_time(capsys):
    code, out, _ = run(capsys, "identity", "combin", "--max", "5")
    assert code == 0
    assert "status: PASS" in out
    assert "wall time:" in out


def test_conjecture_csv_rows_and_warn_exit(capsys):
    code, out, _ = run(
        capsys, "conjecture", "verify", "--k", "2", "--q-max", "4",
        "--format", "csv",
    )
    # q = k+1 rows WARN; warnings do not fail the run
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,q,mu,mu_coefficient,codim_mu,rank_lower_bound,status"
    assert lines[1].startswith("2,3,0,1,") and lines[1].endswith("WARN")
    assert lines[2] == "2,4,1,1,1,1,PASS"


@pytest.mark.parametrize(
    "k, q_max",
    [("4..2", "6"), ("3", "3"), ("4", "3")],
    ids=["k-range-descending", "q-max-equals-k", "q-max-below-k"],
)
def test_empty_sweep_exits_2(capsys, k, q_max):
    # a sweep over no cells is a usage error, not a vacuous PASS
    code, out, err = run(
        capsys, "conjecture", "verify", "--k", k, "--q-max", q_max,
        "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert "error:" in err and "--k" in err and "--q-max" in err


# sha256 of `conjecture verify --k 2..5 --q-max 9 --format json`, recorded
# before chern_F reused its strip extensions across passes
_CONJECTURE_2_5_9_SHA256 = "dba2a161ced0a4e454202e0b61765313eeaf6403e6b6c887276fb456b36ce855"


def test_conjecture_json_matches_recorded_digest(capsys):
    code, out, _ = run(
        capsys, "conjecture", "verify", "--k", "2..5", "--q-max", "9",
        "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CONJECTURE_2_5_9_SHA256


def test_jobs_flag_does_not_change_output(capsys):
    argv = ["conjecture", "verify", "--k", "2", "--q-max", "5", "--format", "json"]
    _, sequential, _ = run(capsys, *argv)
    _, parallel, _ = run(capsys, *argv, "--jobs", "2")
    assert sequential == parallel


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    # value errors from our own validation use the same code
    code, _, err = run(
        capsys, "schubert", "mult", "--k", "2", "--q", "5",
        "--lhs", "1,2", "--rhs", "1",
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "lhs, rhs",
    [("5", "1,1"), ("1,1", "5"), ("1,1,1", "2,1"), ("2,1", "1,1,1"),
     ("3,2", "2,2"), ("2,2", "3,2")],
    ids=["row-too-wide", "row-too-wide-rhs", "column-too-long", "column-too-long-rhs",
         "general-too-wide", "general-too-wide-rhs"],
)
def test_schubert_mult_factor_outside_the_box_exits_2(capsys, lhs, rhs):
    # either factor outside the 2 x 2 box of Gr(2,4) is a usage error, not a product 0
    code, out, err = run(
        capsys, "schubert", "mult", "--k", "2", "--q", "4", "--lhs", lhs, "--rhs", rhs,
    )
    assert code == 2
    assert out == ""
    assert "does not fit" in err


def test_missing_and_malformed_input_files_exit_3(tmp_path, capsys):
    code, _, err = run(
        capsys, "bounds", "check", "--hodge", str(tmp_path / "nope.json"),
        "--k", "1", "--r", "1",
    )
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "bounds", "check", "--hodge", str(bad), "--k", "1", "--r", "1")
    assert code == 3
    assert "not valid JSON" in err


def test_anticommutation_violation_exits_3_with_indices(tmp_path, capsys):
    datum_path = tmp_path / "ab3.json"
    code, _, _ = run(capsys, "model", "abelian", "--q", "3", "--emit-datum", str(datum_path))
    assert code == 0
    payload = json.loads(datum_path.read_text())
    for item in payload["action"]:
        if (item["a"], item["i"], item["j"]) == (1, 0, 0):
            item["matrix"][0][0] = "7"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    code, _, err = run(
        capsys, "complex", "check", "--input", str(broken),
        "--w", "1,0,0", "--r", "1", "--j", "0",
    )
    assert code == 3
    assert "anticommutation" in err
    assert "a=1, b=2, i=0, j=0" in err


def test_complex_check_schema_and_values(tmp_path, capsys):
    datum_path = tmp_path / "ab3.json"
    run(capsys, "model", "abelian", "--q", "3", "--emit-datum", str(datum_path))
    code, out, _ = run(
        capsys, "complex", "check", "--input", str(datum_path),
        "--w", "1,0,0;0,1,0", "--r", "2", "--j", "0", "--format", "json",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert set(results) == {"term_dims", "homology", "exactness_prefix"}
    assert results["term_dims"] == [3, 6, 3]
    assert results["homology"] == [0, 0, 0]
    assert results["exactness_prefix"] == 3
    # rational coordinates in --w are accepted
    code, out, _ = run(
        capsys, "complex", "check", "--input", str(datum_path),
        "--w", "1/2,0,1/3", "--r", "1", "--j", "1", "--format", "json",
        "--e2-table",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert "e2" in results and results["e2"]["r"] == 1


def test_complex_check_e2_table_builds_each_j_once(tmp_path, monkeypatch, capsys):
    datum_path = tmp_path / "ab3.json"
    run(capsys, "model", "abelian", "--q", "3", "--emit-datum", str(datum_path))
    argv = (
        "complex", "check", "--input", str(datum_path),
        "--w", "1,0,0;0,1,1", "--r", "2", "--j", "1", "--format", "json",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    alone = json.loads(out)["results"]
    built = []
    real_build = cli.complexes.build_complex

    def counting_build(datum, W, r, j, stop_at=None):
        built.append((r, j))
        return real_build(datum, W, r, j, stop_at)

    monkeypatch.setattr(cli.complexes, "build_complex", counting_build)
    code, out, _ = run(capsys, *argv, "--e2-table")
    assert code == 0
    results = json.loads(out)["results"]
    assert sorted(built) == [(2, j) for j in range(4)]
    # the requested homology is the table's column j, as ranked alone
    assert {key: results[key] for key in alone} == alone
    assert [row[1] for row in results["e2"]["entries"]] == alone["homology"]


def test_curves_example_and_datum_round_trip(tmp_path, capsys):
    datum_path = tmp_path / "curves.json"
    code, out, _ = run(
        capsys, "example", "curves", "--emit-datum", str(datum_path),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    e2 = payload["results"]["e2"]
    assert e2["entries"][1][0] == 3
    assert e2["entries"][1][1] == 18
    assert e2["entries"][0][2] == 37
    assert e2["hyper"] == [0, 3, 55, 0, 0]
    # the written datum replays through complex check with the model's W
    code, out, _ = run(
        capsys, "complex", "check", "--input", str(datum_path),
        "--w", "1,0,0,1,0,0;0,1,0,0,1,0;0,0,1,0,0,1",
        "--r", "2", "--j", "0", "--format", "json",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["homology"] == [0, 3, 0]
    assert results["exactness_prefix"] == 1


def test_bounds_h20_table(capsys):
    code, out, _ = run(capsys, "bounds", "h20", "--q", "10", "--d", "2", "--k", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]["bounds"]
    by_name = {r["bound"]: r for r in rows if r["k"] in ("", 1)}
    assert by_name["piecewise h20"]["value"] == "17"
    assert by_name["first Chern"]["value"] == "17"
    assert by_name["second Chern"]["value"] == "21"


def test_bounds_check_flags_negative_sums(tmp_path, capsys):
    good = tmp_path / "abelian.json"
    good.write_text(json.dumps({
        "q": 3, "d": 3,
        "h": [[1, 3, 3, 1], [3, 9, 9, 3], [3, 9, 9, 3], [1, 3, 3, 1]],
    }))
    code, out, _ = run(capsys, "bounds", "check", "--hodge", str(good), "--k", "2", "--r", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["violations"] == 0
    bad = tmp_path / "gap.json"
    bad.write_text(json.dumps({"q": 1, "d": 1, "h": [[1, 0], [0, 0]]}))
    code, out, _ = run(capsys, "bounds", "check", "--hodge", str(bad), "--k", "1", "--r", "1", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "FAIL"
    assert payload["results"]["violations"] > 0


def test_out_flag_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "gclass", "--k", "2", "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["results"]["coeffs"]["1"] == "h - 3*q + 6"


def test_repro_seed_reproducible_and_printed(capsys):
    argv = ["repro", "--q-max", "2", "--n-w", "2", "--seed", "7", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["parameters"]["seed"] == 7
    assert payload["results"]["battery"]["seed"] == 7
    assert all(section["ok"] for section in payload["results"]["sections"])


def test_repro_json_matches_recorded_bytes(capsys):
    # the JSON envelope is a stable contract: every rank, count and key of
    # this run must reproduce the recorded file byte for byte
    golden = (Path(__file__).parent / "data" / "repro_q3_nw2_seed7.json").read_bytes()
    code, out, _ = run(
        capsys, "repro", "--format", "json", "--q-max", "3", "--n-w", "2", "--seed", "7"
    )
    assert code == 0
    assert out.encode() == golden


def test_repro_default_seed_in_text(capsys):
    code, out, _ = run(capsys, "repro", "--q-max", "2", "--n-w", "1")
    assert code == 0
    assert f"seed: {cli.DEFAULT_SEED}" in out


def test_repro_with_an_empty_battery_exits_2(capsys):
    # q = 2..--q-max: --q-max 1 would check nothing and report PASS
    code, out, err = run(capsys, "repro", "--q-max", "1", "--n-w", "1", "--format", "json")
    assert code == 2
    assert out == ""
    assert "error:" in err and "--q-max 1" in err


_REPRO_Q2 = ("repro", "--q-max", "2", "--n-w", "1")


@pytest.mark.parametrize(
    "module, name, value, commands, anchor",
    [
        pytest.param("bgg", "g2_closed", lambda k: cli.bgg.g1_closed(k), [_REPRO_Q2],
                     "g_2 closed form, k=1", id="g2_closed"),
        # one table drives both commands that check the curves anchors
        pytest.param("anchors", "CURVES_HYPER", (0, 3, 56, 0, 0),
                     [_REPRO_Q2, ("example", "curves")],
                     "hypercohomology = (0, 3, 55, 0, 0)", id="curves_hyper"),
    ],
)
def test_repro_names_tampered_anchor(monkeypatch, capsys, module, name, value, commands, anchor):
    monkeypatch.setattr(getattr(cli, module), name, value)
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert anchor in out
        assert "status: FAIL" in out


@pytest.mark.parametrize("fault", [RuntimeError("rank bookkeeping bug"), ZeroDivisionError("division by zero")])
def test_internal_errors_exit_4_without_traceback(monkeypatch, capsys, fault):
    def broken(*_args, **_kwargs):
        raise fault

    monkeypatch.setattr(cli.complexes, "e2_table", broken)
    code, out, err = run(capsys, "example", "curves", "--format", "json")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert f"internal error: {type(fault).__name__}: {fault}" in err
    assert "Traceback" not in err


def _datum(entry: str) -> str:
    """A one-form datum on a curve whose single action entry is `entry`."""
    return (
        '{"d": 1, "q": 1, "dims": [[1, 0], [1, 0]], '
        '"action": [{"a": 1, "i": 0, "j": 0, "matrix": [[' + entry + "]]}]}"
    )


_COMPLEX = ("complex", "check", "--input", "FILE", "--r", "1", "--j", "0", "--w")
_BOUNDS = ("bounds", "check", "--hodge", "FILE", "--k", "1", "--r", "1")


@pytest.mark.parametrize(
    "argv, payload, dense_limit, code",
    [
        (_COMPLEX + ("1",), _datum('"1/0"'), None, 3),
        (_COMPLEX + ("1",), _datum("1e400"), None, 3),
        (_COMPLEX + ("1",), _datum(str(10**40)), None, 3),
        (
            ("complex", "check", "--input", "FILE", "--r", "1", "--j", "0", "--w", "1,1;1,2"),
            '{"d": 1, "q": 2, "dims": [[1, 0], [2, 0]], "action": ['
            '{"a": 1, "i": 0, "j": 0, "matrix": [[1], [0]]}, '
            '{"a": 2, "i": 0, "j": 0, "matrix": [[0], [1]]}]}',
            0,
            3,
        ),
        (_COMPLEX + ("1/0",), _datum("1"), None, 2),
        (_BOUNDS, '{"q": 1, "d": 1, "h": [[1, 1e400], [1, 0]]}', None, 3),
        (_BOUNDS, '{"q": 2, "d": 1, "h": [[1]]}', None, 3),
        (_BOUNDS, '{"q": 1, "d": 1, "h": [[1, 0.9], [1.7, 0]]}', None, 3),
        (_COMPLEX + ("1",), '{"d": 1, "q": 1, "dims": [[1, 1.9], [1, 1]]}', None, 3),
        (_COMPLEX + ("1",), b"\xff\xfe", None, 3),
        (_BOUNDS, b"\xff\xfe", None, 3),
        (_COMPLEX + ("1",), _datum("1").replace('"a": 1', '"a": true'), None, 3),
        (_COMPLEX + ("1",), '{"d": 1, "q": true, "dims": [[1, 0], [1, 0]]}', None, 3),
        (_BOUNDS, '{"q": 1, "d": 1, "h": [[1, true], [1, 0]]}', None, 3),
        (_BOUNDS, '{"q": 1, "d": true, "h": [[1, 0], [1, 0]]}', None, 3),
        (_COMPLEX + ("1",), _datum("true"), None, 3),
        (
            _COMPLEX + ("1",),
            _datum("1").replace('"matrix": [[1]]', '"entries": [[0, 0, false]]'),
            None,
            3,
        ),
        (
            ("complex", "check", "--input", "FILE", "--r", "100", "--j", "1", "--w", "1,0;0,1"),
            '{"d": 1, "q": 2, "dims": [[1, 100000000], [2, 100000000]], '
            '"action": [{"a": 1, "i": 0, "j": 1, "entries": [[0, 0, "1"]]}]}',
            None,
            3,
        ),
    ],
    ids=[
        "datum-entry-1/0", "datum-entry-1e400", "datum-entry-too-large-for-int64",
        "dense-rank-size-refusal", "w-entry-1/0", "hodge-1e400", "hodge-table-short-for-d",
        "hodge-non-integer", "datum-dims-non-integer", "datum-not-utf8", "hodge-not-utf8",
        "datum-action-index-true", "datum-q-true", "hodge-number-true", "hodge-d-true",
        "datum-matrix-entry-true", "datum-entries-entry-false",
        "differential-too-large-to-assemble",
    ],
)
def test_bad_numbers_short_tables_and_size_refusals_exit_codes(
    tmp_path, monkeypatch, capsys, argv, payload, dense_limit, code
):
    path = tmp_path / "input.json"
    path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    if dense_limit is not None:
        monkeypatch.setattr(cli.complexes, "_DENSE_RANK_LIMIT", dense_limit)
    got, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert got == code
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_duplicate_action_item_exits_3_naming_it(tmp_path, capsys):
    # two items for the same (a, i, j) are ambiguous: neither may win silently
    item = '{"a": 1, "i": 0, "j": 0, "matrix": [[1]]}'
    path = tmp_path / "dup.json"
    path.write_text('{"d": 1, "q": 1, "dims": [[1, 0], [1, 0]], '
                    '"action": [' + item + ", " + item.replace("[[1]]", "[[2]]") + "]}")
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in _COMPLEX), "1")
    assert code == 3
    assert out == ""
    assert "duplicate action item (a=1, i=0, j=0)" in err and "Traceback" not in err
