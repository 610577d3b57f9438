"""bggx benchmark: fresh-process repetitions of one workload, checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload battery-q6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each repetition is a new interpreter (perfbench/worker.py) running one
call into bggx with ``--jobs 1`` and the default BLAS threads; the next
starts after it exits (a closed loop with one client).  Repetitions are
started while the run's projected end stays within ``--seconds``, at
least one of each kind.  Every repetition's outputs are checked here,
after its process has ended.

--trace 0 reports the end-to-end metrics, each the median over the
repetitions, with times scaled to a quiet machine.  --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (medians) plus ``trace.overhead_ratio``, the traced median
scaled wall time over the untraced one, minus 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details of the run, with the
machine description, go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
REPETITION_FIELDS = (
    "wall_s", "setup_s", "ref_before_s", "ref_after_s", "wall_scaled_s", "setup_scaled_s",
    "peak_rss_mb", "items", "traced",
)
LAYER_UNITS = {"calls": "count", "self_s": "s", "ops": "ops", "bytes": "B", "nnz": "count"}


def _unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    return LAYER_UNITS.get(metric.rsplit(".", 1)[-1], "ratio")


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_repetition(name: str, seed: int, spans_file: Path | None, timeout: float) -> dict:
    """Run one worker process and return its record (or an error record)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed)]
    if spans_file is not None:
        cmd.append(str(spans_file))
    env["PERFBENCH_SPAWNED"] = repr(_monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if proc.returncode != 0 and "error" not in record:
        record["error"] = f"worker exited {proc.returncode}"
    if "error" not in record and not Path(record["bggx_file"]).resolve().is_relative_to(ROOT / "src"):
        record["error"] = f"imported bggx from {record['bggx_file']}, not from this checkout"
    return record


def check_repetition(name: str, record: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one repetition."""
    want = expected[name]
    if "error" in record:
        return want["items"], want["items"], [record["error"]]
    attempted = record["items"]
    try:
        failed, msgs = WORKLOADS[name].check(record["outputs"], want)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        failed, msgs = attempted, [f"malformed outputs: {exc!r}"]
    if attempted != want["items"]:
        msgs.append(f"{attempted} items, expected {want['items']}")
        failed = attempted
    return attempted, min(failed, attempted), msgs


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict, deadline: float) -> dict:
    start = _monotonic()
    untraced, traced, durations, messages = [], [], [], []
    attempted = failed = 0
    spans_file = OUT_DIR / f"{name}-seed{seed}.spans.json"
    while True:
        take_traced = trace and len(traced) < len(untraced)
        t0 = _monotonic()
        timeout = max(5.0, deadline - t0)
        record = run_repetition(name, seed, spans_file if take_traced else None, timeout)
        durations.append(_monotonic() - t0)
        n, bad, msgs = check_repetition(name, record, expected)
        attempted += n
        failed += bad
        messages += msgs
        if "error" in record:
            break
        if take_traced:
            with open(spans_file, encoding="utf-8") as handle:
                record["layers"] = layer_metrics(json.load(handle))
            traced.append(record)
        else:
            untraced.append(record)
        enough = bool(untraced) and (traced or not trace)
        if enough and _monotonic() - start + max(durations) > seconds:
            break

    # The machine's neighbours slow its CPUs by up to 2x for seconds to
    # minutes at a time, so times are scaled to a quiet machine by the
    # reference timed next to them, then the median is taken (README.md).
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    if untraced and not trace:
        metrics = {
            "wall_s": statistics.median(r["wall_scaled_s"] for r in untraced),
            "items_per_s": statistics.median(r["items"] / r["wall_scaled_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_scaled_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        raw = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "reference_s": statistics.median(r["ref_before_s"] for r in untraced),
        }
    elif untraced and traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_scaled_s"] for r in traced)
            / statistics.median(r["wall_scaled_s"] for r in untraced)
            - 1
        )
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "unscaled_medians": raw,
        "messages": messages[:50],
        "machine": (untraced or traced or [{}])[0].get("machine"),
        "per_repetition": [
{key: r[key] for key in REPETITION_FIELDS} for r in untraced + traced
        ],
    }


def _print_result(result: dict) -> None:
    reps = result["repetitions"]
    print(
        f"{result['workload']} seed={result['seed']} trace={result['trace']}"
        f" repetitions={reps['untraced']} untraced + {reps['traced']} traced"
    )
    for key, value in result["metrics"].items():
        print(f"  {key:42s} {value:>16.6g} {_unit(key)}")
    print(f"  {'failed_ratio':42s} {result['failed_ratio']:>16.6g} ratio")
    for key, value in result["unscaled_medians"].items():
        print(f"  {'unscaled ' + key:42s} {value:>16.6g} s")
    for msg in result["messages"]:
        print(f"  FAIL {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bggx" / "__init__.py").is_file():
        print(f"error: no bggx sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checks' oracle is bggx.schur.lr_coefficient
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    OUT_DIR.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    started = _monotonic()
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), expected, started + RUN_LIMIT_S * len(names))
        with open(OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        results.append(result)
    print("machine: " + json.dumps(results[0]["machine"], sort_keys=True))
    for result in results:
        _print_result(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{key}" if prefix else key): {"value": value, "unit": _unit(key)}
        for r in results
        for key, value in r["metrics"].items()
    }
    correct = failed == 0 and all(r["metrics"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
