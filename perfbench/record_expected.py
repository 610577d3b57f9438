"""Record the outputs every benchmark repetition is checked against.

    PYTHONPATH=src python3 perfbench/record_expected.py

Runs each workload in this process for two seeds and writes
perfbench/expected.json.  The recorded values must not depend on the
seed (battery counts, homology, products and statuses are invariants of
the inputs' random choices), so the script stops if the two seeds
disagree.  The curves tables are also recomputed with method="exact",
which must agree with the default path.  Run it only on code whose
outputs are trusted, and review the diff of expected.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)


def expected_from(name: str, items: int, out: dict) -> dict:
    if name == "battery-q6":
        rec = {"counts": {key: out[key] for key in ("checked", "trivial", "full_space_checked")}}
    elif name == "curves-e2":
        rec = {"tables": out}
    elif name == "schubert-chern":
        rec = {key: out[key] for key in ("statuses", "products_sha256", "n_products")}
    else:
        rec = {
            "head": {key: out[key] for key in ("exit", "status", "sections", "battery")},
            "conjecture": out["conjecture"],
        }
    return {"items": items, **rec}


def main() -> int:
    expected = {}
    for name, workload in WORKLOADS.items():
        recorded = []
        for seed in SEEDS:
            state = workload.setup(seed)
            items, out = workload.outputs(state, workload.run(state))
            failed, msgs = workload.check(out, expected_from(name, items, out))
            if failed:
                raise SystemExit(f"{name}: outputs fail their own checks: {msgs}")
            if name == "curves-e2":
                exact = workload.outputs(state, workload.run(state, method="exact"))[1]
                if exact != out:
                    raise SystemExit("curves-e2: method='exact' disagrees with method='auto'")
            recorded.append(expected_from(name, items, out))
        if any(rec != recorded[0] for rec in recorded):
            raise SystemExit(f"{name}: recorded outputs depend on the seed")
        expected[name] = recorded[0]
        print(f"{name}: {recorded[0]['items']} items recorded", file=sys.stderr)
    body = ",\n".join(f" {json.dumps(name)}: {json.dumps(rec, sort_keys=True)}" for name, rec in expected.items())
    with open(HERE / "expected.json", "w", encoding="utf-8") as handle:
        handle.write("{\n" + body + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
