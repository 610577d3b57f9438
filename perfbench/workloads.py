"""The benchmark's workloads: inputs made from a seed, the timed call, checks.

Every workload is a closed loop with one client.  A worker process makes
the inputs (``setup``), calls bggx once (``run``, the timed region) and
turns the result into JSON (``outputs``); the next repetition starts only
after that process has exited.  ``check`` runs in the parent process on
that JSON, so checking never overlaps a timed region.  An *item* is the
unit ``items_per_s`` counts; its meaning differs per workload (see
README.md).

``setup``/``run``/``outputs`` import bggx; ``check`` imports it only for
the Littlewood-Richardson oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

# battery-q6: the q = 6 abelian battery, one random W per (k, j, r) cell.
BATTERY_Q = (6,)
BATTERY_N_W = 1

# curves-e2: e2 tables of the curves product over one moved W per r.
CURVES_R = tuple(range(2, 8))
CURVES_ANCHORS = {(1, 0): 3, (1, 1): 18, (0, 2): 37}
CURVES_HYPER = [0, 3, 55, 0, 0]

# schubert-chern: staircase cells (k = 5 only where its table is small)
# and every product of two classes of Gr(4, 8) that fits the box, taken
# through schur.multiply, which the series code uses and which calls
# schur.class_product once per product.
CONJECTURE_CELLS = tuple((k, q) for k in (2, 3, 4) for q in range(k + 1, 11)) + ((5, 6), (5, 7))
PRODUCT_K, PRODUCT_Q = 4, 8
PRODUCT_SAMPLE = 8

# repro: the user command, with the battery cut to q <= 4 and five W per cell.
REPRO_ARGS = ("--q-max", "4", "--n-w", "5")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    outputs: Callable  # (state, result) -> (items, JSON-ready outputs)
    check: Callable  # (outputs, expected) -> (failed items, messages)


# ------------------------------------------------------------ battery-q6


def _battery_setup(seed):
    from bggx import models

    return {"models": models, "seed": seed}


def _battery_run(state):
    return state["models"].theorem_battery(
        q_values=BATTERY_Q, n_w=BATTERY_N_W, seed=state["seed"], include_full_space=True
    )


def _battery_outputs(_state, report):
    out = {
        "checked": report.checked,
        "trivial": report.trivial,
        "full_space_checked": report.full_space_checked,
        "passed": report.passed,
        "failures": [dict(f) for f in report.failures],
    }
    return report.checked + report.full_space_checked, out


def _battery_check(out, expected):
    items = out["checked"] + out["full_space_checked"]
    counts = {key: out[key] for key in ("checked", "trivial", "full_space_checked")}
    if counts != expected["counts"]:
        return items, [f"battery counts {counts}, expected {expected['counts']}"]
    msgs = [
        "battery prefix below target (q={q}, k={k}, r={r}, j={j})".format(**f)
        for f in out["failures"]
    ]
    if not out["passed"] and not msgs:
        return items, ["battery reports a failure without listing it"]
    return len(msgs), msgs


# ------------------------------------------------------------ curves-e2


def _basis_change(rng: random.Random) -> list[list[int]]:
    """Row-permuted unit upper-triangular 3x3 matrix with +-1 entries.

    Always invertible, and every draw moves W by entries of the same
    size, so the exact ranks cost about the same for every seed.
    """
    u = [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(3)] for i in range(3)]
    rng.shuffle(u)
    return u


def _curves_setup(seed):
    from bggx import complexes, models

    datum, W = models.curves_product_model()
    rng = random.Random(seed)
    spaces = {r: W.times(_basis_change(rng)) for r in CURVES_R}
    return {"complexes": complexes, "datum": datum, "spaces": spaces}


def _curves_run(state, method="auto"):
    e2_table = state["complexes"].e2_table
    return {r: e2_table(state["datum"], W, r, method=method) for r, W in state["spaces"].items()}


def _curves_outputs(_state, tables):
    out = {str(r): {"entries": [list(row) for row in t.entries], "hyper": list(t.hyper)} for r, t in tables.items()}
    items = sum(len(t["entries"][0]) for t in out.values())
    return items, out


def _curves_check(out, expected):
    failed, msgs = 0, []
    for r, want in expected["tables"].items():
        got = out.get(r)
        n_cols = len(want["entries"][0])
        if got is None or len(got["entries"]) != len(want["entries"]):
            failed += n_cols
            msgs.append(f"curves r={r}: table missing or of wrong length")
            continue
        for j in range(n_cols):
            if [row[j] for row in got["entries"]] != [row[j] for row in want["entries"]]:
                failed += 1
                msgs.append(f"curves r={r} column j={j} differs from the recorded table")
    got2 = out.get("2")
    anchors_ok = got2 is not None and got2["hyper"] == CURVES_HYPER and all(
        got2["entries"][i][j] == v for (i, j), v in CURVES_ANCHORS.items()
    )
    if not anchors_ok:
        msgs.append("curves r=2 anchors (3, 18, 37) / hyper (0, 3, 55) not met")
        failed = max(failed, 1)
    return failed, msgs


# ------------------------------------------------------------ schubert-chern


def _product_key(lam, mu):
    return [list(lam), list(mu)]


def _expr_terms(expr):
    return sorted([list(nu), str(c)] for nu, c in expr.terms.items())


def _schubert_setup(seed):
    from bggx import bgg, schur
    from bggx.partitions import box_partitions

    ctx = schur.grassmannian(PRODUCT_K, PRODUCT_Q)
    top = PRODUCT_K * (PRODUCT_Q - PRODUCT_K)
    parts = list(box_partitions(PRODUCT_K, PRODUCT_Q - PRODUCT_K))
    pairs = [(a, b) for a in parts for b in parts if sum(a) + sum(b) <= top]
    rng = random.Random(seed)
    rng.shuffle(pairs)
    classes = {lam: schur.SchubertExpr(ctx, {lam: 1}) for lam in parts}
    return {
        "bgg": bgg,
        "schur": schur,
        "pairs": pairs,
        "factors": [(classes[a], classes[b]) for a, b in pairs],
        "sample": sorted(rng.sample(range(len(pairs)), PRODUCT_SAMPLE)),
    }


def _schubert_run(state):
    verify, multiply = state["bgg"].verify_conjecture, state["schur"].multiply
    reports = [verify(k, q) for k, q in CONJECTURE_CELLS]
    products = [multiply(a, b) for a, b in state["factors"]]
    return reports, products


def _schubert_outputs(state, result):
    reports, products = result
    pairs = state["pairs"]
    listing = sorted((_product_key(a, b), _expr_terms(p)) for (a, b), p in zip(pairs, products))
    digest = hashlib.sha256(json.dumps(listing).encode()).hexdigest()
    out = {
        "statuses": {f"{r.k},{r.q}": r.status for r in reports},
        "products_sha256": digest,
        "n_products": len(products),
        "sample": [[_product_key(*pairs[i]), _expr_terms(products[i])] for i in state["sample"]],
    }
    return len(reports) + len(products), out


def _schubert_check(out, expected):
    from bggx.partitions import box_partitions
    from bggx.schur import lr_coefficient

    failed, msgs = 0, []
    for cell, status in expected["statuses"].items():
        if out["statuses"].get(cell) != status:
            failed += 1
            msgs.append(f"conjecture cell {cell}: {out['statuses'].get(cell)}, expected {status}")
    if out["products_sha256"] != expected["products_sha256"] or out["n_products"] != expected["n_products"]:
        failed += out["n_products"]
        msgs.append(f"Gr({PRODUCT_K},{PRODUCT_Q}) products differ from the recorded products")
    else:
        width = PRODUCT_Q - PRODUCT_K
        for (lam, mu), terms in out["sample"]:
            got = {tuple(nu): int(c) for nu, c in terms}
            size = sum(lam) + sum(mu)
            for nu in box_partitions(PRODUCT_K, width, min_size=size, max_size=size):
                if got.get(tuple(nu), 0) != lr_coefficient(tuple(lam), tuple(mu), tuple(nu)):
                    failed += 1
                    msgs.append(f"sigma_{lam} * sigma_{mu} disagrees with the LR count at {nu}")
                    break
    return failed, msgs


# ------------------------------------------------------------ repro


def _repro_setup(seed):
    from bggx import cli

    argv = ["--format", "json", "--jobs", "1", "repro", *REPRO_ARGS, "--seed", str(seed)]
    return {"cli": cli, "argv": argv}


def _repro_run(state):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = state["cli"].main(state["argv"])
    return code, buf.getvalue()


def _repro_outputs(_state, result):
    code, text = result
    doc = json.loads(text)
    res = doc["results"]
    battery = res["battery"]
    out = {
        "exit": code,
        "status": doc["status"],
        "sections": [[s["section"], s["ok"]] for s in res["sections"]],
        "battery": {key: battery[key] for key in ("checked", "trivial", "full_space_checked")},
        "battery_failures": len(battery["failures"]),
        "conjecture": {f"{row['k']},{row['q']}": row["status"] for row in res["conjecture"]},
    }
    items = battery["checked"] + battery["full_space_checked"] + len(res["conjecture"])
    return items, out


def _repro_check(out, expected):
    items = out["battery"]["checked"] + out["battery"]["full_space_checked"] + len(out["conjecture"])
    head = {key: out[key] for key in ("exit", "status", "sections", "battery")}
    if head != expected["head"]:
        return items, [f"repro summary {head}, expected {expected['head']}"]
    failed, msgs = out["battery_failures"], []
    if failed:
        msgs.append(f"repro battery lists {failed} failures")
    for cell, status in expected["conjecture"].items():
        if out["conjecture"].get(cell) != status:
            failed += 1
            msgs.append(f"repro conjecture cell {cell}: {out['conjecture'].get(cell)}, expected {status}")
    return failed, msgs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("battery-q6", _battery_setup, _battery_run, _battery_outputs, _battery_check),
        Workload("curves-e2", _curves_setup, _curves_run, _curves_outputs, _curves_check),
        Workload("schubert-chern", _schubert_setup, _schubert_run, _schubert_outputs, _schubert_check),
        Workload("repro", _repro_setup, _repro_run, _repro_outputs, _repro_check),
    )
}
