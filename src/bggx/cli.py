"""Command-line front end.

Every computation the package performs is reachable from the `bggx`
command: Schubert products, symmetric-power Chern tables, the staircase
conjecture sweep, g-polynomial extraction, Hodge-number bounds, complex
exactness checks over explicit data, the worked models, and a one-shot
`repro` run that exercises all of the pinned anchor values together.

Output contract: `--format json` emits a stable envelope
{command, parameters, results, status} serialized with sorted keys, so
repeated runs with identical flags produce identical bytes; wall time
appears only in the text rendering.  Exit codes: 0 pass (warnings do
not fail), 1 mathematical mismatch, 2 usage error (a bad flag value,
such as --w "1/0"), 3 input-data error (a missing or malformed file, a
bad number in it, or input too large to rank), 4 internal error (a
RuntimeError or ArithmeticError, such as a failed rank-bookkeeping
guard: a fault of the program, not of the input).  Input is checked
where it is loaded or parsed, so a bad number never surfaces as 4.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import anchors, bgg, bounds, complexes, models, schur, series
from .anchors import DEFAULT_SEED
from .inputs import DataError
from .partitions import format_partition, parse_partition

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


@dataclass
class RunReport:
    """One command's outcome in every output format at once."""

    command: str
    parameters: dict
    results: dict
    status: str  # PASS, WARN or FAIL
    rows: list = field(default_factory=list)  # tabular view, one dict per row
    lines: list = field(default_factory=list)  # human-readable view
    wall_time: float = 0.0

    def to_json(self) -> dict:
        # wall time stays out: repeated runs must serialize identically
        return {
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "status": self.status,
        }


# ------------------------------------------------------------ plumbing


def _emit(report: RunReport, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        if report.rows:
            writer = csv.DictWriter(
                buf, fieldnames=list(report.rows[0].keys()), lineterminator="\n"
            )
            writer.writeheader()
            writer.writerows(report.rows)
        text = buf.getvalue()
    else:
        lines = list(report.lines)
        lines.append(f"status: {report.status}")
        lines.append(f"wall time: {report.wall_time:.2f}s")
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_range(text: str) -> list[int]:
    """Accept "3", "2..4", or "2,3,4"."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in text:
        return [int(piece) for piece in text.split(",")]
    return [int(text)]


def _parse_w_columns(text: str) -> list[list[Fraction]]:
    """Columns separated by ';', entries by ',', each entry a rational."""
    columns = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty column in --w")
        try:
            columns.append([Fraction(entry.strip()) for entry in chunk.split(",")])
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in --w column {chunk!r}") from exc
    return columns


def _load_json_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc


def _write_json_file(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _conjecture_cell(cell: tuple) -> "bgg.ConjectureReport":
    return bgg.verify_conjecture(*cell)


def _pmap(fn, items, jobs: int) -> list:
    """Map over independent cells, across processes when jobs > 1.

    Each cell is pure, so ordering only matters for output assembly;
    map() already returns results in submission order.
    """
    items = list(items)
    if jobs and jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _monomial(exponents, letter: str = "e") -> str:
    bits = [
        f"{letter}{i + 1}^{e}" if e > 1 else f"{letter}{i + 1}"
        for i, e in enumerate(exponents)
        if e
    ]
    return "*".join(bits) or "1"


def _e2_lines(table: "complexes.E2Table") -> list[str]:
    d = len(table.entries[0]) - 1
    lines = [f"e[i][j] for i = 0..{len(table.entries) - 1}, j = 0..{d}:"]
    for row in table.entries:
        lines.append("  " + " ".join(f"{e:6d}" for e in row))
    lines.append("hypercohomology: " + ", ".join(str(h) for h in table.hyper))
    return lines


# ------------------------------------------------------------ commands


def _cmd_schubert_mult(args) -> RunReport:
    ctx = schur.grassmannian(args.k, args.q)
    lhs = parse_partition(args.lhs)
    rhs = parse_partition(args.rhs)
    product = schur.class_product(lhs, rhs, ctx)
    terms = list(product.sorted_terms())
    return RunReport(
        command="schubert mult",
        parameters={"k": args.k, "q": args.q, "lhs": list(lhs), "rhs": list(rhs)},
        results={
            "product": [
                {"partition": list(lam), "coeff": str(c)} for lam, c in terms
            ]
        },
        status="PASS",
        rows=[
            {"partition": format_partition(lam), "coeff": str(c)}
            for lam, c in terms
        ],
        lines=[
            f"sigma({format_partition(lhs)}) * sigma({format_partition(rhs)})"
            f" in Gr({args.k},{args.q}):",
            "  " + schur.format_expr(product),
        ],
    )


def _cmd_chern_sym(args) -> RunReport:
    table = series.sym_power_chern(args.rank, args.power, args.max_degree)
    rows = []
    lines = [f"c(Sym^{args.power} E), rank(E) = {args.rank}, by degree:"]
    for degree, slice_ in enumerate(table.entries):
        pieces = []
        for exponents, coeff in sorted(slice_.items()):
            rows.append(
                {
                    "degree": degree,
                    "monomial": _monomial(exponents),
                    "coeff": str(coeff),
                }
            )
            pieces.append(
                str(coeff) if coeff == 1 and not any(exponents)
                else f"{coeff}*{_monomial(exponents)}"
            )
        lines.append(f"  c_{degree} = " + (" + ".join(pieces) if pieces else "0"))
    return RunReport(
        command="chern sym",
        parameters={
            "rank": args.rank,
            "power": args.power,
            "max_degree": args.max_degree,
        },
        results=table.to_json(),
        status="PASS",
        rows=rows,
        lines=lines,
    )


def _conjecture_rows(reports) -> list[dict]:
    return [
        {
            "k": r.k,
            "q": r.q,
            "mu": format_partition(r.mu),
            "mu_coefficient": str(r.mu_coefficient),
            "codim_mu": r.codim_mu,
            "rank_lower_bound": r.rank_lower_bound,
            "status": r.status,
        }
        for r in reports
    ]


def _cmd_conjecture_verify(args) -> RunReport:
    k_values = _parse_int_range(args.k)
    cells = [
        (k, q)
        for k in k_values
        for q in range(k + 1, args.q_max + 1)
    ]
    if not cells:
        raise ValueError(
            f"--k {args.k} with --q-max {args.q_max} gives no cells:"
            " each cell needs a k from --k with k < q <= --q-max"
        )
    reports = _pmap(_conjecture_cell, cells, args.jobs)
    n_fail = sum(1 for r in reports if r.status == "FAIL")
    n_warn = sum(1 for r in reports if r.status == "WARN")
    status = "FAIL" if n_fail else ("WARN" if n_warn else "PASS")
    lines = [
        f"k={r.k} q={r.q} mu=({format_partition(r.mu)})"
        f" coeff={r.mu_coefficient} {r.status}"
        for r in reports
    ]
    lines.append(f"{len(reports)} cells: {n_fail} fail, {n_warn} warn")
    return RunReport(
        command="conjecture verify",
        parameters={"k": k_values, "q_max": args.q_max},
        results={"reports": [r.to_json() for r in reports]},
        status=status,
        rows=_conjecture_rows(reports),
        lines=lines,
    )


def _cmd_gclass(args) -> RunReport:
    table = bgg.chern_G_coeffs(args.k, args.max_degree)
    items = sorted(table.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return RunReport(
        command="gclass",
        parameters={"k": args.k, "max_degree": args.max_degree},
        results=table.to_json(),
        status="PASS",
        rows=[
            {"partition": format_partition(lam), "polynomial": str(poly)}
            for lam, poly in items
        ],
        lines=[f"valid once q - {args.k} >= {args.max_degree}:"]
        + [f"  g({format_partition(lam)}) = {poly}" for lam, poly in items],
    )


def _cmd_bounds_h20(args) -> RunReport:
    d, q = args.d, args.q
    k_values = [args.k] if args.k is not None else list(range(1, max(d, 2)))
    rows = []

    def add(name, k, value, applicable, note=""):
        rows.append(
            {
                "bound": name,
                "k": "" if k is None else k,
                "value": str(value),
                "applicable": applicable,
                "note": note,
            }
        )

    t11 = bounds.thm11_bound(d, q)
    add("piecewise h20", None, t11.value, True, f"family max {t11.family_max}")
    sub = bounds.subvariety_bound(d, 2, 0)
    add("abelian subvariety", None, sub.value, sub.applicable)
    for k in k_values:
        add("first Chern", k, bounds.c1_bound(q, k), True)
        c2 = bounds.c2_bound(q, k)
        add(
            "second Chern", k, c2.min_h if c2.applicable else "",
            c2.applicable, f"radicand {c2.radicand}" if c2.applicable else "",
        )
        add("series truncation", k, bounds.truncation_bound(q, k), True)
        add("conditional top Chern", k, bounds.hypothetical_top_chern_bound(q, k), True)
        bb = bounds.binom_bound(k, 2, 0, d)
        add("nondegenerate subspace", k, bb.value, bb.applicable)
        if 1 <= k < q:
            cb = bounds.conjecture_rank_bound(q, k)
            add("staircase rank", k, cb.h_bound, True, f"rank {cb.rank_bound}")
    width = max(len(r["bound"]) for r in rows)
    lines = [f"lower bounds for h^(2,0), d={d}, q={q}:"]
    for r in rows:
        flag = "" if r["applicable"] else "  [not applicable]"
        kcol = f" k={r['k']}" if r["k"] != "" else ""
        note = f"  ({r['note']})" if r["note"] else ""
        lines.append(f"  {r['bound']:<{width}}{kcol}: {r['value']}{note}{flag}")
    return RunReport(
        command="bounds h20",
        parameters={"d": d, "q": q, "k": args.k},
        results={"bounds": rows},
        status="PASS",
        rows=rows,
        lines=lines,
    )


def _cmd_bounds_check(args) -> RunReport:
    payload = _load_json_file(args.hodge)
    try:
        vector = bounds.HodgeVector.from_json(payload)
        hrows = [vector.row_for(j) for j in range(vector.d + 1)]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{args.hodge}: {exc}") from exc
    rows = []
    bad = 0
    for j, hrow in enumerate(hrows):
        for p in range(min(args.r, len(hrow) - 1) + 1):
            value = bounds.alternating_sum(hrow, args.r, args.k, p)
            ok = value >= 0
            bad += not ok
            rows.append({"j": j, "p": p, "value": str(value), "ok": ok})
    status = "PASS" if bad == 0 else "FAIL"
    lines = [
        f"alternating sums, r={args.r}, k={args.k}, q={vector.q}, d={vector.d}:"
    ] + [
        f"  j={r['j']} p={r['p']}: {r['value']}" + ("" if r["ok"] else "  NEGATIVE")
        for r in rows
    ]
    return RunReport(
        command="bounds check",
        parameters={"hodge": args.hodge, "k": args.k, "r": args.r},
        results={"sums": rows, "violations": bad},
        status=status,
        rows=rows,
        lines=lines,
    )


def _cmd_complex_check(args) -> RunReport:
    datum = complexes.HodgeDatum.from_json(_load_json_file(args.input))
    violation = datum.check_anticommutation()
    if violation is not None:
        a, b, i, j = violation
        raise DataError(
            f"{args.input}: datum violates anticommutation at"
            f" (a={a}, b={b}, i={i}, j={j})"
        )
    W = complexes.SubspaceW(_parse_w_columns(args.w))
    if args.e2_table:
        # the table ranks every j, so the requested homology is its column j
        dims = complexes.term_dims(datum, W.k, args.r, args.j)
        table = complexes.e2_table(datum, W, args.r)
        homology = [row[args.j] for row in table.entries]
    else:
        built = complexes.build_complex(datum, W, args.r, args.j)
        dims = built.term_dims
        homology = complexes.homology_dims(built)
    # the exactness prefix is the run of leading zeros in the homology
    prefix = next((i for i, h in enumerate(homology) if h), len(homology))
    results = {
        "term_dims": list(dims),
        "homology": list(homology),
        "exactness_prefix": prefix,
    }
    lines = [
        f"term dims: {', '.join(map(str, dims))}",
        f"homology:  {', '.join(map(str, homology))}",
        f"exactness prefix: {prefix}",
    ]
    if args.e2_table:
        results["e2"] = table.to_json()
        lines += _e2_lines(table)
    rows = [
        {"i": i, "term_dim": dim, "homology": h}
        for i, (dim, h) in enumerate(zip(dims, homology))
    ]
    return RunReport(
        command="complex check",
        parameters={"input": args.input, "w": args.w, "r": args.r, "j": args.j},
        results=results,
        status="PASS",
        rows=rows,
        lines=lines,
    )


def _cmd_example_curves(args) -> RunReport:
    datum, W, table = anchors.curves_table()
    failures = anchors.curves_failures(table)
    status = "FAIL" if failures else "PASS"
    lines = _e2_lines(table) + [
        f"anchor {name} = {got} (expected {pinned}): {'PASS' if got == pinned else 'FAIL'}"
        for name, got, pinned in anchors.curves_anchors(table)
    ]
    if args.emit_datum:
        _write_json_file(args.emit_datum, datum.to_json())
        lines.append(f"datum written to {args.emit_datum}")
    return RunReport(
        command="example curves",
        parameters={"emit_datum": args.emit_datum},
        results={
            "e2": table.to_json(),
            "w_columns": [[str(x) for x in col] for col in W.columns],
            "failures": failures,
        },
        status=status,
        rows=[{"i": i, "j": j, "value": e} for i, j, e in table.nonzero()],
        lines=lines,
    )


def _cmd_model_abelian(args) -> RunReport:
    datum = models.abelian_model(args.q)
    rows = [
        {"i": i, "j": j, "dim": dim}
        for i, row in enumerate(datum.dims)
        for j, dim in enumerate(row)
    ]
    lines = [f"exterior-algebra datum, q = {args.q}; h^(i,j) grid:"]
    for row in datum.dims:
        lines.append("  " + " ".join(f"{dim:6d}" for dim in row))
    if args.emit_datum:
        _write_json_file(args.emit_datum, datum.to_json())
        lines.append(f"datum written to {args.emit_datum}")
    return RunReport(
        command="model abelian",
        parameters={"q": args.q, "emit_datum": args.emit_datum},
        results={"dims": [list(row) for row in datum.dims]},
        status="PASS",
        rows=rows,
        lines=lines,
    )


def _cmd_identity_combin(args) -> RunReport:
    checked, failures = anchors.combin_failures(args.max)
    status = "FAIL" if failures else "PASS"
    return RunReport(
        command="identity combin",
        parameters={"max": args.max},
        results={"checked": checked, "failures": failures},
        status=status,
        rows=[{"max": args.max, "checked": checked, "failures": len(failures)}],
        lines=[
            f"checked {checked} (A,B) pairs with A,B <= {args.max}:"
            f" {len(failures)} failures"
        ]
        + [f"  {f}" for f in failures],
    )


def _cmd_repro(args) -> RunReport:
    if args.q_max < 2:
        raise ValueError(
            f"--q-max {args.q_max} gives an empty exactness battery:"
            " it runs q = 2..--q-max"
        )
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    sections = []
    failures: list[str] = []
    lines = []

    def record(name: str, detail: str, section_failures: list[str]) -> None:
        ok = not section_failures
        sections.append({"section": name, "detail": detail, "ok": ok})
        failures.extend(section_failures)
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    reports = _pmap(_conjecture_cell, anchors.CONJECTURE_CELLS, args.jobs)
    record(
        "conjecture sweep",
        f"{len(reports)} cells, k=2..4, q<=12",
        [f"conjecture sweep (k={r.k}, q={r.q})" for r in reports if not r.passed],
    )

    record("g polynomials", "closed forms and factorization, k=1..6", anchors.g_poly_failures())

    _, _, table = anchors.curves_table()
    record(
        "curves product example",
        f"nonzero e2 {table.nonzero()}, hyper {table.hyper}",
        anchors.curves_failures(table),
    )

    battery = models.theorem_battery(
        q_values=tuple(range(2, args.q_max + 1)), n_w=args.n_w, seed=seed
    )
    record(
        "abelian exactness battery",
        f"{battery.checked} checked, {battery.trivial} trivial,"
        f" {battery.full_space_checked} full-space, seed {seed}",
        [
            "abelian battery (q={q}, k={k}, r={r}, j={j})".format(**f)
            for f in battery.failures
        ],
    )

    checked, combin_fails = anchors.combin_failures(30)
    record("combin identity sweep", f"{checked} pairs, A,B <= 30", combin_fails)

    record("bound identities", "piecewise/family, Chern thresholds, corollary chain", anchors.bound_identity_failures())

    status = "FAIL" if failures else "PASS"
    lines.append(f"seed: {seed}")
    if failures:
        lines.append("failing anchors:")
        lines.extend(f"  {f}" for f in failures)
    return RunReport(
        command="repro",
        parameters={"q_max": args.q_max, "n_w": args.n_w, "seed": seed},
        results={
            "sections": sections,
            "failures": failures,
            "battery": battery.to_json(),
            "conjecture": _conjecture_rows(reports),
        },
        status=status,
        rows=sections,
        lines=lines,
    )


# ------------------------------------------------------------ parser


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--format", choices=("json", "csv", "text"))
    shared.add_argument("--jobs", type=_positive)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--out")

    parser = argparse.ArgumentParser(
        prog="bggx",
        description="exact Schubert calculus, derivative complexes, Hodge bounds",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--jobs", type=_positive, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    top = parser.add_subparsers(dest="group", required=True)

    schubert = top.add_parser("schubert", help="Schubert calculus")
    schubert_sub = schubert.add_subparsers(dest="command", required=True)
    mult = schubert_sub.add_parser("mult", parents=[shared], help="product of two classes")
    mult.add_argument("--k", type=_positive, required=True)
    mult.add_argument("--q", type=_positive, required=True)
    mult.add_argument("--lhs", required=True, help='partition, e.g. "2,1"')
    mult.add_argument("--rhs", required=True)
    mult.set_defaults(handler=_cmd_schubert_mult)

    chern = top.add_parser("chern", help="Chern class tables")
    chern_sub = chern.add_subparsers(dest="command", required=True)
    sym = chern_sub.add_parser("sym", parents=[shared], help="c(Sym^r E) in c_i(E)")
    sym.add_argument("--rank", type=_positive, required=True)
    sym.add_argument("--power", type=_positive, required=True)
    sym.add_argument("--max-degree", type=_nonnegative, required=True)
    sym.set_defaults(handler=_cmd_chern_sym)

    conjecture = top.add_parser("conjecture", help="staircase coefficient checks")
    conjecture_sub = conjecture.add_subparsers(dest="command", required=True)
    verify = conjecture_sub.add_parser("verify", parents=[shared])
    verify.add_argument("--k", default="2..4", help='range, e.g. "2..4" or "3"')
    verify.add_argument("--q-max", type=_positive, default=12)
    verify.set_defaults(handler=_cmd_conjecture_verify)

    gclass = top.add_parser("gclass", parents=[shared], help="g polynomials in h and q")
    gclass.add_argument("--k", type=_positive, required=True)
    gclass.add_argument("--max-degree", type=_positive, default=2)
    gclass.set_defaults(handler=_cmd_gclass)

    bounds_parser = top.add_parser("bounds", help="Hodge-number bounds")
    bounds_sub = bounds_parser.add_subparsers(dest="command", required=True)
    h20 = bounds_sub.add_parser("h20", parents=[shared], help="h^(2,0) bound table")
    h20.add_argument("--q", type=_nonnegative, required=True)
    h20.add_argument("--d", type=_positive, required=True)
    h20.add_argument("--k", type=_positive, default=None)
    h20.set_defaults(handler=_cmd_bounds_h20)
    check = bounds_sub.add_parser("check", parents=[shared], help="alternating-sum conformance")
    check.add_argument("--hodge", required=True, help="Hodge table JSON file")
    check.add_argument("--k", type=_positive, required=True)
    check.add_argument("--r", type=_positive, required=True)
    check.set_defaults(handler=_cmd_bounds_check)

    complex_parser = top.add_parser("complex", help="derivative complexes over a datum")
    complex_sub = complex_parser.add_subparsers(dest="command", required=True)
    ccheck = complex_sub.add_parser("check", parents=[shared])
    ccheck.add_argument("--input", required=True, help="datum JSON file")
    ccheck.add_argument("--w", required=True, help='columns, e.g. "1,0,0;0,1,0"')
    ccheck.add_argument("--r", type=_positive, required=True)
    ccheck.add_argument("--j", type=_nonnegative, required=True)
    ccheck.add_argument("--e2-table", action="store_true")
    ccheck.set_defaults(handler=_cmd_complex_check)

    example = top.add_parser("example", help="worked examples with pinned anchors")
    example_sub = example.add_subparsers(dest="command", required=True)
    curves = example_sub.add_parser("curves", parents=[shared])
    curves.add_argument("--emit-datum", default=None, metavar="FILE")
    curves.set_defaults(handler=_cmd_example_curves)

    model = top.add_parser("model", help="builders for explicit Hodge data")
    model_sub = model.add_subparsers(dest="command", required=True)
    abelian = model_sub.add_parser("abelian", parents=[shared])
    abelian.add_argument("--q", type=_positive, required=True)
    abelian.add_argument("--emit-datum", default=None, metavar="FILE")
    abelian.set_defaults(handler=_cmd_model_abelian)

    identity = top.add_parser("identity", help="combinatorial identities")
    identity_sub = identity.add_subparsers(dest="command", required=True)
    combin = identity_sub.add_parser("combin", parents=[shared])
    combin.add_argument("--max", type=_nonnegative, default=30)
    combin.set_defaults(handler=_cmd_identity_combin)

    repro = top.add_parser(
        "repro", parents=[shared], help="one-shot run of every pinned anchor"
    )
    repro.add_argument("--q-max", type=_positive, default=6)
    repro.add_argument("--n-w", type=_positive, default=20)
    repro.set_defaults(handler=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a run's objects are few next to the import-time heap (numpy, bggx);
    # frozen, that heap is left out of every full collection
    gc.freeze()
    start = time.perf_counter()
    try:
        report = args.handler(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report.wall_time = time.perf_counter() - start
    _emit(report, args.format, args.out)
    return EXIT_PASS if report.status in ("PASS", "WARN") else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
