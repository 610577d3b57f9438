"""Per-layer spans for bggx, recorded from outside the package.

The tracer replaces chosen functions with timing wrappers.  Several
modules bind a function through ``from ... import`` (``complexes`` binds
``rank_mod``/``rank_exact``, ``models`` binds ``build_complex`` and
``exactness_prefix``, ``bgg`` binds ``sym_power_chern``), so the wrapper
is put in every ``bggx`` module attribute that holds the original
function object, which is where the name is actually looked up.

Spans stay in memory as ``(name id, parent index, start, end)`` and are
written once, when the traced repetition ends.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested in this single-threaded program, so children never overlap.

``partitions`` and ``coefpoly`` get no spans: their work is hundreds of
thousands of generator calls and operator overloads, and wrapping those
would distort the traced run.  Their time lands in the self time of the
spanned caller (``bgg.chern_F``, ``schur.class_product``, ...).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

# Functions that get a span, by module.  theorem_battery and e2_table are
# spanned too, so that their loops do not land in the self time of
# ``cli.main``.
SPANNED = {
    "ratlinalg": ("rank_mod", "rank_exact"),
    "complexes": ("build_complex", "exactness_prefix", "homology_dims", "e2_table"),
    "models": ("random_subspace", "theorem_battery"),
    "series": ("sym_power_chern", "substitute"),
    "schur": ("class_product", "multiply"),
    "bgg": ("verify_conjecture", "chern_F", "chern_G_coeffs"),
    "cli": ("main",),
}

# Every public function of these modules gets a span named module.function.
ALL_PUBLIC = ("bounds",)


def _shape(matrix) -> tuple[int, int]:
    m, n = np.shape(matrix)
    return int(m), int(n)


class Tracer:
    """Spans and counters for one traced repetition."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.product_keys: set = set()
        self._stack: list[int] = []
        self._patched: list = []

    # -------------------------------------------------------- wrappers

    def _span(self, name, fn, count=None, when=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, parent, start, end)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _counter(self, fn, count):
        """Wrapper that counts at a boundary without opening a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, result)
            return result

        return wrapper

    # -------------------------------------------------------- counters

    def _count_rank_mod(self, args, _result):
        m, n = _shape(args[0])
        self.counts["ratlinalg.rank_mod.ops"] += m * n * min(m, n)
        self.counts["ratlinalg.rank_mod.bytes"] += 8 * m * n

    def _count_rank_exact(self, args, _result):
        m, n = _shape(args[0])
        self.counts["ratlinalg.rank_exact.ops"] += m * n * min(m, n)

    def _count_build_complex(self, _args, result):
        self.counts["complexes.build_complex.nnz"] += sum(int(m.nnz) for m in result.maps)

    def _count_class_product(self, args, _result):
        lam, mu, ctx = args[0], args[1], args[2]
        a = tuple(p for p in lam if p)
        b = tuple(p for p in mu if p)
        self.product_keys.add((ctx, min(a, b), max(a, b)))

    def _count_modular_attempt(self, args, result):
        # _cert_rank_lb(mat, p, needed, attempt): settled when lb == needed
        self.counts["complexes.rank_attempts"] += 1
        if result == args[2]:
            self.counts["complexes.positions_settled"] += 1

    def _count_exact_fallback(self, _args, _result):
        self.counts["complexes.rank_attempts"] += 1
        self.counts["complexes.positions_settled"] += 1
        self.counts["complexes.positions_exact"] += 1

    # -------------------------------------------------------- patching

    def _replace(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bggx" or modname.startswith("bggx.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every traced function in every bggx module that binds it."""
        importlib.import_module("bggx.cli")  # imports every layer module
        special = {
            "ratlinalg.rank_mod": {"count": self._count_rank_mod},
            # the k x q independence checks in SubspaceW pass lists; only
            # ndarray calls are differential ranks
            "ratlinalg.rank_exact": {
                "count": self._count_rank_exact,
                "when": lambda args: type(args[0]).__name__ == "ndarray",
            },
            "complexes.build_complex": {"count": self._count_build_complex},
            "schur.class_product": {"count": self._count_class_product},
        }
        for modname, fnames in SPANNED.items():
            mod = importlib.import_module(f"bggx.{modname}")
            for fname in fnames:
                name = f"{modname}.{fname}"
                fn = getattr(mod, fname)
                self._replace(fn, self._span(name, fn, **special.get(name, {})))
        for modname in ALL_PUBLIC:
            mod = importlib.import_module(f"bggx.{modname}")
            for fname, fn in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not fname.startswith("_")
                ):
                    self._replace(fn, self._span(f"{modname}.{fname}", fn))
        complexes = importlib.import_module("bggx.complexes")
        self._replace(
            complexes._cert_rank_lb,
            self._counter(complexes._cert_rank_lb, self._count_modular_attempt),
        )
        self._replace(
            complexes._rank_exact_csr,
            self._counter(complexes._rank_exact_csr, self._count_exact_fallback),
        )

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -------------------------------------------------------- output

    def write(self, path) -> None:
        counts = dict(self.counts)
        counts["schur.class_product.distinct_keys"] = len(self.product_keys)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans, "counts": counts}, handle)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one written trace (see :meth:`Tracer.write`)."""
    names, spans, counts = trace["names"], trace["spans"], trace["counts"]
    child = [0.0] * len(spans)
    for _nid, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, (nid, _parent, start, end) in enumerate(spans):
        calls[names[nid]] += 1
        self_s[names[nid]] += (end - start) - child[i]

    def ratio(num, den):
        return num / den if den else 0.0

    settled = counts.get("complexes.positions_settled", 0)
    m = {}
    for layer in ("ratlinalg.rank_mod", "ratlinalg.rank_exact"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.ops"] = counts.get(f"{layer}.ops", 0)
    m["ratlinalg.rank_mod.bytes"] = counts.get("ratlinalg.rank_mod.bytes", 0)
    m["complexes.build_complex.calls"] = calls["complexes.build_complex"]
    m["complexes.build_complex.self_s"] = self_s["complexes.build_complex"]
    m["complexes.build_complex.nnz"] = counts.get("complexes.build_complex.nnz", 0)
    m["complexes.exactness_prefix.self_s"] = self_s["complexes.exactness_prefix"]
    m["complexes.homology_dims.self_s"] = self_s["complexes.homology_dims"]
    m["complexes.e2_table.self_s"] = self_s["complexes.e2_table"]
    m["complexes.rank_useful_ratio"] = ratio(settled, counts.get("complexes.rank_attempts", 0))
    m["complexes.exact_fallback_ratio"] = ratio(counts.get("complexes.positions_exact", 0), settled)
    m["models.random_subspace.calls"] = calls["models.random_subspace"]
    m["models.random_subspace.self_s"] = self_s["models.random_subspace"]
    m["models.theorem_battery.self_s"] = self_s["models.theorem_battery"]
    m["series.sym_power_chern.calls"] = calls["series.sym_power_chern"]
    m["series.sym_power_chern.self_s"] = self_s["series.sym_power_chern"]
    m["series.substitute.self_s"] = self_s["series.substitute"]
    m["schur.class_product.calls"] = calls["schur.class_product"]
    m["schur.class_product.self_s"] = self_s["schur.class_product"]
    m["schur.class_product.distinct_ratio"] = ratio(
        counts.get("schur.class_product.distinct_keys", 0), calls["schur.class_product"]
    )
    m["schur.multiply.self_s"] = self_s["schur.multiply"]
    m["bgg.verify_conjecture.calls"] = calls["bgg.verify_conjecture"]
    m["bgg.chern_F.self_s"] = self_s["bgg.chern_F"]
    m["bgg.chern_G_coeffs.self_s"] = self_s["bgg.chern_G_coeffs"]
    m["bounds.self_s"] = sum(v for k, v in self_s.items() if k.startswith("bounds."))
    m["cli.main.self_s"] = self_s["cli.main"]
    return m
