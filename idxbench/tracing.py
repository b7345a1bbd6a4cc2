"""Per-layer tracing of idxloc from outside the package.

Wraps the public functions of the layers ``cli`` (only ``main``),
``bounds``, ``_kernel``, ``codes``, ``linalg`` and ``graphs``, and
rebinds every module-level name in ``idxloc.*`` that refers to one of
them (the package binds names at import, so ``idxloc.cli`` and
``idxloc.codes`` hold their own references).  Each call becomes a span
(name, start, end, parent); spans stay in memory and are aggregated per
(name, parent) with their count, duration and self time, which is the
duration minus the time covered by wrapped children.  Individual spans
are kept up to a cap per name, because hot kernels run hundreds of
thousands of times.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = {
    "cli": "idxloc.cli",
    "bounds": "idxloc.bounds",
    "kernel": "idxloc._kernel",
    "codes": "idxloc.codes",
    "linalg": "idxloc.linalg",
    "graphs": "idxloc.graphs",
}
SPANS_KEPT_PER_NAME = 1000


def _public_functions(layer: str, module) -> dict[str, object]:
    if layer == "cli":
        return {"main": module.main}
    if layer == "kernel":
        return {name: getattr(module, name) for name in module.__all__ if name != "backend"}
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, time covered by children]
        self._originals: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._kept: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Start a fresh aggregate; kept spans are not cleared."""
        self.agg: dict[tuple[str, str | None], list] = {}  # calls, total, self
        self.hits = 0
        self.cells = 0

    def _wrap(self, name: str, fn):
        stack = self._stack
        tracer = self
        count_hits = name == "kernel.min_query_sets"
        count_cells = name == "linalg.rref"

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                rec = tracer.agg.get((name, parent))
                if rec is None:
                    rec = tracer.agg[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                kept = tracer._kept.get(name, 0)
                if kept < SPANS_KEPT_PER_NAME:
                    tracer._kept[name] = kept + 1
                    tracer.spans.append((name, start, end, parent))
            if count_hits and result is not None:
                tracer.hits += 1
            if count_cells:
                tracer.cells += args[0].rows * args[0].cols
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind every reference to a wrapped function in idxloc.*."""
        wrappers: dict[int, object] = {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for fname, fn in _public_functions(layer, module).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "idxloc" or modname.startswith("idxloc.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one wrapped function, over all parents."""
        calls, self_s = 0, 0.0
        for (n, _), rec in self.agg.items():
            if n == name:
                calls += rec[0]
                self_s += rec[2]
        return calls, self_s

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the current aggregate."""
        t = self.totals
        mqs_calls, mqs_self = t("kernel.min_query_sets")
        out = {
            "kernel.min_query_sets.calls": mqs_calls,
            "kernel.min_query_sets.self_s": mqs_self,
            "kernel.min_query_sets.hit_ratio": self.hits / mqs_calls if mqs_calls else 0.0,
            "kernel.minrank_dfs.calls": t("kernel.minrank_dfs")[0],
            "kernel.minrank_dfs.self_s": t("kernel.minrank_dfs")[1],
            "bounds.search.self_s": t("bounds.exhaustive_scalar_search")[1]
            + t("bounds.exhaustive_vector_search")[1],
            "bounds.pareto_merge.self_s": t("bounds.pareto_merge")[1],
            "bounds.minrank_bruteforce.calls": t("bounds.minrank_bruteforce")[0],
            "bounds.minrank_bruteforce.self_s": t("bounds.minrank_bruteforce")[1],
            "bounds.converse_checks.self_s": t("bounds.converse_checks")[1],
            "codes.io.self_s": t("codes.load_code")[1] + t("codes.save_code")[1],
            "linalg.rref.cells": self.cells,
            "linalg.null_space_basis.calls": t("linalg.null_space_basis")[0],
            "linalg.vector_matrix.self_s": t("linalg.vector_matrix")[1],
            "graphs.parse_graph.self_s": t("graphs.parse_graph")[1],
            "graphs.induced_subgraph.calls": t("graphs.induced_subgraph")[0],
            "graphs.shortest_directed_cycle.self_s": t("graphs.shortest_directed_cycle")[1],
            "cli.self_s": t("cli.main")[1],
        }
        for name in (
            "codes.verify_decodable", "codes.encode", "codes.decode_receiver",
            "linalg.rref", "linalg.solve_in_span", "graphs.expand_indices",
        ):
            out[f"{name}.calls"], out[f"{name}.self_s"] = t(name)
        return out

    def write(self, path) -> None:
        doc = {
            "aggregate": [
                {"name": n, "parent": p, "calls": c, "total_s": tot, "self_s": s}
                for (n, p), (c, tot, s) in sorted(self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
