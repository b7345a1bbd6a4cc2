"""Tests of the per-layer tracer on a small idxloc call.

    python3 -m pytest idxbench/test_tracing.py -q
"""

from __future__ import annotations

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import idxloc  # noqa: E402
import idxloc.bounds  # noqa: E402
import idxloc.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_tracer_counts_calls_and_splits_self_time(tmp_path):
    graph = tmp_path / "c4.txt"
    graph.write_text("N=4\n1: 2\n2: 3\n3: 4\n4: 1\n", encoding="utf-8")
    original = idxloc.bounds.minrank_bruteforce
    tracer = Tracer()
    tracer.install()
    try:
        assert idxloc.bounds.minrank_bruteforce is not original
        assert idxloc.cli.minrank_bruteforce is idxloc.bounds.minrank_bruteforce
        with redirect_stdout(StringIO()):
            assert idxloc.cli.main(["minrank", "--graph", str(graph), "--out", str(tmp_path / "w.json")]) == 0
        m = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert idxloc.bounds.minrank_bruteforce is original
    assert m["bounds.minrank_bruteforce.calls"] == 1
    assert m["kernel.minrank_dfs.calls"] == 1
    assert m["graphs.parse_graph.self_s"] > 0
    ((_, total, self_s),) = [rec for (name, _), rec in tracer.agg.items() if name == "cli.main"]
    children = sum(rec[1] for (_, parent), rec in tracer.agg.items() if parent == "cli.main")
    assert abs(self_s - (total - children)) < 1e-9
    assert m["cli.self_s"] == self_s


def test_tracer_reports_hit_ratio_and_rref_cells():
    tracer = Tracer()
    tracer.install()
    try:
        idxloc.exhaustive_scalar_search(idxloc.directed_cycle(3), 2, 2)
        idxloc.rank(idxloc.FqMatrix.identity(3, 2))
        m = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    # One call per multiset of 2 of the 7 nonzero columns of F_2^3.
    assert m["kernel.min_query_sets.calls"] == 28
    assert 0 < m["kernel.min_query_sets.hit_ratio"] < 1
    assert m["linalg.rref.cells"] >= 9
