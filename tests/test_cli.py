"""Command-line interface: outputs, exit codes, determinism."""

import collections
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import idxloc
from idxloc import cli
from idxloc.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT, EXIT_OK, main
from idxloc.codes import (
    IndexCode, code_to_json_dict, load_code, locality_profile, require_plan, save_code,
)
from idxloc.constructions import cycle_scalar_code, cycle_vector_code
from idxloc.graphs import directed_cycle, graph_from_side_info, parse_graph
from idxloc.linalg import FqMatrix

from helpers import format_graph, malformed_code_docs

README = Path(__file__).resolve().parent.parent / "README.md"

# Each subcommand's required and optional flags, as README.md lists them.
SUBCOMMAND_FLAGS = {
    "minrank": ({"--graph"}, {"--q", "--budget", "--out"}),
    "construct": ({"--graph", "--scheme", "--out"}, {"--q", "--M"}),
    "verify": ({"--graph", "--code"}, {"--budget"}),
    "profile": ({"--code"}, set()),
    "tradeoff": ({"--graph"}, {"--out"}),
    "oracle": ({"--graph", "--ell", "--out"}, {"--q", "--M", "--r", "--budget"}),
    "normalize": ({"--graph", "--code", "--out"}, set()),
}


@pytest.fixture
def cycle3_file(tmp_path):
    path = tmp_path / "cycle3.txt"
    path.write_text(format_graph(directed_cycle(3)), encoding="utf-8")
    return path


@pytest.fixture
def cycle4_file(tmp_path):
    path = tmp_path / "cycle4.txt"
    path.write_text(format_graph(directed_cycle(4)), encoding="utf-8")
    return path


@pytest.fixture
def cycle5_file(tmp_path):
    path = tmp_path / "cycle5.txt"
    path.write_text(format_graph(directed_cycle(5)), encoding="utf-8")
    return path


def test_minrank_cycle(cycle3_file, tmp_path, capsys):
    out = tmp_path / "witness.json"
    code = main(
        ["minrank", "--graph", str(cycle3_file), "--q", "2", "--out", str(out)]
    )
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "minrank=2" in captured
    doc = json.loads(out.read_text())
    assert doc["N"] == 3
    assert len(doc["A"]) == 3


def test_minrank_writes_its_witness_beside_the_graph(cycle3_file, tmp_path, capsys):
    assert main(["minrank", "--graph", str(cycle3_file)]) == EXIT_OK
    witness = tmp_path / "cycle3_minrank_witness.json"
    assert capsys.readouterr().out == f"minrank=2\nwitness={witness}\n"
    assert json.loads(witness.read_text())["A"] == [[1, 0, 1], [1, 1, 0], [0, 1, 1]]


def test_minrank_dag(tmp_path, capsys):
    g = graph_from_side_info([{2}, {3}, set()])
    path = tmp_path / "dag.txt"
    path.write_text(format_graph(g), encoding="utf-8")
    code = main(["minrank", "--graph", str(path), "--q", "2",
                 "--out", str(tmp_path / "w.json")])
    assert code == EXIT_OK
    assert "minrank=3" in capsys.readouterr().out


def test_minrank_on_many_vertices(tmp_path, capsys):
    # One column per vertex; the search keeps its own stack, so its depth
    # is not bounded by the interpreter's recursion limit.
    path = tmp_path / "edgeless.txt"
    path.write_text("N=2000\n", encoding="utf-8")
    code = main(["minrank", "--graph", str(path), "--out", str(tmp_path / "w.json")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "minrank=2000"


def test_minrank_budget_exit(cycle3_file, tmp_path):
    code = main(
        ["minrank", "--graph", str(cycle3_file), "--budget", "1",
         "--out", str(tmp_path / "w.json")]
    )
    assert code == EXIT_BUDGET


def test_construct_cycle_vector(cycle5_file, tmp_path, capsys):
    out = tmp_path / "code.json"
    code = main(
        ["construct", "--graph", str(cycle5_file), "--scheme", "cycle-vector",
         "--q", "2", "--M", "5", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "beta=4 r=8/5 r_avg=8/5" in capsys.readouterr().out
    built = load_code(out)
    assert built.m == 5 and built.ell == 20


def test_construct_uncoded(cycle3_file, tmp_path, capsys):
    code = main(
        ["construct", "--graph", str(cycle3_file), "--scheme", "uncoded",
         "--out", str(tmp_path / "u.json")]
    )
    assert code == EXIT_OK
    assert "beta=3 r=1 r_avg=1" in capsys.readouterr().out


def test_construct_deficit(tmp_path, capsys):
    g = graph_from_side_info([{2}, {3}, {1}, set()])
    path = tmp_path / "g.txt"
    path.write_text(format_graph(g), encoding="utf-8")
    code = main(
        ["construct", "--graph", str(path), "--scheme", "deficit",
         "--out", str(tmp_path / "d.json")]
    )
    assert code == EXIT_OK
    assert "beta=3 r=2 r_avg=5/4" in capsys.readouterr().out


def test_construct_deficit_refuses_an_acyclic_graph(tmp_path, capsys):
    path = tmp_path / "dag.txt"
    path.write_text(format_graph(graph_from_side_info([{2}, {3}, set()])), encoding="utf-8")
    out = tmp_path / "d.json"
    code = main(
        ["construct", "--graph", str(path), "--scheme", "deficit", "--out", str(out)]
    )
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: graph has no directed cycle; its min-rank equals n and the "
        "uncoded scheme is already optimal\n"
    )
    assert not out.exists()


def test_construct_deficit_on_a_long_cycle(tmp_path, capsys):
    # The girth search is iterative, so its depth is not bounded by the
    # interpreter's recursion limit.
    path = tmp_path / "c1000.txt"
    path.write_text(format_graph(directed_cycle(1000)), encoding="utf-8")
    code = main(
        ["construct", "--graph", str(path), "--scheme", "deficit",
         "--out", str(tmp_path / "d.json")]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "beta=999 r=2 r_avg=999/500\n"


def test_construct_scheme_graph_mismatch(tmp_path):
    g = graph_from_side_info([{2}, {3}, set()])
    path = tmp_path / "g.txt"
    path.write_text(format_graph(g), encoding="utf-8")
    code = main(
        ["construct", "--graph", str(path), "--scheme", "cycle-vector",
         "--out", str(tmp_path / "c.json")]
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize("scheme", ["cycle-scalar", "cycle-vector"])
def test_construct_cycle_scheme_rejects_two_cycle(tmp_path, capsys, scheme):
    path = tmp_path / "two.txt"
    path.write_text("N=2\n1: 2\n2: 1\n", encoding="utf-8")
    code = main(
        ["construct", "--graph", str(path), "--scheme", scheme,
         "--out", str(tmp_path / "c.json")]
    )
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("scheme", ["cycle-scalar", "cycle-vector"])
def test_construct_cycle_scheme_rejects_other_labelling(tmp_path, capsys, scheme):
    # The cycle 1 -> 3 -> 2 -> 1: a code laid on 1 -> 2 -> 3 -> 1 would
    # leave receivers 1 and 3 unable to decode.
    path = tmp_path / "c3.txt"
    path.write_text("N=3\n1: 3\n2: 1\n3: 2\n", encoding="utf-8")
    code = main(
        ["construct", "--graph", str(path), "--scheme", scheme,
         "--out", str(tmp_path / "c.json")]
    )
    assert code == EXIT_INPUT
    assert "labelled i -> i+1" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()
    # The closed-form curve holds for every labelling of the cycle.
    assert main(["tradeoff", "--graph", str(path)]) == EXIT_OK


@pytest.mark.parametrize("scheme, m", [("cycle-scalar", "3"), ("deficit", "2")])
def test_construct_scalar_scheme_refuses_message_length(
    cycle3_file, tmp_path, capsys, scheme, m
):
    out = tmp_path / "c.json"
    argv = ["construct", "--graph", str(cycle3_file), "--scheme", scheme,
            "--out", str(out)]
    assert main(argv + ["--M", m]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: scheme '{scheme}' builds scalar")
    assert not out.exists()
    assert main(argv + ["--M", "1"]) == EXIT_OK


def test_verify_pass_and_checks(cycle4_file, tmp_path, capsys):
    code_path = tmp_path / "c.json"
    save_code(cycle_scalar_code(4, 2, 1), code_path)
    code = main(["verify", "--graph", str(cycle4_file), "--code", str(code_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("PASS")
    assert "single_query_lower_bound" in out
    assert "slack=0" in out


def test_verify_prints_sampled_null_supports(tmp_path, capsys):
    # K_14 with one all-ones column over F_2 has fitting-matrix nullity 13,
    # above the exhaustive enumeration limit.
    n = 14
    g = graph_from_side_info([set(range(1, n + 1)) - {i} for i in range(1, n + 1)])
    graph_path = tmp_path / "k14.txt"
    graph_path.write_text(format_graph(g), encoding="utf-8")
    code_path = tmp_path / "ones.json"
    save_code(
        IndexCode(q=2, m=1, n=n, matrix=FqMatrix.from_columns([(1,) * n], n, 2),
                  queries=(frozenset({1}),) * n),
        code_path,
    )
    code = main(["verify", "--graph", str(graph_path), "--code", str(code_path)])
    assert code == EXIT_OK
    assert (
        "check null_support_family: not applicable (supports sampled from 91"
        " of the 8191 nonzero null vectors)"
    ) in capsys.readouterr().out.splitlines()


def test_verify_fail_lists_pairs(cycle4_file, tmp_path, capsys):
    base = cycle_scalar_code(4, 2, 1)
    doc_path = tmp_path / "broken.json"
    save_code(base, doc_path)
    doc = json.loads(doc_path.read_text())
    doc["queries"][1] = [1]  # receiver 2 loses its second query
    doc_path.write_text(json.dumps(doc))
    code = main(["verify", "--graph", str(cycle4_file), "--code", str(doc_path)])
    out = capsys.readouterr().out
    assert code == EXIT_FAIL
    assert "FAIL" in out
    assert "receiver=2 symbol=2" in out


def test_verify_structural_error(cycle3_file, tmp_path):
    code_path = tmp_path / "wrong.json"
    save_code(cycle_scalar_code(4, 2, 1), code_path)
    code = main(["verify", "--graph", str(cycle3_file), "--code", str(code_path)])
    assert code == EXIT_INPUT


def test_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("N=2\n1: 1\n", encoding="utf-8")
    code = main(["minrank", "--graph", str(bad), "--out", str(tmp_path / "w.json")])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", ["minrank", "tradeoff"])
def test_header_other_than_n_is_input_error(command, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("Nodes=2\n1: 2\n2: 1\n", encoding="utf-8")
    out = tmp_path / "w.json"
    assert main([command, "--graph", str(bad), "--out", str(out)]) == EXIT_INPUT
    assert "line 1: expected 'N=<int>' header" in capsys.readouterr().err
    assert not out.exists()


def test_profile_command(tmp_path, capsys):
    code_path = tmp_path / "c.json"
    save_code(cycle_scalar_code(5, 2, 1), code_path)
    assert main(["profile", "--code", str(code_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "beta=4 r=2 r_avg=8/5" in out
    assert "r_i=1 2 2 2 1" in out


def test_tradeoff_rows(cycle4_file, capsys):
    assert main(["tradeoff", "--graph", str(cycle4_file)]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "r,beta_star"
    assert "1,4" in lines
    assert "3/2,3" in lines
    assert "2,3" in lines


def test_tradeoff_cycle3_row(cycle3_file, capsys):
    assert main(["tradeoff", "--graph", str(cycle3_file)]) == EXIT_OK
    assert "4/3,2" in capsys.readouterr().out


def test_tradeoff_rejects_two_cycle(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("N=2\n1: 2\n2: 1\n", encoding="utf-8")
    assert main(["tradeoff", "--graph", str(path)]) == EXIT_INPUT


def test_tradeoff_rejects_non_cycle(tmp_path):
    g = graph_from_side_info([{2}, {3}, set()])
    path = tmp_path / "dag.txt"
    path.write_text(format_graph(g), encoding="utf-8")
    assert main(["tradeoff", "--graph", str(path)]) == EXIT_INPUT


def test_oracle_scalar_csv(cycle3_file, tmp_path, capsys):
    out = tmp_path / "pareto.csv"
    code = main(
        ["oracle", "--graph", str(cycle3_file), "--q", "2", "--M", "1",
         "--ell", "4", "--out", str(out)]
    )
    assert code == EXIT_OK
    text = out.read_text()
    # The (4, 1, 1) point of length 4 is dominated by (3, 1, 1) of length
    # 3, so the frontier across lengths leaves it out.
    g = parse_graph(cycle3_file.read_text())
    assert (4, 1, 1) in [p.profile() for p in idxloc.exhaustive_scalar_search(g, 2, 4)]
    assert text == (
        "beta,r,r_avg,witness_file\n"
        "2,2,4/3,pareto_witness_1.json\n"
        "3,1,1,pareto_witness_2.json\n"
    )
    assert capsys.readouterr().out == text
    # witness files decode against the instance
    for line in text.strip().splitlines()[1:]:
        witness_name = line.split(",")[3]
        witness = load_code(tmp_path / witness_name)
        require_plan(g, witness)


@pytest.mark.parametrize("cap", ["1", "3/2"])
def test_oracle_locality_cap(cycle3_file, tmp_path, capsys, cap):
    # Both caps allow one query per receiver, so only the uncoded profile
    # is left.
    out = tmp_path / "pareto.csv"
    code = main(
        ["oracle", "--graph", str(cycle3_file), "--ell", "3", "--r", cap,
         "--out", str(out)]
    )
    assert code == EXIT_OK
    text = "beta,r,r_avg,witness_file\n3,1,1,pareto_witness_1.json\n"
    assert out.read_text() == text
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--r", "0"], "--r must be at least 1", id="r-zero"),
    pytest.param(["--r", "1/0"], "bad rational '1/0': Fraction(1, 0)", id="r-over-zero"),
    pytest.param(
        ["--r", "x"], "bad rational 'x': invalid literal for int() with base 10: 'x'",
        id="r-word",
    ),
    pytest.param(
        ["--r", ""], "bad rational '': invalid literal for int() with base 10: ''",
        id="r-empty",
    ),
    pytest.param(
        ["--r="], "bad rational '': invalid literal for int() with base 10: ''",
        id="r-empty-attached",
    ),
    pytest.param(["--M", "0"], "--M must be at least 1", id="M-zero"),
    pytest.param(["--budget", "0"], "--budget must be positive", id="budget-zero"),
    pytest.param(["--ell", "0"], "--ell must be at least 1", id="ell-zero"),
])
def test_oracle_refuses_out_of_range_flags(cycle3_file, tmp_path, capsys, flags, message):
    # A flag given twice takes its last value, so flags may override --ell.
    out = tmp_path / "p.csv"
    code = main(
        ["oracle", "--graph", str(cycle3_file), "--ell", "3", "--out", str(out)]
        + flags
    )
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_oracle_runs_a_scalar_search_within_the_default_budget(tmp_path, capsys):
    # At ell = 4 the edgeless 7-vertex graph spans C(130, 4) = 11,358,880
    # scalar encoders, within the default budget; its MAIS of 7 exceeds
    # every length, so no code exists and no encoder is enumerated.
    path = tmp_path / "edgeless.txt"
    path.write_text("N=7\n", encoding="utf-8")
    out = tmp_path / "p.csv"
    code = main(
        ["oracle", "--graph", str(path), "--M", "1", "--ell", "4", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert out.read_text() == "beta,r,r_avg,witness_file\n"
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("beta,r,r_avg,witness_file\n", "")


def test_oracle_vector_csv(cycle3_file, tmp_path):
    out = tmp_path / "pareto.csv"
    code = main(
        ["oracle", "--graph", str(cycle3_file), "--q", "2", "--M", "2",
         "--ell", "4", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "2,3/2,4/3" in out.read_text()


def test_oracle_budget_exit(cycle4_file, tmp_path):
    code = main(
        ["oracle", "--graph", str(cycle4_file), "--q", "2", "--M", "1",
         "--ell", "4", "--budget", "16", "--out", str(tmp_path / "p.csv")]
    )
    assert code == EXIT_BUDGET


def test_oracle_bounds_answer_before_the_budget(cycle4_file, tmp_path, capsys):
    # The 4-cycle's MAIS of 3 rules out every length below M*3 = 6, so at
    # M = 2 the lengths up to 5 answer with no encoder counted, although
    # ell = 4 alone spans 180,352,320 encoders, past the default budget.
    out = tmp_path / "p.csv"
    argv = ["oracle", "--graph", str(cycle4_file), "--q", "2", "--M", "2", "--ell", "5"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == out.read_text() == "beta,r,r_avg,witness_file\n"


@pytest.mark.parametrize("graph, m, ell, count", [
    ("N=5\n1: 2 5\n2: 1 3\n3: 2 4\n4: 3 5\n5: 4 1\n", "2", "4", "45902419200"),
    ("N=3\n1: 2\n2: 3\n3: 1\n", "50", "100", "at least 10^4357"),
], ids=["pentagon", "cycle3"])
def test_oracle_refuses_the_first_length_no_bound_answers(
    tmp_path, capsys, graph, m, ell, count
):
    # The bidirected pentagon's MAIS of 2 answers ell <= 3 at M = 2, and
    # its C(1026, 4) encoders are refused at ell = 4.  The 3-cycle's MAIS
    # of 2 answers ell < 100 at M = 50, and the count at ell = 100 has
    # more digits than Python converts to decimal by default.
    path = tmp_path / "g.txt"
    path.write_text(graph, encoding="utf-8")
    argv = ["oracle", "--graph", str(path), "--M", m, "--ell", ell]
    assert main(argv + ["--out", str(tmp_path / "p.csv")]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        f"error: search enumerates {count} encoders, exceeding budget 16777216\n"
    )
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("ell", ["13", "40"])
def test_oracle_stops_at_the_uncoded_length(cycle4_file, tmp_path, capsys, ell):
    # At ell = M*N = 4 the uncoded code has (r, r_avg) = (1, 1), so every
    # longer code is dominated.  At ell = 13 the search space alone,
    # 20,058,300 encoders, would exceed the default budget.
    argv = ["oracle", "--graph", str(cycle4_file), "--q", "2", "--M", "1"]
    assert main(argv + ["--ell", "4", "--out", str(tmp_path / "a.csv")]) == EXIT_OK
    want = capsys.readouterr().out
    assert main(argv + ["--ell", ell, "--out", str(tmp_path / "b.csv")]) == EXIT_OK
    assert capsys.readouterr().out == want.replace("a_witness", "b_witness")
    assert want == (
        "beta,r,r_avg,witness_file\n"
        "3,2,3/2,a_witness_1.json\n"
        "4,1,1,a_witness_2.json\n"
    )
    for idx in (1, 2):
        assert (tmp_path / f"a_witness_{idx}.json").read_bytes() == (
            tmp_path / f"b_witness_{idx}.json"
        ).read_bytes()


def test_oracle_deterministic(cycle3_file, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert main(
            ["oracle", "--graph", str(cycle3_file), "--q", "2", "--M", "1",
             "--ell", "2", "--out", str(out)]
        ) == EXIT_OK
    a_lines = out_a.read_text().replace("a_witness", "witness")
    b_lines = out_b.read_text().replace("b_witness", "witness")
    assert a_lines == b_lines
    assert (tmp_path / "a_witness_1.json").read_bytes() == (
        tmp_path / "b_witness_1.json"
    ).read_bytes()


def test_normalize_command(cycle3_file, tmp_path, capsys):
    from idxloc.codes import IndexCode
    from idxloc.linalg import FqMatrix

    cols = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    code = IndexCode(
        q=2, m=1, n=3,
        matrix=FqMatrix.from_columns(cols, 3, 2),
        queries=(frozenset({1}), frozenset({2}), frozenset({3})),
    )
    src = tmp_path / "src.json"
    save_code(code, src)
    out = tmp_path / "norm.json"
    assert main(
        ["normalize", "--graph", str(cycle3_file), "--code", str(src),
         "--out", str(out)]
    ) == EXIT_OK
    normalized = load_code(out)
    g = parse_graph(cycle3_file.read_text())
    require_plan(g, normalized)
    assert locality_profile(normalized) == locality_profile(code)


def test_normalize_refuses_an_undecodable_code(cycle3_file, tmp_path, capsys):
    # One column x_1 + x_2: receiver 1 knows x_2 and decodes, receivers 2
    # and 3 do not.
    code = IndexCode(
        q=2, m=1, n=3,
        matrix=FqMatrix.from_columns([(1, 1, 0)], 3, 2),
        queries=(frozenset({1}),) * 3,
    )
    src = tmp_path / "src.json"
    save_code(code, src)
    out = tmp_path / "norm.json"
    assert main(
        ["normalize", "--graph", str(cycle3_file), "--code", str(src),
         "--out", str(out)]
    ) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: normalize failed: code is not decodable at (receiver, symbol):"
        " (2,2), (3,3)\n"
    )
    assert not out.exists()


def test_normalize_writes_the_library_normal_form(cycle5_file, tmp_path, monkeypatch):
    # The command is normalize_unique_columns after prune_queries: each
    # verifies its own input, the loaded code and the pruned one.
    import idxloc.codes as codes
    from idxloc.constructions import cycle_vector_code

    g = directed_cycle(5)
    code = cycle_vector_code(5, 2, 2)
    src = tmp_path / "src.json"
    save_code(code, src)
    expected = tmp_path / "expected.json"
    save_code(codes.normalize_unique_columns(g, codes.prune_queries(g, code)), expected)
    calls = []
    verify = codes.verify_decodable

    def counting(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(codes, "verify_decodable", counting)
    out = tmp_path / "norm.json"
    assert main(
        ["normalize", "--graph", str(cycle5_file), "--code", str(src),
         "--out", str(out)]
    ) == EXIT_OK
    assert len(calls) == 2
    assert out.read_bytes() == expected.read_bytes()


def test_construct_then_verify_roundtrip(cycle5_file, tmp_path, capsys):
    code_path = tmp_path / "c.json"
    assert main(
        ["construct", "--graph", str(cycle5_file), "--scheme", "cycle-vector",
         "--q", "3", "--M", "3", "--out", str(code_path)]
    ) == EXIT_OK
    assert main(
        ["verify", "--graph", str(cycle5_file), "--code", str(code_path)]
    ) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_rejects_composite_field(cycle3_file, tmp_path):
    assert main(
        ["minrank", "--graph", str(cycle3_file), "--q", "4",
         "--out", str(tmp_path / "w.json")]
    ) == EXIT_INPUT


def test_huge_field_is_refused_at_once(cycle3_file, tmp_path):
    # 2^61 - 1 is prime; trial division up to its square root would run
    # for minutes.
    argv = ["minrank", "--graph", str(cycle3_file), "--q", "2305843009213693951",
            "--out", str(tmp_path / "w.json")]
    assert _fresh_process(argv, timeout=10) == (
        EXIT_INPUT, "error: --q must be below 2^32, got 2305843009213693951\n"
    )
    start = time.perf_counter()
    assert main(argv) == EXIT_INPUT
    assert time.perf_counter() - start < 1
    assert not (tmp_path / "w.json").exists()


def test_field_bound_applies_to_flags_and_code_files(cycle3_file, tmp_path, capsys):
    q = 4294967311  # the smallest prime above 2^32
    assert main(
        ["minrank", "--graph", str(cycle3_file), "--q", str(q),
         "--out", str(tmp_path / "w.json")]
    ) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: --q must be below 2^32, got {q}\n"
    code_path = tmp_path / "big_q.json"
    doc = dict(code_to_json_dict(cycle_scalar_code(3, 2, 1)), q=q)
    code_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--graph", str(cycle3_file), "--code", str(code_path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: cannot load code file: field modulus must be below 2^32, got {q}\n"
    )


@pytest.mark.parametrize(
    "command", ["minrank", "construct", "oracle", "tradeoff", "normalize"]
)
def test_unwritable_out_is_input_error(command, cycle3_file, tmp_path, capsys):
    code_path = tmp_path / "c.json"
    save_code(cycle_scalar_code(3, 2, 1), code_path)
    graph, out = str(cycle3_file), str(tmp_path / "missing" / "out.txt")
    # oracle writes its first witness file before the CSV.
    failing = out if command != "oracle" else str(tmp_path / "missing" / "out_witness_1.json")
    argv = {
        "minrank": ["minrank", "--graph", graph, "--out", out],
        "construct": ["construct", "--graph", graph, "--scheme", "uncoded", "--out", out],
        "oracle": ["oracle", "--graph", graph, "--ell", "2", "--out", out],
        "tradeoff": ["tradeoff", "--graph", graph, "--out", out],
        "normalize": ["normalize", "--graph", graph, "--code", str(code_path),
                      "--out", out],
    }[command]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot write output: [Errno 2] No such file or directory: '{failing}'\n"
    )


@pytest.mark.parametrize("out", [".", "/", ""])
@pytest.mark.parametrize("command, flags", [
    ("minrank", []),
    ("construct", ["--scheme", "uncoded"]),
    ("tradeoff", []),
    ("normalize", ["--code", "c.json"]),
    ("oracle", ["--ell", "2"]),  # a non-empty frontier
    ("oracle", ["--ell", "1"]),  # an empty one
])
def test_out_naming_no_file_is_input_error(
    command, flags, out, cycle3_file, tmp_path, monkeypatch, capsys
):
    # "." and "" name the working directory, "/" the root: no file.
    monkeypatch.chdir(tmp_path)
    save_code(cycle_scalar_code(3, 2, 1), "c.json")
    before = sorted(tmp_path.iterdir())
    argv = [command, "--graph", str(cycle3_file), *flags, "--out", out]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    if command == "oracle":
        # Refused before the search: the witness files are named after
        # the CSV's file name.
        message = f"--out {out!r} names no file"
    else:
        message = f"[Errno 21] Is a directory: {out or '.'!r}"
    assert captured.err == f"error: cannot write output: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "command", sorted(c for c, (req, _) in SUBCOMMAND_FLAGS.items() if "--graph" in req)
)
def test_graph_file_not_utf8_is_input_error(command, tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_bytes(b"\xff\xfeN=3")
    code_path = tmp_path / "c.json"
    save_code(cycle_scalar_code(3, 2, 1), code_path)
    values = {
        "--graph": str(graph), "--code": str(code_path), "--scheme": "uncoded",
        "--ell": "1", "--out": str(tmp_path / "out"),
    }
    argv = [command]
    for flag in sorted(SUBCOMMAND_FLAGS[command][0]):
        argv += [flag, values[flag]]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read graph file: ")


# Every command that reads a graph or a code file, on g.txt and c.json,
# with its outputs named in the working directory.
_FILE_COMMANDS = [
    ["minrank", "--graph", "g.txt", "--out", "w.json"],
    ["construct", "--graph", "g.txt", "--scheme", "deficit", "--out", "d.json"],
    ["verify", "--graph", "g.txt", "--code", "c.json"],
    ["profile", "--code", "c.json"],
    ["normalize", "--graph", "g.txt", "--code", "c.json", "--out", "n.json"],
    ["tradeoff", "--graph", "g.txt", "--out", "t.csv"],
    ["oracle", "--graph", "g.txt", "--ell", "4", "--out", "p.csv"],
]


def _run_file_commands(workdir: Path, capsys):
    """Each command's exit code and output, then the bytes of every file
    in workdir but the inputs."""
    runs = []
    for argv in _FILE_COMMANDS:
        runs.append((main(argv), capsys.readouterr()))
    files = {
        p.name: p.read_bytes()
        for p in sorted(workdir.iterdir())
        if p.name not in ("g.txt", "c.json")
    }
    return runs, files


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_read_like_lf(newline, tmp_path, monkeypatch, capsys):
    # Text mode reads "\r\n" and a lone "\r" as "\n"; the graph keeps a
    # comment line and the code is indented JSON, so both span lines.
    graph = "# the directed 4-cycle\n" + format_graph(directed_cycle(4))
    code = json.dumps(code_to_json_dict(cycle_vector_code(4, 2, 2)), indent=1) + "\n"
    results = {}
    for name, nl in (("lf", "\n"), ("other", newline)):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        Path("g.txt").write_bytes(graph.replace("\n", nl).encode())
        Path("c.json").write_bytes(code.replace("\n", nl).encode())
        results[name] = _run_file_commands(workdir, capsys)
    runs, files = results["lf"]
    assert [exit_code for exit_code, _ in runs] == [EXIT_OK] * len(_FILE_COMMANDS)
    assert b"\r" not in b"".join(files.values())
    assert results["other"] == results["lf"]


def test_rewriting_a_longer_output_leaves_only_the_new_bytes(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text(format_graph(directed_cycle(4)), encoding="utf-8")
    save_code(cycle_vector_code(4, 2, 2), "c.json")
    fresh = _run_file_commands(tmp_path, capsys)
    assert {exit_code for exit_code, _ in fresh[0]} == {EXIT_OK}
    assert len(fresh[1]) == 7  # five outputs and two oracle witnesses
    for name, data in fresh[1].items():
        Path(name).write_bytes(b"x" * 4096 + data)
    assert _run_file_commands(tmp_path, capsys) == fresh


@pytest.mark.parametrize("spelling, witness", [
    ("./g.txt", "g_minrank_witness.json"),
    ("d//g.txt", "d/g_minrank_witness.json"),
])
def test_graph_path_spellings_read_the_file(
    spelling, witness, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    for name in ("g.txt", "d/g.txt"):
        Path(name).write_text(format_graph(directed_cycle(4)), encoding="utf-8")
    save_code(cycle_vector_code(4, 2, 2), "c.json")
    assert main(["minrank", "--graph", spelling]) == EXIT_OK
    assert capsys.readouterr().out == f"minrank=3\nwitness={witness}\n"
    assert json.loads(Path(witness).read_text())["N"] == 4
    assert main(["verify", "--graph", spelling, "--code", "c.json"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == ["PASS", "beta=3 r=3/2 r_avg=3/2"]


@pytest.mark.parametrize("command, flags", [
    ("minrank", []),
    ("construct", ["--scheme", "uncoded"]),
    ("tradeoff", []),
    ("normalize", ["--code", "c.json"]),
    ("oracle", ["--ell", "2"]),
])
def test_out_with_a_trailing_slash_writes_the_file(
    command, flags, cycle3_file, tmp_path, monkeypatch, capsys
):
    # pathlib drops the trailing "/", so "d/x.json/" names the file d/x.json;
    # the same command with "e/x.json" writes the same files under e.
    monkeypatch.chdir(tmp_path)
    save_code(cycle_scalar_code(3, 2, 1), "c.json")
    for out in ("d/x.json/", "e/x.json"):
        Path(out).parent.mkdir()
        argv = [command, "--graph", str(cycle3_file), *flags, "--out", out]
        assert main(argv) == EXIT_OK
    capsys.readouterr()
    written = {
        d: {p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
        for d in ("d", "e")
    }
    assert "x.json" in written["d"]
    assert written["d"] == written["e"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--graph", "./missing//g.txt", "--code", "c.json"],
     "cannot read graph file: [Errno 2] No such file or directory: 'missing/g.txt'"),
    (["profile", "--code", "./missing//c.json"],
     "cannot load code file: [Errno 2] No such file or directory: 'missing/c.json'"),
])
def test_missing_file_is_named_as_pathlib_spells_it(
    argv, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    save_code(cycle_scalar_code(3, 2, 1), "c.json")
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["minrank", "--graph", "d"], "cannot read graph file: [Errno 21] Is a directory: 'd'"),
    (["verify", "--graph", "d", "--code", "c.json"],
     "cannot read graph file: [Errno 21] Is a directory: 'd'"),
    (["verify", "--graph", "g.txt", "--code", "d"],
     "cannot load code file: [Errno 21] Is a directory: 'd'"),
    (["profile", "--code", "d/"], "cannot load code file: [Errno 21] Is a directory: 'd'"),
])
def test_directory_as_input_is_named(argv, message, tmp_path, monkeypatch, capsys):
    # A directory opens for reading; the read refuses it, without a path.
    monkeypatch.chdir(tmp_path)
    Path("d").mkdir()
    Path("g.txt").write_text(format_graph(directed_cycle(3)), encoding="utf-8")
    save_code(cycle_scalar_code(3, 2, 1), "c.json")
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_graph_parse_error_is_input_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("N=2\n1 2\n", encoding="utf-8")
    assert main(["minrank", "--graph", str(graph)]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", "error: graph parse error: line 2: expected '<receiver>: ...'\n"
    )


def _feed_fifo(path: str, data: bytes) -> threading.Thread:
    """A started thread that writes data into the FIFO at path in 1 KiB
    chunks, once a reader opens it."""
    def feed():
        with open(path, "wb", buffering=0) as f:
            for k in range(0, len(data), 1024):
                f.write(data[k : k + 1024])

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return thread


# Graph files over 64 KiB: the 20,000-vertex cycle, on which minrank is
# refused by its budget with a text that counts every arc, and a 4-cycle
# whose last arcs follow 70 KiB of comments.
_LONG_GRAPHS = {
    "cycle20000": format_graph(directed_cycle(20000)),
    "padded4": "N=4\n1: 2\n" + "#" * 79 * 900 + "\n2: 3\n3: 4\n4: 1\n",
}


@pytest.mark.parametrize("graph, argv, exit_code", [
    ("cycle20000", ["minrank", "--out", "w.json"], EXIT_BUDGET),
    ("cycle20000", ["tradeoff"], EXIT_OK),
    ("padded4", ["minrank", "--out", "w.json"], EXIT_OK),
    ("padded4", ["tradeoff", "--out", "t.csv"], EXIT_OK),
])
def test_graph_read_through_a_fifo(
    graph, argv, exit_code, tmp_path, monkeypatch, capsys
):
    # A pipe's reads return at most what the writer has put in so far.
    monkeypatch.chdir(tmp_path)
    data = _LONG_GRAPHS[graph].encode()
    assert len(data) > 1 << 16
    Path("g.txt").write_bytes(data)
    os.mkfifo("g.fifo")
    runs = []
    for path in ("g.txt", "g.fifo"):
        feeder = _feed_fifo(path, data) if path == "g.fifo" else None
        code = main([argv[0], "--graph", path, *argv[1:]])
        if feeder is not None:
            feeder.join(timeout=10)
            assert not feeder.is_alive()
        out, err = capsys.readouterr()
        written = {}
        for p in sorted(tmp_path.iterdir()):
            if p.name not in ("g.txt", "g.fifo"):
                written[p.name] = p.read_bytes()
                p.unlink()
        runs.append((code, out, err, written))
    assert runs[0][0] == exit_code
    assert runs[1] == runs[0]


class _ClosedPipe(io.StringIO):
    """A stream whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class _FullDevice(io.StringIO):
    """A stream on a device with no space left."""

    def write(self, text):
        raise OSError(28, "No space left on device")


class _CountingStdout(io.StringIO):
    """A stdout that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_closed_stdout_is_no_error(cycle4_file, tmp_path, monkeypatch, capsys):
    doc = code_to_json_dict(cycle_scalar_code(4, 2, 1))
    doc["queries"][1] = [1]  # receiver 2 cannot decode
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    witness = tmp_path / "w.json"
    minrank = ["minrank", "--graph", str(cycle4_file), "--out", str(witness)]
    assert main(minrank) == EXIT_OK
    want = witness.read_bytes()
    witness.unlink()
    capsys.readouterr()
    # sys.stdout is None when descriptor 1 was closed at start-up (">&-").
    for stdout in (_ClosedPipe(), None):
        witness.unlink(missing_ok=True)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(minrank) == EXIT_OK
        assert main(["verify", "--graph", str(cycle4_file), "--code", str(broken)]) == EXIT_FAIL
        assert main(["--help"]) == EXIT_OK
        assert main(["minrank", "--help"]) == EXIT_OK
        monkeypatch.undo()
        assert capsys.readouterr() == ("", "")
        assert witness.read_bytes() == want


def test_closed_stdout_pipe_is_no_error_in_a_fresh_process(cycle4_file, tmp_path):
    # The pipe's read end is closed before the command starts, so its
    # flush fails with EPIPE; the flush at exit, of the text still in the
    # block-buffered stdout, must not fail either.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(idxloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    witness = tmp_path / "w.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "idxloc.cli", "minrank", "--graph", str(cycle4_file),
             "--out", str(witness)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert json.loads(witness.read_text())["A"] == [
        [1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]
    ]


def test_closed_pipe_on_both_streams_in_a_fresh_process(tmp_path):
    # As "idxloc minrank --graph missing.txt 2>&1 | true" once the reader
    # has gone: the refusal is dropped and its exit code kept.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        got = _fresh_process(["minrank", "--graph", str(tmp_path / "missing.txt")],
                             timeout=60, stdout=write_end, stderr=write_end)
    finally:
        os.close(write_end)
    assert got == (EXIT_INPUT, None)


def test_closed_pipe_on_stderr_is_pointed_at_devnull(tmp_path, monkeypatch):
    # In process: stderr's descriptor is a pipe with no reader, so the
    # refusal's flush fails with EPIPE; the text is dropped, the exit code
    # kept, and the descriptor then points at os.devnull.
    monkeypatch.chdir(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    stderr = open(write_end, "w", encoding="utf-8")
    try:
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["minrank", "--graph", "missing.txt"]) == EXIT_INPUT
        monkeypatch.undo()
        assert os.fstat(write_end).st_rdev == os.stat(os.devnull).st_rdev
    finally:
        monkeypatch.undo()
        stderr.close()


@pytest.mark.parametrize("stderr", [None, _ClosedPipe(), _FullDevice()],
                         ids=["missing", "closed-pipe", "full-device"])
@pytest.mark.parametrize("argv, exit_code", [
    (["minrank", "--graph", "missing.txt"], EXIT_INPUT),
    (["minrank", "--graph", "g.txt", "--q", "4"], EXIT_INPUT),
    (["minrank", "--graph", "g.txt", "--budget", "1", "--out", "w.json"], EXIT_BUDGET),
    (["profile", "--code", "bad.json"], EXIT_INPUT),
    (["minrank", "--graph", "g.txt", "--out", "d"], EXIT_INPUT),
], ids=["missing-graph", "bad-q", "budget", "bad-code", "unwritable-out"])
def test_refusal_keeps_its_exit_code_without_stderr(
    argv, exit_code, stderr, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text(format_graph(directed_cycle(3)), encoding="utf-8")
    Path("bad.json").write_text('{"q": 2}', encoding="utf-8")
    Path("d").mkdir()
    assert main(argv) == exit_code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(argv) == exit_code
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


def test_full_stdout_is_unwritable_output(cycle4_file, tmp_path, monkeypatch, capsys):
    # As "> /dev/full": the refusal goes to stderr, and is dropped with its
    # exit code kept if stderr is full too.
    minrank = ["minrank", "--graph", str(cycle4_file), "--out", str(tmp_path / "w.json")]
    monkeypatch.setattr(sys, "stdout", _FullDevice())
    assert main(minrank) == EXIT_INPUT
    assert main(["--help"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n" * 2
    )
    monkeypatch.setattr(sys, "stderr", _FullDevice())
    assert main(minrank) == EXIT_INPUT


def test_broken_pipe_on_out_is_unwritable_output(cycle4_file, tmp_path, monkeypatch, capsys):
    def broken_write(fd, data):
        raise BrokenPipeError(32, "Broken pipe")

    out = tmp_path / "w.json"
    monkeypatch.setattr(os, "write", broken_write)
    code = main(["minrank", "--graph", str(cycle4_file), "--out", str(out)])
    monkeypatch.undo()
    assert code == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: cannot write output: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("command", ["verify", "profile", "normalize"])
@pytest.mark.parametrize("data, reason", [
    (b'\xff{"q": 2}', "can't decode byte 0xff in position 0: invalid start byte"),
    (b'{"q": 2, "L": "\xc3',
     "can't decode byte 0xc3 in position 15: unexpected end of data"),
    # Positions count the bytes before any "\r\n" or "\r" is read as "\n".
    (b'{\r\n "q": 2,\r\n \xe9}',
     "can't decode byte 0xe9 in position 14: invalid continuation byte"),
    (b'{\r"q": 2,\r\xe9\xff}',
     "can't decode byte 0xe9 in position 10: invalid continuation byte"),
])
def test_code_file_not_utf8_is_input_error(
    command, data, reason, cycle3_file, tmp_path, capsys
):
    code_path = tmp_path / "c.json"
    code_path.write_bytes(data)
    argv = {
        "verify": ["verify", "--graph", str(cycle3_file), "--code", str(code_path)],
        "profile": ["profile", "--code", str(code_path)],
        "normalize": ["normalize", "--graph", str(cycle3_file), "--code",
                      str(code_path), "--out", str(tmp_path / "n.json")],
    }[command]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", f"error: cannot load code file: 'utf-8' codec {reason}\n"
    )
    assert not (tmp_path / "n.json").exists()


def test_usage_error_is_input_exit():
    assert main(["bogus-command"]) == EXIT_INPUT


def _fresh_process(argv, timeout=None, **streams):
    """Exit code and stderr of the same command in a new interpreter;
    streams may give its stdout and stderr, each a pipe by default."""
    env = dict(os.environ)
    src = str(Path(idxloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "idxloc.cli", *argv],
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams},
        text=True, env=env, timeout=timeout,
    )
    return proc.returncode, proc.stderr


def test_shared_parser_answers_like_a_fresh_process(cycle4_file, capsys):
    # The parser is built once per process; a rejected command must leave
    # nothing behind that changes how a later command is parsed.
    bad = ["oracle", "--graph", str(cycle4_file), "--q", "two", "--ell", "2"]
    good = ["tradeoff", "--graph", str(cycle4_file)]
    calls = []
    for argv in (bad, good, bad):
        code = main(argv)
        calls.append((argv, code, capsys.readouterr().err))
    assert [code for _, code, _ in calls] == [EXIT_INPUT, EXIT_OK, EXIT_INPUT]
    for argv, code, err in calls:
        assert (code, err) == _fresh_process(argv)


def _readme_session():
    """The README's 4-cycle graph file and its session: (argv, expected
    stdout lines) per `$ idxloc` command."""
    text = README.read_text(encoding="utf-8")
    graph = text.split("```\n# the directed 4-cycle\n", 1)[1].split("```", 1)[0]
    session = text.split("A session:\n\n```sh\n", 1)[1].split("```", 1)[0]
    steps = []
    for block in session.strip().split("\n\n"):
        command, *expected = block.splitlines()
        assert command.startswith("$ idxloc ")
        steps.append((command.split()[2:], expected))
    return "# the directed 4-cycle\n" + graph, steps


def test_readme_session(tmp_path, monkeypatch, capsys):
    graph, steps = _readme_session()
    assert [argv[0] for argv, _ in steps] == [
        "minrank", "construct", "verify", "profile", "normalize", "construct", "verify",
        "tradeoff", "oracle",
    ]
    monkeypatch.chdir(tmp_path)
    Path("cycle4.txt").write_text(graph, encoding="utf-8")
    for argv, expected in steps:
        assert main(argv) == EXIT_OK, argv
        assert capsys.readouterr().out.splitlines() == expected, argv


def test_each_readme_command_writes_stdout_once(tmp_path, monkeypatch):
    graph, steps = _readme_session()
    monkeypatch.chdir(tmp_path)
    Path("cycle4.txt").write_text(graph, encoding="utf-8")
    for argv, expected in steps:
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == EXIT_OK, argv
        assert stdout.writes == ["".join(line + "\n" for line in expected)], argv


@pytest.mark.parametrize("argv,unread", [
    (["verify", "--graph", "g.txt", "--code", "c.json", "--q", "3"], "--q 3"),
    (["profile", "--code", "c.json", "--graph", "g.txt"], "--graph g.txt"),
    (["tradeoff", "--graph", "g.txt", "--ell", "0"], "--ell 0"),
])
def test_unread_flag_is_input_error(argv, unread, capsys):
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {unread}\n"


def test_missing_required_flag_is_input_error(capsys):
    assert main(["oracle", "--graph", "g.txt"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: the following arguments are required: --ell, --out\n"
    )


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_help_lists_exactly_the_declared_flags(command, capsys):
    assert main([command, "--help"]) == EXIT_OK
    text = capsys.readouterr().out
    usage = text.split("\n\n", 1)[0]
    required, optional = SUBCOMMAND_FLAGS[command]
    assert set(re.findall(r"--\w+", text)) - {"--help"} == required | optional
    assert set(re.findall(r"\[(--\w+)", usage)) == optional


def test_top_level_help_lists_every_command(capsys):
    texts = []
    for argv in (["--help"], ["-h"], ["-h", "bogus"]):
        assert main(argv) == EXIT_OK
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2]
    lines = {
        line.split()[1]: line for line in texts[0].splitlines()
        if line.startswith("  idxloc ")
    }
    assert set(lines) == set(SUBCOMMAND_FLAGS)
    for command, (required, optional) in SUBCOMMAND_FLAGS.items():
        assert set(re.findall(r"--\w+", lines[command])) == required | optional
        assert set(re.findall(r"\[(--\w+)", lines[command])) == optional


def test_cli_import_leaves_argparse_out():
    # cli.main parses argv itself; argparse costs tens of microseconds per
    # call even with its parser built once.
    env = dict(os.environ)
    src = str(Path(idxloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, idxloc.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# Per flag, two values as typed and as parse_args reads them.
_GOOD = {
    "--graph": ("g.txt", "g.txt"), "--code": ("c.json", "c.json"), "--q": ("3", 3),
    "--M": ("2", 2), "--r": ("3/2", "3/2"), "--ell": ("2", 2),
    "--scheme": ("cycle-vector", "cycle-vector"), "--budget": ("100", 100),
    "--out": ("o.json", "o.json"),
}
_OTHER = {
    "--graph": ("h g.txt", "h g.txt"), "--code": ("-d.json", "-d.json"), "--q": ("5", 5),
    "--M": ("1", 1), "--r": ("", ""), "--ell": ("-1", -1),
    "--scheme": ("deficit", "deficit"), "--budget": ("7", 7),
    "--out": ("p=1.json", "p=1.json"),
}
_DEFAULTS = {"--q": 2, "--M": 1}


def _spelled(rng, flag, text):
    """flag and its value as one token, --flag=value, or as two."""
    return [f"{flag}={text}"] if rng.random() < 0.5 else [flag, text]


def _valid_argvs(rng):
    """Every order of every command's flags, each spelled at random, some
    optional ones left out and some given an earlier value that the last
    one overrides; with the values that parse_args must read."""
    for command, (_, required, optional) in cli.COMMANDS.items():
        for order in itertools.permutations((*required, *optional)):
            argv, want = [command], {"command": command}
            for flag in order:
                want[flag[2:].lower()] = _DEFAULTS.get(flag)
                if flag in optional and rng.random() < 0.2:
                    continue
                if rng.random() < 0.2:
                    argv[1:1] = _spelled(rng, flag, _OTHER[flag][0])
                argv += _spelled(rng, flag, _GOOD[flag][0])
                want[flag[2:].lower()] = _GOOD[flag][1]
            yield argv, want


def test_parser_reads_every_order_and_spelling_of_the_flags():
    rng = random.Random(31)
    argvs, forms, repeated = 0, collections.Counter(), 0
    for argv, want in _valid_argvs(rng):
        assert vars(cli.parse_args(argv)) == want, argv
        argvs += 1
        named = [t.partition("=") for t in argv[1:] if t.partition("=")[0] in cli.FLAGS]
        forms.update(eq or " " for _, eq, _ in named)
        repeated += len(named) > len({flag for flag, _, _ in named})
    assert argvs == sum(
        math.factorial(len(required) + len(optional))
        for _, required, optional in cli.COMMANDS.values()
    )
    assert min(forms["="], forms[" "], repeated) > 1000


_COMMAND_CHOICES = ", ".join(map(repr, SUBCOMMAND_FLAGS))


@pytest.mark.parametrize("argv, message", [
    # One argv per message.
    pytest.param([], "the following arguments are required: command", id="no-command"),
    pytest.param(
        ["bogus", "--graph", "g.txt"],
        f"argument command: invalid choice: 'bogus' (choose from {_COMMAND_CHOICES})",
        id="command",
    ),
    pytest.param(
        ["oracle", "--graph", "g.txt", "--ell"], "argument --ell: expected one argument",
        id="flag-last",
    ),
    pytest.param(
        ["oracle", "--ell", "--graph", "g.txt"], "argument --ell: expected one argument",
        id="flag-before-flag",
    ),
    pytest.param(
        ["oracle", "--graph", "g.txt", "--ell", "-h"], "argument --ell: expected one argument",
        id="flag-before-help",
    ),
    pytest.param(
        ["oracle", "--ell=two", "stray"], "argument --ell: invalid int value: 'two'",
        id="int",
    ),
    pytest.param(
        ["construct", "--scheme", "cyclic"],
        "argument --scheme: invalid choice: 'cyclic' (choose from 'uncoded', "
        "'cycle-scalar', 'cycle-vector', 'deficit')",
        id="scheme",
    ),
    pytest.param(
        ["oracle", "--graph", "g.txt", "stray"],
        "the following arguments are required: --ell, --out", id="missing-before-unread",
    ),
    pytest.param(
        ["profile", "stray", "--code", "c.json", "--q", "3"],
        "unrecognized arguments: stray --q 3", id="unread",
    ),
    # Flags are named in full: no prefix, no "--" ending the flags, and
    # -h/--help take no text.
    pytest.param(
        ["minrank", "--graph", "g.txt", "--ou", "w.json"],
        "unrecognized arguments: --ou w.json", id="abbreviation",
    ),
    pytest.param(
        ["minrank", "--gr", "g.txt"], "the following arguments are required: --graph",
        id="abbreviated-required",
    ),
    pytest.param(
        ["minrank", "--graph", "g.txt", "--", "--q", "3"], "unrecognized arguments: --",
        id="terminator",
    ),
    pytest.param(
        ["--", "minrank", "--graph", "g.txt"],
        f"argument command: invalid choice: '--' (choose from {_COMMAND_CHOICES})",
        id="terminator-first",
    ),
    pytest.param(
        ["minrank", "--graph", "g.txt", "-hh"], "unrecognized arguments: -hh", id="hh",
    ),
    pytest.param(
        ["minrank", "--graph", "g.txt", "--help=x"], "unrecognized arguments: --help=x",
        id="help-with-value",
    ),
    pytest.param(
        ["--he"], f"argument command: invalid choice: '--he' (choose from {_COMMAND_CHOICES})",
        id="abbreviated-help",
    ),
])
def test_parser_refuses_with_its_message(argv, message, capsys):
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_help_after_flags_prints_the_usage(command, capsys):
    for tail in (["-h"], ["--help"], ["--graph", "g.txt", "stray", "-h"]):
        assert main([command, *tail]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: idxloc {command} [-h]")


@pytest.mark.parametrize("command", ["verify", "profile", "normalize"])
@pytest.mark.parametrize(
    "doc, message",
    [pytest.param(doc, message, id=name) for name, doc, message in malformed_code_docs()],
)
def test_malformed_code_file_is_input_error(
    command, doc, message, cycle4_file, tmp_path, capsys
):
    code_path = tmp_path / "bad.json"
    code_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = {
        "verify": ["verify", "--graph", str(cycle4_file), "--code", str(code_path)],
        "profile": ["profile", "--code", str(code_path)],
        "normalize": ["normalize", "--graph", str(cycle4_file), "--code",
                      str(code_path), "--out", str(tmp_path / "n.json")],
    }[command]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot load code file: {message}\n"
    assert not (tmp_path / "n.json").exists()
