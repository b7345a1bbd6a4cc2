"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import idxloc
from idxloc.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT, EXIT_OK, main
from idxloc.codes import IndexCode, load_code, locality_profile, require_plan, save_code
from idxloc.constructions import cycle_scalar_code
from idxloc.graphs import directed_cycle, format_graph, graph_from_side_info, parse_graph
from idxloc.linalg import FqMatrix

from helpers import malformed_code_docs

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


def test_minrank_dag(tmp_path, capsys):
    g = graph_from_side_info([{2}, {3}, set()])
    path = tmp_path / "dag.txt"
    path.write_text(format_graph(g), encoding="utf-8")
    code = main(["minrank", "--graph", str(path), "--q", "2",
                 "--out", str(tmp_path / "w.json")])
    assert code == EXIT_OK
    assert "minrank=3" in capsys.readouterr().out


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
         "--ell", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert text.splitlines()[0] == "beta,r,r_avg,witness_file"
    assert "2,2,4/3" in text
    assert "3,1,1" in text
    # witness files decode against the instance
    g = parse_graph(cycle3_file.read_text())
    for line in text.strip().splitlines()[1:]:
        witness_name = line.split(",")[3]
        witness = load_code(tmp_path / witness_name)
        require_plan(g, witness)


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


def test_oracle_rejects_ell_below_one(cycle3_file, tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = main(
        ["oracle", "--graph", str(cycle3_file), "--ell", "0", "--out", str(out)]
    )
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --ell must be at least 1\n"
    assert not out.exists()


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


def test_usage_error_is_input_exit():
    assert main(["bogus-command"]) == EXIT_INPUT


def _fresh_process(argv):
    """Exit code and stderr of the same command in a new interpreter."""
    env = dict(os.environ)
    src = str(Path(idxloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "idxloc.cli", *argv],
        capture_output=True, text=True, env=env,
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
    stdout lines) per `$ idxloc` command, cut at a `...` line."""
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
        "minrank", "construct", "verify", "tradeoff", "oracle",
    ]
    monkeypatch.chdir(tmp_path)
    Path("cycle4.txt").write_text(graph, encoding="utf-8")
    for argv, expected in steps:
        assert main(argv) == EXIT_OK, argv
        lines = capsys.readouterr().out.splitlines()
        if expected[-1] == "...":
            expected = expected[:-1]
            lines = lines[:len(expected)]
        assert lines == expected, argv


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
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    usage = text.split("\n\n", 1)[0]
    required, optional = SUBCOMMAND_FLAGS[command]
    assert set(re.findall(r"--\w+", text)) - {"--help"} == required | optional
    assert set(re.findall(r"\[(--\w+)", usage)) == optional


@pytest.mark.parametrize("command", ["verify", "profile", "normalize"])
@pytest.mark.parametrize(
    "doc", [pytest.param(doc, id=name) for name, doc in malformed_code_docs()]
)
def test_malformed_code_file_is_input_error(command, doc, cycle4_file, tmp_path, capsys):
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
    assert captured.err.startswith("error: cannot load code file: ")
    assert not (tmp_path / "n.json").exists()
