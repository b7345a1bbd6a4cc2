"""The four benchmark workloads: inputs from a seed, operations, checks.

Each workload's ``setup(rng, workdir)`` writes its inputs and returns a
fixed list of operations.  An operation's ``run()`` is the timed call
into idxloc; ``collect(result)`` then reads whatever files the call
wrote (untimed), and ``check(output)`` compares the collected output
with the reference computations in ``checks`` (untimed, after the
measured rounds).  ``answered(output)`` is False for an operation that
failed outright (an exception, or an exit code the command reserves for
errors); those count as failed, not as wrong.

The program only ever sees the generated files and messages.  Graph
classes fix the size and edge count of each input and let the seed pick
the edges, so that one round does nearly the same work on every seed.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
from inputs import (
    broken_copy, certified_graph, cycle, expand, graph_text, out_degree_graph,
    random_code, random_graph,
)

import idxloc
import idxloc.cli


# --- inputs written by idxloc objects ---------------------------------------


def code_doc(code) -> dict:
    """Code document of an idxloc.IndexCode, read field by field."""
    mat = code.matrix
    rows = [list(mat.entries[r * mat.cols:(r + 1) * mat.cols]) for r in range(mat.rows)]
    return {
        "q": code.q, "M": code.m, "N": code.n, "ell": mat.cols, "L": rows,
        "queries": [sorted(r) for r in code.queries],
    }


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


# --- operations ----------------------------------------------------------


@dataclass
class Failure:
    """An operation that raised instead of answering."""

    error: str


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = idxloc.cli.main(argv)
    return code, out.getvalue()


@dataclass
class CliOp:
    """One `idxloc` command on generated files; exit codes 3 and 4 (input
    error, budget exceeded) mean it failed."""

    argv: list[str]
    side: list
    q: int
    kind: str
    facts: dict = field(default_factory=dict)

    def run(self):
        return run_cli(self.argv)

    def collect(self, result):
        if isinstance(result, Failure):
            return result
        code, stdout = result
        files = {}
        out = self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None
        if code == 0 and out is not None:
            out = Path(out)
            names = [out.name]
            if self.kind == "oracle":
                names += [line.rsplit(",", 1)[1] for line in stdout.splitlines()[1:]]
            files = {name: (out.parent / name).read_text(encoding="utf-8") for name in names}
        return code, stdout, files

    def answered(self, output) -> bool:
        return not isinstance(output, Failure) and output[0] in (0, 2)

    def check(self, output) -> list[str]:
        code, stdout, files = output
        lines = stdout.splitlines()
        if self.kind == "minrank":
            if code != 0 or not lines or not lines[0].startswith("minrank="):
                return [f"unexpected minrank output: exit {code}, {lines[:2]}"]
            witness = json.loads(files[Path(self.argv[self.argv.index("--out") + 1]).name])
            return checks.minrank_errors(
                self.side, self.q, int(lines[0].split("=")[1]), witness["A"], self.facts.get("exact")
            )
        if self.kind == "oracle":
            name = Path(self.argv[self.argv.index("--out") + 1]).name
            if code != 0 or files.get(name) != stdout or not lines or lines[0] != "beta,r,r_avg,witness_file":
                return [f"unexpected oracle output: exit {code}, {lines[:2]}"]
            rows, witnesses = [], []
            for line in lines[1:]:
                beta, r, r_avg, wfile = line.split(",")
                rows.append((Fraction(beta), Fraction(r), Fraction(r_avg)))
                witnesses.append(json.loads(files[wfile]))
            m = int(self.argv[self.argv.index("--M") + 1])
            return checks.oracle_errors(self.side, self.q, m, rows, witnesses, self.facts)
        return checks.verify_errors(self.side, self.q, self.facts["code"], code, lines)


@dataclass
class CodecOp:
    """Encode one message and decode it at every receiver."""

    graph: object
    code: object
    plan: object
    message: tuple
    queries: list
    known: list
    demands: list

    def run(self):
        c = idxloc.encode(self.code, self.message)
        x = self.message
        return [
            idxloc.decode_receiver(
                self.graph, self.code, self.plan, i,
                [c[k - 1] for k in self.queries[i - 1]],
                [x[s] for s in self.known[i - 1]],
            )
            for i in range(1, self.code.n + 1)
        ]

    kind = "codec"

    def collect(self, result):
        return result

    def answered(self, output) -> bool:
        return not isinstance(output, Failure)

    def check(self, output) -> list[str]:
        errors = []
        for i, got in enumerate(output, 1):
            want = tuple(self.message[j] for j in self.demands[i - 1])
            if tuple(got) != want:
                errors.append(f"receiver {i} decoded {tuple(got)}, not {want}")
        return errors


# --- workloads -----------------------------------------------------------


def _write_graph(workdir: Path, name: str, side) -> str:
    path = workdir / f"{name}.txt"
    path.write_text(graph_text(side), encoding="utf-8")
    return str(path)


# (q, n, edges, ell, uncapped queries, capped queries) per class of
# certified min-rank n-1 graphs.  A query with ell >= n - 1 has the
# deficit-one optimum as its frontier; one with ell < n - 1 must return
# none.  Every query takes at most 0.6 s, so that a run times each one
# several times: a query as long as a whole run, such as the 3-cycle at
# M=2 up to ell 4 (the paper's vector converse, about 20 s), would be
# timed once, and its time hangs on the load the machine carries then.
# The 4-vertex F_2 queries are many and alike, so a round's work depends
# little on the seed.
ORACLE_CERTIFIED = ((3, 4, 4, 2, 6, 0), (2, 5, 6, 3, 2, 0), (2, 4, 5, 3, 36, 18))


def setup_oracle(rng, workdir: Path) -> list:
    """The 3-cycle at M=2 over F_2 up to rate 3/2 (the vector search) and
    over F_3 up to rate 3, and scalar queries on certified min-rank n-1
    graphs, some capped at r = 3/2."""
    c3 = cycle(3)
    # Rate ell/M is at most 3/2 in the vector query, below the 3-cycle's
    # acyclic-subgraph bound of 2, so no vector code of these lengths exists.
    assert checks.max_induced_acyclic(c3) == 2 and checks.certifies_deficit_one(c3)
    path = _write_graph(workdir, "cycle3", c3)
    ops = [
        CliOp(["oracle", "--graph", path, "--q", "2", "--M", "2", "--ell", "3",
               "--out", str(workdir / "cycle3_m2.csv")], c3, 2, "oracle", {"empty": True}),
        CliOp(["oracle", "--graph", path, "--q", "3", "--M", "1", "--ell", "3",
               "--out", str(workdir / "cycle3_q3.csv")], c3, 3, "oracle", {"deficit_girth": 3}),
    ]
    for q, n, edges, ell, uncapped, capped in ORACLE_CERTIFIED:
        for t in range(max(uncapped, capped)):
            side = certified_graph(rng, n, edges)
            name = f"cert_q{q}_n{n}_{t}"
            path = _write_graph(workdir, name, side)
            base = ["oracle", "--graph", path, "--q", str(q), "--M", "1", "--ell", str(ell)]
            facts = {"deficit_girth": checks.girth(side)} if ell >= n - 1 else {"empty": True}
            if t < uncapped:
                ops.append(CliOp(base + ["--out", str(workdir / f"{name}.csv")], side, q, "oracle", facts))
            if t < capped:
                ops.append(CliOp(base + ["--r", "3/2", "--out", str(workdir / f"{name}_capped.csv")],
                                 side, q, "oracle", {"empty": True}))
    rng.shuffle(ops)
    return ops


# (q, graphs, generator) per class of seeded minrank input.  Every call
# takes at most about 40 ms, so that a run times each one many times:
# with 8-vertex F_2 graphs, 6-vertex F_3 graphs with 7 edges and the 9-
# and 10-cycles (up to 0.25 s each) in the mix, the runs spread up to
# 0.28 between seeds.
MINRANK_CLASSES = (
    (2, 30, lambda rng: out_degree_graph(rng, 6, 2)),
    (2, 25, lambda rng: random_graph(rng, 7, 12)),
    (3, 15, lambda rng: random_graph(rng, 5, 7)),
    (3, 20, lambda rng: out_degree_graph(rng, 6, 1)),
)
MINRANK_CERTIFIED = ((2, 7, 9, 5), (3, 6, 7, 5))  # q, n, edges, graphs


def setup_minrank(rng, workdir: Path) -> list:
    """Directed cycles on 3..8 vertices over F_3, seeded digraphs in
    fixed size classes, and certified min-rank n-1 graphs."""
    inputs = [(3, cycle(n), n - 1) for n in range(3, 9)]
    for q, count, gen in MINRANK_CLASSES:
        inputs += [(q, gen(rng), None) for _ in range(count)]
    for q, n, edges, count in MINRANK_CERTIFIED:
        inputs += [(q, certified_graph(rng, n, edges), n - 1) for _ in range(count)]
    rng.shuffle(inputs)
    ops = []
    for t, (q, side, exact) in enumerate(inputs):
        path = _write_graph(workdir, f"g{t}", side)
        ops.append(CliOp(
            ["minrank", "--graph", path, "--q", str(q), "--out", str(workdir / f"g{t}_w.json")],
            side, q, "minrank", {"exact": exact},
        ))
    return ops


def _verify_op(workdir: Path, name: str, side, doc) -> CliOp:
    gpath = _write_graph(workdir, name, side)
    cpath = workdir / f"{name}_code.json"
    write_json(cpath, doc)
    return CliOp(["verify", "--graph", gpath, "--code", str(cpath)], side, doc["q"], "verify", {"code": doc})


# (q, n, m, codes) per class of seeded random codes for verify.
VERIFY_RANDOM = (
    (2, 2, 3, 8), (3, 3, 2, 12), (2, 4, 1, 24), (3, 4, 1, 20), (2, 5, 2, 16),
    (3, 5, 1, 16), (2, 6, 1, 20), (3, 6, 1, 12), (2, 6, 2, 12), (3, 3, 3, 8),
)
VERIFY_BROKEN = 24


def setup_verify(rng, workdir: Path) -> list:
    """Constructed codes (cycle scalar, cycle vector, deficit, uncoded,
    time-shared), seeded random decodable codes, and broken copies with
    one needed query removed."""
    from idxloc import constructions

    ops, valid = [], []
    for n in range(3, 8):
        for q in (2, 3):
            anchor = rng.randint(1, n)
            valid.append((cycle(n), code_doc(constructions.cycle_scalar_code(n, q, anchor))))
    for n, m in ((3, 2), (4, 2), (5, 3), (5, 5), (6, 3), (4, 4)):
        valid.append((cycle(n), code_doc(constructions.cycle_vector_code(n, rng.choice((2, 3)), m))))
    for q, n, edges in ((2, 5, 6), (3, 5, 6), (2, 6, 7), (3, 6, 7), (2, 4, 4), (3, 4, 4)):
        side = certified_graph(rng, n, edges)
        g = idxloc.graph_from_side_info(side)
        valid.append((side, code_doc(constructions.minrank_deficit_code(g, q))))
    for n, m in ((4, 1), (5, 2), (6, 1), (3, 3)):
        side = random_graph(rng, n, n + 1)
        g = idxloc.graph_from_side_info(side)
        valid.append((side, code_doc(constructions.uncoded(g, m, rng.choice((2, 3))))))
    for n in (4, 5, 6):
        q = rng.choice((2, 3))
        g = idxloc.directed_cycle(n)
        parts = [constructions.cycle_scalar_code(n, q, rng.randint(1, n)) for _ in range(2)]
        parts.append(constructions.uncoded(g, 1, q))
        valid.append((cycle(n), code_doc(constructions.time_share(g, parts))))
    for q, n, m, count in VERIFY_RANDOM:
        for _ in range(count):
            side = out_degree_graph(rng, n, 1) if n > 4 else random_graph(rng, n, n)
            valid.append((side, random_code(rng, side, q, m, extra=rng.randint(0, 2))))
    for t, (side, doc) in enumerate(valid):
        ops.append(_verify_op(workdir, f"v{t}", side, doc))
    broken = 0
    for t in rng.sample(range(len(valid)), len(valid)):
        side, doc = valid[t]
        bad = broken_copy(rng, side, doc)
        if bad is not None:
            ops.append(_verify_op(workdir, f"b{t}", side, bad))
            broken += 1
        if broken == VERIFY_BROKEN:
            break
    rng.shuffle(ops)
    return ops


# (q, n, m, codes) per class of seeded random codes for codec.
CODEC_RANDOM = ((2, 5, 2, 2), (3, 5, 2, 2), (2, 6, 3, 2), (3, 6, 1, 2), (2, 8, 2, 2))
CODEC_CYCLES = ((5, 5), (6, 3), (7, 7), (8, 4), (9, 9), (9, 5))  # n, M
MESSAGES_PER_CODE = 40


def setup_codec(rng, workdir: Path) -> list:
    """Cycle vector codes and seeded random codes with their decoding
    plans, and seeded messages to round-trip through each."""
    from idxloc import constructions

    instances = []
    for n, m in CODEC_CYCLES:
        q = rng.choice((2, 3))
        instances.append((cycle(n), constructions.cycle_vector_code(n, q, m)))
    for q, n, m, count in CODEC_RANDOM:
        for _ in range(count):
            side = out_degree_graph(rng, n, 2)
            path = workdir / f"codec{len(instances)}.json"
            write_json(path, random_code(rng, side, q, m, extra=1))
            instances.append((side, idxloc.load_code(path)))
    ops = []
    for side, code in instances:
        g = idxloc.graph_from_side_info(side)
        plan = idxloc.require_plan(g, code)
        demands, known = expand(side, code.m)
        queries = [sorted(r) for r in code.queries]
        for _ in range(MESSAGES_PER_CODE):
            message = tuple(rng.randrange(code.q) for _ in range(code.m * code.n))
            ops.append(CodecOp(g, code, plan, message, queries, known, demands))
    rng.shuffle(ops)
    return ops


# Rounds per run of --seconds 20 (scaled for other lengths), each about
# the right share of 20 s on the reference machine.  Fixed, so that a
# faster or slower program is measured over the same number of samples.
# Rounds are short, so that each operation is timed many times: the
# workloads with the fewest rounds spread most between runs.
ROUNDS = {"oracle": 8, "minrank": 18, "verify": 18, "codec": 80}

WORKLOADS = {
    "oracle": setup_oracle,
    "minrank": setup_minrank,
    "verify": setup_verify,
    "codec": setup_codec,
}
