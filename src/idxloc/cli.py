"""Command-line front end.

Subcommands: minrank, construct, verify, profile, tradeoff, oracle,
normalize.  Each accepts only the flags it reads (see COMMANDS); any
other flag is an input error.  All rationals are printed as "p/q" in
lowest terms so output is exact and byte-stable across runs.

Exit codes: 0 success / verification PASS, 2 verification FAIL,
3 input error (files, arguments, structural mismatches), 4 search budget
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import (
    BudgetExceededError,
    ParetoPoint,
    converse_checks,
    cycle_tradeoff,
    exhaustive_scalar_search,
    exhaustive_vector_search,
    minrank_bruteforce,
    pareto_merge,
)
from .codes import (
    DecodingFailure,
    IndexCode,
    load_code,
    locality_profile,
    normalize_unique_columns,
    prune_queries,
    save_code,
    verify_decodable,
)
from .constructions import (
    cycle_scalar_code,
    cycle_vector_code,
    minrank_deficit_code,
    uncoded,
)
from .graphs import (
    GraphParseError,
    SideInformationGraph,
    cycle_length_if_cycle,
    parse_graph,
)
from .linalg import is_prime

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4

SCHEMES = ("uncoded", "cycle-scalar", "cycle-vector", "deficit")


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_INPUT):
        super().__init__(message)
        self.exit_code = exit_code


def fmt_frac(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}: {exc}") from exc


def _load_graph(path: str) -> SideInformationGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read graph file: {exc}") from exc
    try:
        return parse_graph(text)
    except GraphParseError as exc:
        raise CliError(f"graph parse error: {exc}") from exc


def _load_code(path: str) -> IndexCode:
    try:
        return load_code(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load code file: {exc}") from exc


def _profile_line(code: IndexCode) -> str:
    p = locality_profile(code)
    return f"beta={fmt_frac(p.beta)} r={fmt_frac(p.r)} r_avg={fmt_frac(p.r_avg)}"


def cmd_minrank(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    try:
        value, witness = minrank_bruteforce(g, args.q, args.budget)
    except BudgetExceededError as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    out = args.out
    if out is None:
        out = str(Path(args.graph).with_suffix("")) + "_minrank_witness.json"
    doc = {
        "q": args.q,
        "N": g.n,
        "A": [list(witness.matrix.row(i)) for i in range(g.n)],
    }
    Path(out).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    print(f"minrank={value}")
    print(f"witness={out}")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    n_cycle = cycle_length_if_cycle(g)
    if args.scheme.startswith("cycle-") and (n_cycle is None or n_cycle < 3):
        raise CliError(
            f"scheme '{args.scheme}' needs a directed cycle on at least "
            "3 vertices"
        )
    if args.scheme == "uncoded":
        code = uncoded(g, args.m, args.q)
    elif args.scheme == "cycle-scalar":
        code = cycle_scalar_code(n_cycle, args.q, anchor=1)
    elif args.scheme == "cycle-vector":
        code = cycle_vector_code(n_cycle, args.q, args.m)
    else:
        try:
            code = minrank_deficit_code(g, args.q)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    save_code(code, args.out)
    print(_profile_line(code))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    code = _load_code(args.code)
    try:
        result = verify_decodable(g, code)
    except ValueError as exc:
        raise CliError(f"structural mismatch: {exc}") from exc
    if isinstance(result, DecodingFailure):
        print("FAIL")
        for i, j in result.failures:
            print(f"undecodable receiver={i} symbol={j}")
        return EXIT_FAIL
    print("PASS")
    print(_profile_line(code))
    sizes = " ".join(str(len(r)) for r in code.queries)
    print(f"queries_per_receiver={sizes}")
    report = converse_checks(g, code, result, args.budget)
    for check in report.checks:
        ctx = f" {check.context}" if check.context else ""
        if check.status == "not_applicable":
            print(f"check {check.name}{ctx}: not applicable ({check.note})")
        else:
            print(
                f"check {check.name}{ctx}: {check.status}"
                f" lhs={fmt_frac(check.lhs)} rhs={fmt_frac(check.rhs)}"
                f" slack={fmt_frac(check.slack)}"
            )
    if not report.all_ok:
        return EXIT_FAIL
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    print(_profile_line(code))
    p = locality_profile(code)
    per = " ".join(fmt_frac(x) for x in p.per_receiver)
    print(f"r_i={per}")
    return EXIT_OK


def cmd_tradeoff(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    n = cycle_length_if_cycle(g)
    if n is None or n < 3:
        raise CliError(
            "the closed-form curve applies to directed cycles on at least "
            "3 vertices only"
        )
    lines = ["r,beta_star"]
    r = Fraction(1)
    step = Fraction(1, n)
    while r <= 2:
        lines.append(f"{fmt_frac(r)},{fmt_frac(cycle_tradeoff(n, r))}")
        r += step
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    points: list[ParetoPoint] = []
    try:
        for ell in range(1, args.ell + 1):
            if args.m == 1:
                found = exhaustive_scalar_search(
                    g, args.q, ell, args.r, args.budget
                )
            else:
                found = exhaustive_vector_search(
                    g, args.q, args.m, ell, args.r, args.budget
                )
            points.extend(found)
    except BudgetExceededError as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    merged = pareto_merge(points)
    out_path = Path(args.out)
    lines = ["beta,r,r_avg,witness_file"]
    for idx, point in enumerate(merged, start=1):
        witness_file = out_path.with_name(f"{out_path.stem}_witness_{idx}.json")
        save_code(point.witness, witness_file)
        lines.append(
            f"{fmt_frac(point.beta)},{fmt_frac(point.r)},"
            f"{fmt_frac(point.r_avg)},{witness_file.name}"
        )
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    code = _load_code(args.code)
    try:
        pruned = prune_queries(g, code)
        normalized = normalize_unique_columns(g, pruned)
    except ValueError as exc:
        raise CliError(f"normalize failed: {exc}") from exc
    save_code(normalized, args.out)
    print(_profile_line(normalized))
    return EXIT_OK


# Every flag some subcommand reads, with its argparse options.
FLAGS = {
    "--graph": {},
    "--code": {},
    "--q": {"type": int, "default": 2},
    "--M": {"dest": "m", "type": int, "default": 1},
    "--r": {},
    "--ell": {"type": int},
    "--scheme": {"choices": SCHEMES},
    "--budget": {"type": int},
    "--out": {},
}

# Each subcommand: its handler, the flags it requires and the other flags
# it reads.  It accepts no other flag.
COMMANDS = {
    "minrank": (cmd_minrank, ("--graph",), ("--q", "--budget", "--out")),
    "construct": (cmd_construct, ("--graph", "--scheme", "--out"), ("--q", "--M")),
    "verify": (cmd_verify, ("--graph", "--code"), ("--budget",)),
    "profile": (cmd_profile, ("--code",), ()),
    "tradeoff": (cmd_tradeoff, ("--graph",), ("--out",)),
    "oracle": (
        cmd_oracle, ("--graph", "--ell", "--out"), ("--q", "--M", "--r", "--budget")
    ),
    "normalize": (cmd_normalize, ("--graph", "--code", "--out"), ()),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # type: ignore[override]
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls;
    parsing leaves it unchanged."""
    parser = _Parser(
        prog="idxloc",
        description="Locally decodable index codes: construct, verify, bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, options in FLAGS.items():
            if flag in required or flag in optional:
                p.add_argument(flag, required=flag in required, **options)
    return parser


def _check_values(args: argparse.Namespace) -> None:
    """Refuse out-of-range values of the subcommand's numeric flags, and
    turn --r into a Fraction."""
    read = vars(args)
    if "r" in read:
        args.r = parse_frac(args.r) if args.r else None
    if "q" in read and not is_prime(args.q):
        raise CliError(f"--q must be prime, got {args.q}")
    if read.get("m", 1) < 1:
        raise CliError("--M must be at least 1")
    if read.get("ell", 1) < 1:
        raise CliError("--ell must be at least 1")
    if read.get("r") is not None and args.r < 1:
        raise CliError("--r must be at least 1")
    if read.get("budget") is not None and args.budget <= 0:
        raise CliError("--budget must be positive")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_values(args)
        return COMMANDS[args.command][0](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
