"""Command-line front end.

Subcommands: minrank, construct, verify, profile, tradeoff, oracle,
normalize.  All rationals are printed as "p/q" in lowest terms so output
is exact and byte-stable across runs.

Exit codes: 0 success / verification PASS, 2 verification FAIL,
3 input error (files, arguments, structural mismatches), 4 search budget
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RunConfig:
    command: str
    graph_path: str | None = None
    code_path: str | None = None
    q: int = 2
    m: int = 1
    r: Fraction | None = None
    ell: int | None = None
    scheme: str | None = None
    budget: int | None = None
    output_path: str | None = None

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise CliError(f"--q must be prime, got {self.q}")
        if self.m < 1:
            raise CliError("--M must be at least 1")
        if self.ell is not None and self.ell < 1:
            raise CliError("--ell must be at least 1")
        if self.r is not None and self.r < 1:
            raise CliError("--r must be at least 1")
        if self.budget is not None and self.budget <= 0:
            raise CliError("--budget must be positive")


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


def _load_graph(config: RunConfig) -> SideInformationGraph:
    if config.graph_path is None:
        raise CliError("this command needs --graph")
    try:
        text = Path(config.graph_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read graph file: {exc}") from exc
    try:
        return parse_graph(text)
    except GraphParseError as exc:
        raise CliError(f"graph parse error: {exc}") from exc


def _load_code(config: RunConfig) -> IndexCode:
    if config.code_path is None:
        raise CliError("this command needs --code")
    try:
        return load_code(config.code_path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load code file: {exc}") from exc


def _profile_line(code: IndexCode) -> str:
    p = locality_profile(code)
    return f"beta={fmt_frac(p.beta)} r={fmt_frac(p.r)} r_avg={fmt_frac(p.r_avg)}"


def cmd_minrank(config: RunConfig) -> int:
    g = _load_graph(config)
    try:
        value, witness = minrank_bruteforce(g, config.q, config.budget)
    except BudgetExceededError as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    out = config.output_path
    if out is None:
        out = str(Path(config.graph_path).with_suffix("")) + "_minrank_witness.json"
    doc = {
        "q": config.q,
        "N": g.n,
        "A": [list(witness.matrix.row(i)) for i in range(g.n)],
    }
    Path(out).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    print(f"minrank={value}")
    print(f"witness={out}")
    return EXIT_OK


def cmd_construct(config: RunConfig) -> int:
    g = _load_graph(config)
    if config.scheme not in SCHEMES:
        raise CliError(f"--scheme must be one of {', '.join(SCHEMES)}")
    if config.output_path is None:
        raise CliError("construct needs --out for the code JSON")
    n_cycle = cycle_length_if_cycle(g)
    if config.scheme.startswith("cycle-") and (n_cycle is None or n_cycle < 3):
        raise CliError(
            f"scheme '{config.scheme}' needs a directed cycle on at least "
            "3 vertices"
        )
    if config.scheme == "uncoded":
        code = uncoded(g, config.m, config.q)
    elif config.scheme == "cycle-scalar":
        code = cycle_scalar_code(n_cycle, config.q, anchor=1)
    elif config.scheme == "cycle-vector":
        code = cycle_vector_code(n_cycle, config.q, config.m)
    else:
        try:
            code = minrank_deficit_code(g, config.q)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    save_code(code, config.output_path)
    print(_profile_line(code))
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    g = _load_graph(config)
    code = _load_code(config)
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
    report = converse_checks(g, code, result, config.budget)
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


def cmd_profile(config: RunConfig) -> int:
    code = _load_code(config)
    print(_profile_line(code))
    p = locality_profile(code)
    per = " ".join(fmt_frac(x) for x in p.per_receiver)
    print(f"r_i={per}")
    return EXIT_OK


def cmd_tradeoff(config: RunConfig) -> int:
    g = _load_graph(config)
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
    if config.output_path:
        Path(config.output_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(config: RunConfig) -> int:
    g = _load_graph(config)
    if config.ell is None:
        raise CliError("oracle needs --ell (maximum code length)")
    if config.output_path is None:
        raise CliError("oracle needs --out for the CSV table")
    points: list[ParetoPoint] = []
    try:
        for ell in range(1, config.ell + 1):
            if config.m == 1:
                found = exhaustive_scalar_search(
                    g, config.q, ell, config.r, config.budget
                )
            else:
                found = exhaustive_vector_search(
                    g, config.q, config.m, ell, config.r, config.budget
                )
            points.extend(found)
    except BudgetExceededError as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    merged = pareto_merge(points)
    out_path = Path(config.output_path)
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


def cmd_normalize(config: RunConfig) -> int:
    g = _load_graph(config)
    code = _load_code(config)
    if config.output_path is None:
        raise CliError("normalize needs --out for the rewritten code")
    try:
        pruned = prune_queries(g, code)
        normalized = normalize_unique_columns(g, pruned)
    except ValueError as exc:
        raise CliError(f"normalize failed: {exc}") from exc
    save_code(normalized, config.output_path)
    print(_profile_line(normalized))
    return EXIT_OK


COMMANDS = {
    "minrank": cmd_minrank,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "profile": cmd_profile,
    "tradeoff": cmd_tradeoff,
    "oracle": cmd_oracle,
    "normalize": cmd_normalize,
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
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--graph", dest="graph_path")
        p.add_argument("--code", dest="code_path")
        p.add_argument("--q", type=int, default=2)
        p.add_argument("--M", dest="m", type=int, default=1)
        p.add_argument("--r", dest="r_text")
        p.add_argument("--ell", type=int)
        p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("--budget", type=int)
        p.add_argument("--out", dest="output_path")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = RunConfig(
            command=args.command,
            graph_path=args.graph_path,
            code_path=args.code_path,
            q=args.q,
            m=args.m,
            r=parse_frac(args.r_text) if args.r_text else None,
            ell=args.ell,
            scheme=args.scheme,
            budget=args.budget,
            output_path=args.output_path,
        )
        return COMMANDS[config.command](config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
