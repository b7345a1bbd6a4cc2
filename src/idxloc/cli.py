"""Command-line front end.

Subcommands: minrank, construct, verify, profile, tradeoff, oracle,
normalize.  The command comes first, then its flags, each named in full
and given one value as "--flag value" or "--flag=value"; a command
accepts only the flags it reads (see COMMANDS), and any other token is
an input error.  All rationals are printed as "p/q" in lowest terms so
output is exact and byte-stable across runs.

Exit codes: 0 success / verification PASS, 2 verification FAIL,
3 input error (files, arguments, structural mismatches, an unwritable
output), 4 search budget exceeded.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .bounds import (
    BudgetExceededError,
    converse_checks,
    cycle_tradeoff,
    minrank_bruteforce,
    pareto_frontier,
)
from .codes import (
    DecodingFailure,
    IndexCode,
    _read_text,
    _write_text,
    load_code,
    locality_profile,
    normalize_unique_columns,
    overall_locality,
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
    directed_cycle,
    parse_graph,
)
from .linalg import MODULUS_BOUND, is_prime

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4

SCHEMES = ("uncoded", "cycle-scalar", "cycle-vector", "deficit")


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_INPUT):
        super().__init__(message)
        self.exit_code = exit_code


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
        text = _read_text(path)
    except (OSError, UnicodeDecodeError) as exc:
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
    r, r_avg = overall_locality(code)
    return f"beta={code.beta} r={r} r_avg={r_avg}"


def cmd_minrank(args: SimpleNamespace) -> int:
    g = _load_graph(args.graph)
    value, witness = minrank_bruteforce(g, args.q, args.budget)
    out = args.out
    if out is None:
        out = str(Path(args.graph).with_suffix("")) + "_minrank_witness.json"
    doc = {
        "q": args.q,
        "N": g.n,
        "A": [list(witness.matrix.row(i)) for i in range(g.n)],
    }
    _write_text(out, json.dumps(doc, sort_keys=True) + "\n")
    print(f"minrank={value}")
    print(f"witness={out}")
    return EXIT_OK


def cmd_construct(args: SimpleNamespace) -> int:
    if args.m != 1 and args.scheme in ("cycle-scalar", "deficit"):
        raise CliError(
            f"scheme '{args.scheme}' builds scalar codes only; --M must be 1"
        )
    g = _load_graph(args.graph)
    # The cycle builders lay their code on directed_cycle's labelling.
    if args.scheme.startswith("cycle-") and (g.n < 3 or g != directed_cycle(g.n)):
        raise CliError(
            f"scheme '{args.scheme}' needs a directed cycle on at least "
            "3 vertices labelled i -> i+1: receiver i knows message i+1 "
            "and receiver N knows message 1"
        )
    if args.scheme == "uncoded":
        code = uncoded(g, args.m, args.q)
    elif args.scheme == "cycle-scalar":
        code = cycle_scalar_code(g.n, args.q, anchor=1)
    elif args.scheme == "cycle-vector":
        code = cycle_vector_code(g.n, args.q, args.m)
    else:
        try:
            code = minrank_deficit_code(g, args.q)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    save_code(code, args.out)
    print(_profile_line(code))
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
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
                f" lhs={check.lhs} rhs={check.rhs} slack={check.slack}"
            )
    if not report.all_ok:
        return EXIT_FAIL
    return EXIT_OK


def cmd_profile(args: SimpleNamespace) -> int:
    code = _load_code(args.code)
    print(_profile_line(code))
    print("r_i=" + " ".join(map(str, locality_profile(code).per_receiver)))
    return EXIT_OK


def cmd_tradeoff(args: SimpleNamespace) -> int:
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
        lines.append(f"{r},{cycle_tradeoff(n, r)}")
        r += step
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args: SimpleNamespace) -> int:
    g = _load_graph(args.graph)
    out_path = Path(args.out)
    # The witness files are named after the CSV's file name.
    if not out_path.name:
        raise CliError(f"cannot write output: --out {args.out!r} names no file")
    points = pareto_frontier(g, args.q, args.m, args.ell, args.r, args.budget)
    lines = ["beta,r,r_avg,witness_file"]
    for idx, point in enumerate(points, start=1):
        witness_file = out_path.with_name(f"{out_path.stem}_witness_{idx}.json")
        save_code(point.witness, witness_file)
        lines.append(f"{point.beta},{point.r},{point.r_avg},{witness_file.name}")
    _write_text(args.out, "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_normalize(args: SimpleNamespace) -> int:
    g = _load_graph(args.graph)
    code = _load_code(args.code)
    try:
        normalized = normalize_unique_columns(g, prune_queries(g, code))
    except ValueError as exc:
        raise CliError(f"normalize failed: {exc}") from exc
    save_code(normalized, args.out)
    print(_profile_line(normalized))
    return EXIT_OK


# Every flag some subcommand reads, with its options: "type", "default"
# and "choices".  Each flag takes exactly one value, stored under its name
# without the dashes, in lower case.
FLAGS = {
    "--graph": {},
    "--code": {},
    "--q": {"type": int, "default": 2},
    "--M": {"type": int, "default": 1},
    "--r": {},
    "--ell": {"type": int},
    "--scheme": {"choices": SCHEMES},
    "--budget": {"type": int},
    "--out": {},
}

# Each subcommand: its handler, the flags it requires and the other flags
# it reads, each in the order of FLAGS.  It accepts no other flag.
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

_HELP = ("-h", "--help")
_SYNTAX = (
    "Flags in [...] are optional.  Each flag is named in full and takes one\n"
    "value, after a space or an '='; the last of a repeated flag wins.\n"
)


def _usage(command: str) -> str:
    _, required, optional = COMMANDS[command]
    parts = [f"idxloc {command} [-h]"]
    for flag, options in FLAGS.items():
        if flag in required or flag in optional:
            choices = options.get("choices")
            value = "{%s}" % ",".join(choices) if choices else flag[2:].upper()
            parts.append(f"{flag} {value}" if flag in required else f"[{flag} {value}]")
    return " ".join(parts)


def _show_help(command: str | None) -> None:
    """Print the usage of idxloc, or of one command, and exit 0."""
    if command is None:
        usages = "".join(f"  {_usage(name)}\n" for name in COMMANDS)
        text = (
            f"usage: idxloc [-h] {{{','.join(COMMANDS)}}} ...\n\n"
            "Locally decodable index codes: construct, verify, bound.\n\n"
            f"{usages}\n{_SYNTAX}"
        )
    else:
        text = f"usage: {_usage(command)}\n\n{_SYNTAX}"
    sys.stdout.write(text)
    raise SystemExit(EXIT_OK)


def _convert(flag: str, text: str) -> int | str:
    options = FLAGS[flag]
    if "type" in options:
        try:
            return options["type"](text)
        except ValueError:
            kind = options["type"].__name__
            raise CliError(f"argument {flag}: invalid {kind} value: {text!r}") from None
    choices = options.get("choices")
    if choices is not None and text not in choices:
        raise _invalid_choice(flag, text, choices)
    return text


def _invalid_choice(name: str, text: str, choices) -> CliError:
    listed = ", ".join(map(repr, choices))
    return CliError(f"argument {name}: invalid choice: {text!r} (choose from {listed})")


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against COMMANDS and FLAGS in one pass.

    argv[0] is -h/--help or the command.  Each later token is -h/--help,
    --flag=value, or the full name of one of the command's flags followed
    by its value, which may not be another of those names or -h/--help.
    The last of a repeated flag wins.  Refusals raise CliError in token
    order; any other token is refused only once every required flag is
    found."""
    if not argv:
        raise CliError("the following arguments are required: command")
    command = argv[0]
    if command in _HELP:
        _show_help(None)
    if command not in COMMANDS:
        raise _invalid_choice("command", command, COMMANDS)
    _, required, optional = COMMANDS[command]
    flags = required + optional
    values = {}
    unread = []
    k = 1
    while k < len(argv):
        token = argv[k]
        k += 1
        if token in _HELP:
            _show_help(command)
        flag, eq, text = token.partition("=")
        if flag not in flags:
            unread.append(token)
            continue
        if not eq:
            if k == len(argv) or argv[k] in flags or argv[k] in _HELP:
                raise CliError(f"argument {flag}: expected one argument")
            text = argv[k]
            k += 1
        values[flag] = _convert(flag, text)
    missing = [f for f in required if f not in values]
    if missing:
        raise CliError(f"the following arguments are required: {', '.join(missing)}")
    if unread:
        raise CliError(f"unrecognized arguments: {' '.join(unread)}")
    args = SimpleNamespace(command=command)
    for flag in flags:
        setattr(args, flag[2:].lower(), values.get(flag, FLAGS[flag].get("default")))
    return args


def _check_values(args: SimpleNamespace) -> None:
    """Refuse out-of-range values of the subcommand's numeric flags, and
    turn --r into a Fraction."""
    read = vars(args)
    if "r" in read:
        args.r = None if args.r is None else parse_frac(args.r)
    if "q" in read and args.q >= MODULUS_BOUND:
        raise CliError(f"--q must be below 2^32, got {args.q}")
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
        args = parse_args(sys.argv[1:] if argv is None else argv)
        _check_values(args)
        return COMMANDS[args.command][0](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:  # reads are reported where they happen
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
