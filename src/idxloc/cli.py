"""Command-line front end.

Subcommands: minrank, construct, verify, profile, tradeoff, oracle,
normalize.  The command comes first, then its flags, each named in full
and given one value as "--flag value" or "--flag=value"; a command
accepts only the flags it reads (see COMMANDS), and any other token is
an input error.  All rationals are printed as "p/q" in lowest terms so
output is exact and byte-stable across runs.

Each command's handler returns its exit code and its stdout text; main
writes that text, the help or a refusal once, when the command ends.

Exit codes: 0 success / verification PASS, 2 verification FAIL,
3 input error (files, arguments, structural mismatches, an unwritable
output), 4 search budget exceeded.  A closed stream is not an error.
"""

from __future__ import annotations

import json
import os
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
    """An input error: exit 3 with its message."""


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
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load code file: {exc}") from exc


def _profile_line(code: IndexCode) -> str:
    r, r_avg = overall_locality(code)
    return f"beta={code.beta} r={r} r_avg={r_avg}"


def cmd_minrank(args: SimpleNamespace) -> tuple[int, str]:
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
    return EXIT_OK, f"minrank={value}\nwitness={out}\n"


def cmd_construct(args: SimpleNamespace) -> tuple[int, str]:
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
    return EXIT_OK, _profile_line(code) + "\n"


def cmd_verify(args: SimpleNamespace) -> tuple[int, str]:
    g = _load_graph(args.graph)
    code = _load_code(args.code)
    try:
        result = verify_decodable(g, code)
    except ValueError as exc:
        raise CliError(f"structural mismatch: {exc}") from exc
    if isinstance(result, DecodingFailure):
        lines = ["FAIL"]
        lines += [f"undecodable receiver={i} symbol={j}" for i, j in result.failures]
        return EXIT_FAIL, "\n".join(lines) + "\n"
    sizes = " ".join(str(len(r)) for r in code.queries)
    lines = ["PASS", _profile_line(code), f"queries_per_receiver={sizes}"]
    report = converse_checks(g, code, result, args.budget)
    for check in report.checks:
        ctx = f" {check.context}" if check.context else ""
        if check.status == "not_applicable":
            lines.append(f"check {check.name}{ctx}: not applicable ({check.note})")
        else:
            lines.append(
                f"check {check.name}{ctx}: {check.status}"
                f" lhs={check.lhs} rhs={check.rhs} slack={check.slack}"
            )
    return EXIT_OK if report.all_ok else EXIT_FAIL, "\n".join(lines) + "\n"


def cmd_profile(args: SimpleNamespace) -> tuple[int, str]:
    code = _load_code(args.code)
    per = " ".join(map(str, locality_profile(code).per_receiver))
    return EXIT_OK, f"{_profile_line(code)}\nr_i={per}\n"


def cmd_tradeoff(args: SimpleNamespace) -> tuple[int, str]:
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
        return EXIT_OK, ""
    return EXIT_OK, text


def cmd_oracle(args: SimpleNamespace) -> tuple[int, str]:
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
    text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return EXIT_OK, text


def cmd_normalize(args: SimpleNamespace) -> tuple[int, str]:
    g = _load_graph(args.graph)
    code = _load_code(args.code)
    try:
        normalized = normalize_unique_columns(g, prune_queries(g, code))
    except ValueError as exc:
        raise CliError(f"normalize failed: {exc}") from exc
    save_code(normalized, args.out)
    return EXIT_OK, _profile_line(normalized) + "\n"


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


def _show_help(command: str | None) -> str:
    """The usage of idxloc, or of one command."""
    if command is None:
        usages = "".join(f"  {_usage(name)}\n" for name in COMMANDS)
        return (
            f"usage: idxloc [-h] {{{','.join(COMMANDS)}}} ...\n\n"
            "Locally decodable index codes: construct, verify, bound.\n\n"
            f"{usages}\n{_SYNTAX}"
        )
    return f"usage: {_usage(command)}\n\n{_SYNTAX}"


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
    found.  -h/--help gives command=None and the usage as help."""
    if not argv:
        raise CliError("the following arguments are required: command")
    command = argv[0]
    if command in _HELP:
        return SimpleNamespace(command=None, help=_show_help(None))
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
            return SimpleNamespace(command=None, help=_show_help(command))
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
    """Run one command, or show the help, and return the exit code.

    A command's text or the help goes to stdout, a refusal to stderr as
    one "error: ..." line (exit 3 or 4), each by one _write at the end.
    An OSError raised by _write or an --out file's write exits 3."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.command is None:
            exit_code, text = EXIT_OK, args.help
        else:
            _check_values(args)
            exit_code, text = COMMANDS[args.command][0](args)
        _write(sys.stdout, text)
    except (CliError, BudgetExceededError, OSError) as exc:
        exit_code, prefix = EXIT_INPUT, ""
        if isinstance(exc, BudgetExceededError):
            exit_code = EXIT_BUDGET
        elif isinstance(exc, OSError):  # reads are reported where they happen
            prefix = "cannot write output: "
        _write(sys.stderr, f"error: {prefix}{exc}\n")
    return exit_code


def _write(stream, text: str) -> None:
    """Write text to stream and flush it.  The text is dropped, with the
    exit code kept, if the stream is None (closed at start-up), if its
    reader has gone (``| head``), or on any OSError on stderr, where no
    error can be reported; the stream's descriptor then points at
    os.devnull, so that the flush at exit raises nothing either."""
    if stream is None:
        return
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        if stream is sys.stdout and not isinstance(exc, BrokenPipeError):
            raise
        try:
            fd = stream.fileno()
        except (OSError, ValueError):
            return
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), fd)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
