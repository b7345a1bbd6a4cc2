"""Locally decodable linear index codes.

An index code broadcasts c = x^T L for a message vector x of n messages,
m symbols each, and lets receiver i read only the codeword positions in
its query set R_i.  This module holds the code value type, decodability
verification with explicit decoding witnesses, encoding and per-receiver
decoding, locality accounting, query pruning, the support normalization
of receiver-unique columns, and the fitting matrix extracted from a
scalar decoding plan.

Encoding and decoding are one packed big-int product each.  A matrix
with entries in [0, q) is packed row by row: row r becomes one int
whose little-endian bytes hold column k in the k-th field of w bytes,
w wide enough that a sum of t products of two symbols never carries
into the next field, where t is the number of rows a product sums.
Scaling the packed rows by the symbols and adding them gives every
column's dot product at once, so the cost hangs on the shape and
hardly on q.  Encoding packs the encoder, t = m*n.  A plan holds
exactly the functional each receiver evaluates: per demanded symbol,
one alpha coefficient per sorted query column and one u coefficient per
side-information row, in graphs.receiver_rows order; decoding packs,
per receiver, its decoding matrix, one row per query column with the
alphas of its m symbols and one per side row with their (-u) mod q, so
t = |R_i| + m*|K_i|.  Codes and plans pack on first use and keep the
result, so building or verifying a code packs nothing.  A plan records
the side information of the graph it was verified on and is validated
when built, and it refuses a graph whose K_i differs from the one it
was verified on.

Receiver, message and codeword-column indices are 1-based; raw matrix
coordinates are 0-based.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, islice
from operator import add, mul
from pathlib import Path
from typing import Sequence

from .graphs import SideInformationGraph, receiver_rows
from .linalg import (
    FqMatrix, Vector, require_prime, span_coordinates, span_format, span_units,
    unit_vector,
)


class UndecodableError(ValueError):
    """Raised when an operation requires a decodable code but got none."""

    def __init__(self, failures: Sequence[tuple[int, int]]):
        self.failures = tuple(failures)
        pairs = ", ".join(f"({i},{j})" for i, j in self.failures)
        super().__init__(f"code is not decodable at (receiver, symbol): {pairs}")


@dataclass(frozen=True)
class IndexCode:
    """A linear index code: encoder matrix plus per-receiver query sets.

    matrix has m*n rows (message symbols) and ell columns (codeword
    symbols); queries[i-1] collects the 1-based column indices receiver i
    reads.  The broadcast rate is ell/m.

    The encoder rows that encode reads are packed on first use and kept:
    _packed is (w, rows), with row r as one int whose little-endian
    bytes hold column k in bytes [k*w, (k+1)*w), where w is the fewest
    bytes that hold m*n*(q-1)**2.  It is derived from matrix and takes
    no part in equality, hashing or repr.
    """

    q: int
    m: int
    n: int
    matrix: FqMatrix
    queries: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.matrix.q != self.q:
            raise ValueError("matrix field does not match code field")
        if self.matrix.rows != self.m * self.n:
            raise ValueError("encoder must have m*n rows")
        if len(self.queries) != self.n:
            raise ValueError("one query set per receiver required")
        for i, r in enumerate(self.queries, start=1):
            for k in r:
                if not 1 <= k <= self.ell:
                    raise ValueError(f"receiver {i} queries out-of-range column {k}")

    @cached_property
    def _packed(self) -> tuple[int, tuple[int, ...]]:
        width = _field_width(self.matrix.rows, self.q)
        return width, _pack(self.matrix.row_list(), width)

    @property
    def ell(self) -> int:
        return self.matrix.cols

    @property
    def beta(self) -> Fraction:
        return Fraction(self.ell, self.m)

    def query_list(self, i: int) -> tuple[int, ...]:
        """Sorted query columns of receiver i (1-based)."""
        return tuple(sorted(self.queries[i - 1]))

    def column_vector(self, k: int) -> Vector:
        """Column k (1-based) of the encoder."""
        return self.matrix.column(k - 1)


@dataclass(frozen=True)
class PlanEntry:
    """Decoding witness for one demanded symbol j of receiver i.

    alpha holds one coefficient per sorted query column and u one per
    side-information row s_1, s_2, ... of receiver i, in the order of
    graphs.receiver_rows, chosen so that
    sum(alpha_k * L_k) == e_j + sum(u_t * e_{s_t}).
    """

    demand: int
    u: Vector
    alpha: tuple[int, ...]


@dataclass(frozen=True)
class DecodingPlan:
    """Decoding witnesses of every receiver: receivers[i-1] holds one
    PlanEntry per demanded symbol of receiver i, in ascending order, and
    side[i-1] is the side information K_i of the graph the witnesses
    were found on.

    A plan is validated when built.  Raises ValueError unless m and n
    are positive, side and receivers hold one item per receiver, the
    entries of receiver i demand exactly its own m symbols in ascending
    order and hold equally many alpha coefficients, and each entry's u
    holds m * |K_i| coefficients.

    The decoding matrices that decode_receiver reads are packed on first
    use and kept: _packed is (w, rows), where rows[i-1] holds one int
    per query column of receiver i, with the alpha coefficients of its
    m entries, reduced mod q, as fields, then one int per side row, with
    the entries' (-u) mod q.  w is the fewest bytes that hold
    t*(q-1)**2 for the largest t = |R_i| + m*|K_i|.  It is derived from
    receivers and takes no part in equality, hashing or repr.
    """

    q: int
    m: int
    n: int
    receivers: tuple[tuple[PlanEntry, ...], ...]
    side: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if len(self.side) != self.n:
            raise ValueError("one side-information set per receiver required")
        if len(self.receivers) != self.n:
            raise ValueError("one tuple of entries per receiver required")
        m = self.m
        # Receiver i demands the m symbols after those of receiver i-1.
        for i, first, entries, known in zip(
            count(1), count(1, m), self.receivers, self.side
        ):
            if [e.demand for e in entries] != list(range(first, first + m)):
                raise ValueError(
                    f"receiver {i} must demand its own symbols in ascending order"
                )
            if len({len(e.alpha) for e in entries}) != 1:
                raise ValueError(f"receiver {i} entries hold unequal alpha lengths")
            if any(len(e.u) != m * len(known) for e in entries):
                raise ValueError(
                    f"receiver {i} entries need {m * len(known)} u coefficients"
                )

    @cached_property
    def _packed(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        q = self.q
        matrices = [
            [[a % q for a in col] for col in zip(*(e.alpha for e in entries))]
            + [[-u % q for u in row] for row in zip(*(e.u for e in entries))]
            for entries in self.receivers
        ]
        width = _field_width(max(map(len, matrices)), q)
        rows = iter(_pack([row for matrix in matrices for row in matrix], width))
        return width, tuple(tuple(islice(rows, len(matrix))) for matrix in matrices)

    def entries(self, i: int) -> tuple[PlanEntry, ...]:
        return self.receivers[i - 1]


@dataclass(frozen=True)
class DecodingFailure:
    """Report of every (receiver, symbol) pair that cannot be decoded."""

    failures: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LocalityProfile:
    """Exact localities: r_i = |R_i|/m, overall max, average, and rate."""

    per_receiver: tuple[Fraction, ...]
    r: Fraction
    r_avg: Fraction
    beta: Fraction


@dataclass(frozen=True)
class QueryPartition:
    """Codeword positions split into receiver-unique and shared queries."""

    unique: tuple[frozenset[int], ...]
    shared: tuple[frozenset[int], ...]
    unique_all: frozenset[int]
    shared_all: frozenset[int]


@dataclass(frozen=True)
class FittingMatrix:
    """Square matrix with unit diagonal whose off-diagonal support stays
    inside the instance's side-information pattern.

    Produced either by stacking the decoding witnesses u_i + e_i of a
    scalar plan (fitting_matrix_from_plan) or by the min-rank search
    (bounds.minrank_bruteforce).
    """

    matrix: FqMatrix

    def __post_init__(self) -> None:
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("fitting matrix must be square")
        for i in range(self.matrix.rows):
            if self.matrix.entry(i, i) != 1:
                raise ValueError("fitting matrix needs a unit diagonal")

    def fits(self, g: SideInformationGraph) -> bool:
        """Whether every nonzero off-diagonal entry (j, i) has j in K_i."""
        n = self.matrix.rows
        if n != g.n:
            return False
        for flat in compress(count(), self.matrix.entries):
            j, i = divmod(flat, n)
            if j != i and j + 1 not in g.side[i]:
                return False
        return True


def _field_width(terms: int, q: int) -> int:
    """The fewest bytes, at least one, that hold terms*(q-1)**2: a field
    of that width holds a sum of terms products of two symbols in
    [0, q)."""
    return max(1, ((terms * (q - 1) ** 2).bit_length() + 7) // 8)


def _pack(rows: Sequence[Sequence[int]], width: int) -> tuple[int, ...]:
    """Each row as one int whose little-endian bytes hold entry k in
    bytes [k*width, (k+1)*width).  Entries lie in [0, q), so each fits a
    field of _field_width's width."""
    return tuple(
        int.from_bytes(b"".join(v.to_bytes(width, "little") for v in row), "little")
        for row in rows
    )


def _product(
    x: Sequence[int], rows: Sequence[int], width: int, cols: int, q: int
) -> Vector:
    """x^T A mod q for the matrix A whose rows _pack packed at this width
    into cols fields.  Symbols are reduced mod q first, so the packed
    rows, scaled by them and summed, hold sum_r x_r A_rk in field k with
    no carry between fields; each field is read off its bytes and
    reduced mod q."""
    packed = sum(map(mul, [v % q for v in x], rows))
    packed = packed.to_bytes(cols * width, "little")
    sums = packed[::width]
    for t in range(1, width):
        sums = map(add, sums, map((1 << 8 * t).__mul__, packed[t::width]))
    return tuple([v % q for v in sums])


def _check_structure(g: SideInformationGraph, code: IndexCode) -> None:
    if code.n != g.n:
        raise ValueError(f"code has {code.n} receivers but graph has {g.n}")


def verify_decodable(
    g: SideInformationGraph, code: IndexCode
) -> DecodingPlan | DecodingFailure:
    """Check decodability at every receiver and extract witnesses.

    Receiver i can decode symbol j iff e_j lies in the span of its
    queried columns plus the side-information coordinate subspace; one
    ``linalg.span_coordinates`` call per receiver, in the search kernel's
    vector format and pivot rule, with the demand unit vectors as
    targets, gives every witness at once.  Returns a DecodingPlan on
    success, otherwise a DecodingFailure listing every undecodable
    (receiver, symbol) pair.  Structural mismatches between graph and
    code raise ValueError instead.
    """
    _check_structure(g, code)
    mn = code.m * code.n
    q = code.q
    columns = span_format(code.matrix.column_list(), q)
    units = span_units(mn, q)
    failures: list[tuple[int, int]] = []
    receivers: list[tuple[PlanEntry, ...]] = []
    for i in range(1, code.n + 1):
        demand_rows, side_rows = receiver_rows(g, code.m, i)
        cols = [columns[k - 1] for k in code.query_list(i)]
        gens = cols + [units[s] for s in side_rows]
        coords = span_coordinates(gens + [units[j] for j in demand_rows], len(gens), mn, q)
        entries: list[PlanEntry] = []
        for j, sol in zip(demand_rows, coords[len(gens) :]):
            if sol is None:
                failures.append((i, j + 1))
                continue
            u = tuple([-c % q for c in sol[len(cols) :]])
            entries.append(PlanEntry(demand=j + 1, u=u, alpha=sol[: len(cols)]))
        receivers.append(tuple(entries))
    if failures:
        return DecodingFailure(tuple(failures))
    return DecodingPlan(
        q=q, m=code.m, n=code.n, receivers=tuple(receivers), side=g.side
    )


def require_plan(g: SideInformationGraph, code: IndexCode) -> DecodingPlan:
    result = verify_decodable(g, code)
    if isinstance(result, DecodingFailure):
        raise UndecodableError(result.failures)
    return result


def encode(code: IndexCode, x: Sequence[int]) -> Vector:
    """Codeword c = x^T L for a full message vector of length m*n.

    Symbols outside [0, q) are reduced mod q.  One packed product of
    the message with the code's packed rows, which the first call packs;
    the result equals linalg.vector_matrix(x, code.matrix).
    """
    if len(x) != code.m * code.n:
        raise ValueError(f"message must have {code.m * code.n} symbols")
    width, rows = code._packed
    return _product(x, rows, width, code.ell, code.q)


def decode_receiver(
    g: SideInformationGraph,
    code: IndexCode,
    plan: DecodingPlan,
    i: int,
    queried: Sequence[int],
    side_values: Sequence[int],
) -> Vector:
    """Decode the demands of receiver i from its queries and side info.

    queried must align with the sorted query columns of receiver i and
    side_values with its side rows from graphs.receiver_rows.
    Returns the m demanded symbols in ascending index order; they equal
    the true symbols whenever the inputs come from an encoded message.
    Symbol j is sum(alpha_k * c_k) - sum(u_t * x_{s_t}) mod q, inputs
    outside [0, q) included: after the checks, one packed product of
    queried followed by side_values with receiver i's packed decoding
    matrix, which the plan packs for every receiver on its first decode.

    Raises ValueError when the plan is not one of this code and graph:
    when its q, m or n differ, when receiver i's entries do not hold one
    coefficient per query, or when the plan's K_i is not g's K_i.  A
    plan therefore refuses a graph whose K_i differs from the one it was
    verified on.  A plan of another code of the same shape can pass
    these checks and decode wrongly; ruling that out stays the caller's
    task.
    """
    _check_structure(g, code)
    if plan.q != code.q or plan.m != code.m or plan.n != code.n:
        raise ValueError("plan does not belong to this code")
    if not 1 <= i <= code.n:
        raise ValueError(f"receiver {i} out of range")
    n_queries = len(code.queries[i - 1])
    if len(queried) != n_queries:
        raise ValueError(f"receiver {i} expects {n_queries} queried symbols")
    n_side = code.m * len(g.side[i - 1])
    if len(side_values) != n_side:
        raise ValueError(f"receiver {i} expects {n_side} side-info symbols")
    entries = plan.receivers[i - 1]
    if len(entries[0].alpha) != n_queries:
        raise ValueError("plan does not belong to this code")
    if plan.side[i - 1] != g.side[i - 1]:
        raise ValueError("plan does not belong to this graph")
    width, rows = plan._packed
    return _product([*queried, *side_values], rows[i - 1], width, code.m, code.q)


def locality_profile(code: IndexCode) -> LocalityProfile:
    per = tuple([Fraction(len(r), code.m) for r in code.queries])
    r, r_avg = overall_locality(code)
    return LocalityProfile(per_receiver=per, r=r, r_avg=r_avg, beta=code.beta)


def overall_locality(code: IndexCode) -> tuple[Fraction, Fraction]:
    """(r, r_avg) of ``locality_profile``, the largest and the average
    |R_i|/m, without its per-receiver list."""
    sizes = [len(r) for r in code.queries]
    return Fraction(max(sizes), code.m), Fraction(sum(sizes), code.m * code.n)


def query_partition(code: IndexCode) -> QueryPartition:
    counts = Counter(chain.from_iterable(code.queries))
    unique = tuple([frozenset(k for k in r if counts[k] == 1) for r in code.queries])
    shared = tuple([r - u for r, u in zip(code.queries, unique)])
    return QueryPartition(
        unique=unique, shared=shared,
        unique_all=frozenset().union(*unique), shared_all=frozenset().union(*shared),
    )


def prune_queries(g: SideInformationGraph, code: IndexCode) -> IndexCode:
    """Drop redundant queries, then columns nobody reads.

    Receiver by receiver, one pass in ascending column order removes
    each queried column lying in the span of the receiver's other
    remaining queried columns.  A removal keeps that span, so a column
    kept once stays needed and every query set ends up indexing linearly
    independent columns.  Unqueried columns are then deleted and the
    remaining ones renumbered.  Requires a decodable input and preserves
    decodability; neither the rate nor any |R_i| increases.

    The pass keeps a column iff it lies outside the span of the queried
    columns after it, so each query set is read off one
    ``linalg.span_coordinates`` call over its columns in descending
    index order: the columns with no coordinates are kept.
    """
    require_plan(g, code)
    columns = span_format(code.matrix.column_list(), code.q)
    new_queries = []
    for i in range(1, code.n + 1):
        desc = code.query_list(i)[::-1]
        coords = span_coordinates(
            [columns[k - 1] for k in desc], len(desc), code.m * code.n, code.q
        )
        new_queries.append(frozenset(compress(desc, [c is None for c in coords])))

    used = sorted(set().union(*new_queries)) if new_queries else []
    renumber = {old: new for new, old in enumerate(used, start=1)}
    columns = [code.column_vector(k) for k in used]
    matrix = FqMatrix.from_columns(columns, code.m * code.n, code.q)
    queries = tuple(frozenset(renumber[k] for k in r) for r in new_queries)
    return IndexCode(q=code.q, m=code.m, n=code.n, matrix=matrix, queries=queries)


def normalize_unique_columns(
    g: SideInformationGraph, code: IndexCode
) -> IndexCode:
    """Rewrite receiver-unique columns to be supported on that receiver's
    own demand indices.

    Shared columns, the code length, and every query set stay exactly as
    they were, so the locality profile is unchanged and the output is
    decodable whenever the input is.  For each receiver the rewritten
    columns extend a basis of

        (span(shared queried columns) + side-info coordinates) ∩ demand
        coordinates

    to a basis of the demand coordinate subspace, padded with zero
    columns when fewer extension vectors than unique positions exist.
    The extension is the demand unit vectors, in ascending order, that
    have no coordinates in one ``linalg.span_coordinates`` call over
    [shared queried columns | side-info unit vectors | demand unit
    vectors]: each lies outside the span of everything before it.
    """
    require_plan(g, code)
    part = query_partition(code)
    mn = code.m * code.n
    q = code.q
    new_cols = {k: code.column_vector(k) for k in range(1, code.ell + 1)}
    columns = span_format(code.matrix.column_list(), q)
    units = span_units(mn, q)
    for i in range(1, code.n + 1):
        unique_here = sorted(part.unique[i - 1])
        if not unique_here:
            continue
        demand_rows, side_rows = receiver_rows(g, code.m, i)
        # Extend against W = span(shared + side coordinates) itself: for v
        # and C inside the demand subspace D, v in (W ∩ D) + span C iff
        # v in W + span C.
        gens = [columns[k - 1] for k in sorted(part.shared[i - 1])]
        gens += [units[t] for t in (*side_rows, *demand_rows)]
        coords = span_coordinates(gens, len(gens), mn, q)[-len(demand_rows):]
        extension = [unit_vector(mn, t) for t, c in zip(demand_rows, coords) if c is None]
        if len(extension) > len(unique_here):
            raise AssertionError("extension exceeds unique query budget")
        for pos, k in enumerate(unique_here):
            new_cols[k] = (
                extension[pos] if pos < len(extension) else (0,) * mn
            )
    matrix = FqMatrix.from_columns(
        [new_cols[k] for k in range(1, code.ell + 1)], mn, q
    )
    return IndexCode(q=q, m=code.m, n=code.n, matrix=matrix, queries=code.queries)


def fitting_matrix_from_plan(
    g: SideInformationGraph, code: IndexCode, plan: DecodingPlan
) -> FittingMatrix:
    """Stack the witnesses u_i + e_i of a scalar (m = 1) plan into an
    n-by-n matrix fitting the graph: column i holds 1 at row i and u's
    coefficients at the rows of the sorted vertices of plan.side[i-1],
    which are receiver i's side rows at m = 1."""
    if code.m != 1:
        raise ValueError("fitting matrices are a scalar-code concept (m must be 1)")
    _check_structure(g, code)
    if plan.n != code.n or plan.m != 1 or plan.q != code.q:
        raise ValueError("plan does not belong to this code")
    columns = []
    for i in range(1, code.n + 1):
        (entry,) = plan.entries(i)
        col = [0] * code.n
        for v, c in zip(sorted(plan.side[i - 1]), entry.u):
            col[v - 1] = c
        col[i - 1] = (col[i - 1] + 1) % code.q
        columns.append(tuple(col))
    fm = FittingMatrix(FqMatrix.from_columns(columns, code.n, code.q))
    if not fm.fits(g):
        raise AssertionError("plan witnesses do not respect the graph pattern")
    return fm


def code_to_json_dict(code: IndexCode) -> dict:
    return {
        "q": code.q,
        "M": code.m,
        "N": code.n,
        "ell": code.ell,
        "L": [list(code.matrix.row(i)) for i in range(code.matrix.rows)],
        "queries": [sorted(r) for r in code.queries],
    }


def _json_int(value, what: str) -> int:
    # bool is a subclass of int, but JSON true and false are not integers.
    if type(value) is not int:
        raise ValueError(
            f"malformed code document: {what} must be an integer, got {value!r}"
        )
    return value


def _json_int_lists(value, what: str) -> list[int]:
    """value's entries, row after row, once all are integers in lists."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ValueError(f"malformed code document: {what} must be a list of lists")
    flat = [x for r in value for x in r]
    if not set(map(type, flat)) <= {int}:
        _json_int(next(x for x in flat if type(x) is not int), f"an entry of {what}")
    return flat


def code_from_json_dict(doc: dict) -> IndexCode:
    """The code a JSON document describes.  Raises ValueError unless q, M,
    N and ell are integers, q is prime, and L and queries are lists of
    lists of integers of the right shape with every entry of L in
    [0, q): an entry outside is refused, not reduced mod q."""
    try:
        fields = [doc[key] for key in ("q", "M", "N", "ell", "L", "queries")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed code document: {exc}") from exc
    q, m, n, ell = (_json_int(v, k) for v, k in zip(fields, ("q", "M", "N", "ell")))
    rows, queries = fields[4], fields[5]
    flat = _json_int_lists(rows, "L")
    _json_int_lists(queries, "queries")
    require_prime(q)
    if flat and not (0 <= min(flat) and max(flat) < q):
        x = next(x for x in flat if not 0 <= x < q)
        raise ValueError(
            f"malformed code document: an entry of L must lie in [0, q), got {x}"
        )
    if len(rows) != m * n or any(len(r) != ell for r in rows):
        raise ValueError("encoder array shape does not match M, N, ell")
    return IndexCode(
        q=q,
        m=m,
        n=n,
        matrix=FqMatrix(len(rows), len(rows[0]) if rows else 0, q, tuple(flat)),
        queries=tuple([frozenset(r) for r in queries]),
    )


def _read_text(path: str | Path) -> str:
    r"""The UTF-8 text of the file at path, read as bytes, with "\r\n" and
    a lone "\r" turned into "\n" as text mode does.  A path that open
    refuses is read by pathlib instead, so an error names the path as
    pathlib spells it and a path that pathlib normalizes (a trailing
    "/" dropped) is read as before."""
    try:
        f = open(path, "rb")
    except OSError:
        return Path(path).read_text(encoding="utf-8")
    with f:
        text = f.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _write_text(path: str | Path, text: str) -> None:
    r"""Write text to the file at path, created or truncated, as UTF-8
    bytes with each "\n" written as os.linesep.  A path that open refuses
    is written by pathlib instead, with the same fallback as
    ``_read_text``."""
    try:
        f = open(path, "wb")
    except OSError:
        Path(path).write_text(text, encoding="utf-8")
        return
    with f:
        if os.linesep != "\n":
            text = text.replace("\n", os.linesep)
        f.write(text.encode("utf-8"))


def save_code(code: IndexCode, path: str | Path) -> None:
    """Write code's JSON document to path through ``_write_text``."""
    _write_text(path, json.dumps(code_to_json_dict(code), sort_keys=True) + "\n")


def load_code(path: str | Path) -> IndexCode:
    """The code whose JSON document ``_read_text`` reads from path."""
    return code_from_json_dict(json.loads(_read_text(path)))
