"""Locally decodable linear index codes.

An index code broadcasts c = x^T L for a message vector x of n messages,
m symbols each, and lets receiver i read only the codeword positions in
its query set R_i.  This module holds the code value type, decodability
verification with explicit decoding witnesses, encoding and per-receiver
decoding, locality accounting, query pruning, the support normalization
of receiver-unique columns, and the fitting matrix extracted from a
scalar decoding plan.

Receiver, message and codeword-column indices are 1-based; raw matrix
coordinates are 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .graphs import SideInformationGraph, expand_indices, side_indices
from .linalg import (
    FqMatrix,
    Vector,
    in_span,
    rank,
    require_prime,
    solve_in_span,
    unit_vector,
    vector_matrix,
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

    u is a vector supported on the receiver's side-information indices
    and alpha holds one coefficient per sorted query column, chosen so
    that sum(alpha_k * L_k) == u + e_j.
    """

    demand: int
    u: Vector
    alpha: tuple[int, ...]


@dataclass(frozen=True)
class DecodingPlan:
    q: int
    m: int
    n: int
    receivers: tuple[tuple[PlanEntry, ...], ...]

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
        if self.matrix.rows != g.n:
            return False
        for i in range(1, g.n + 1):
            allowed = g.side_info(i)
            for j in range(1, g.n + 1):
                if j != i and j not in allowed and self.matrix.entry(j - 1, i - 1):
                    return False
        return True


def _check_structure(g: SideInformationGraph, code: IndexCode) -> None:
    if code.n != g.n:
        raise ValueError(f"code has {code.n} receivers but graph has {g.n}")


def verify_decodable(
    g: SideInformationGraph, code: IndexCode
) -> DecodingPlan | DecodingFailure:
    """Check decodability at every receiver and extract witnesses.

    Receiver i can decode symbol j iff e_j lies in the span of its
    queried columns plus the side-information coordinate subspace; the
    witness is read off one linear solve per demanded symbol.  Returns a
    DecodingPlan on success, otherwise a DecodingFailure listing every
    undecodable (receiver, symbol) pair.  Structural mismatches between
    graph and code raise ValueError instead.
    """
    _check_structure(g, code)
    exp = expand_indices(g, code.m)
    mn = code.m * code.n
    q = code.q
    failures: list[tuple[int, int]] = []
    receivers: list[tuple[PlanEntry, ...]] = []
    for i in range(1, code.n + 1):
        cols = [code.column_vector(k) for k in code.query_list(i)]
        side_idx = sorted(exp.side_info[i - 1])
        gens = cols + [unit_vector(mn, s - 1) for s in side_idx]
        entries: list[PlanEntry] = []
        for j in sorted(exp.demands[i - 1]):
            target = unit_vector(mn, j - 1)
            sol = solve_in_span(gens, target, q)
            if sol is None:
                failures.append((i, j))
                continue
            alpha = sol[: len(cols)]
            u = [0] * mn
            for s, c in zip(side_idx, sol[len(cols) :]):
                u[s - 1] = (-c) % q
            entries.append(PlanEntry(demand=j, u=tuple(u), alpha=tuple(alpha)))
        receivers.append(tuple(entries))
    if failures:
        return DecodingFailure(tuple(failures))
    return DecodingPlan(q=q, m=code.m, n=code.n, receivers=tuple(receivers))


def require_plan(g: SideInformationGraph, code: IndexCode) -> DecodingPlan:
    result = verify_decodable(g, code)
    if isinstance(result, DecodingFailure):
        raise UndecodableError(result.failures)
    return result


def encode(code: IndexCode, x: Sequence[int]) -> Vector:
    """Codeword c = x^T L for a full message vector of length m*n."""
    if len(x) != code.m * code.n:
        raise ValueError(f"message must have {code.m * code.n} symbols")
    return vector_matrix(x, code.matrix)


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
    side_values with the receiver's sorted side-information indices.
    Returns the m demanded symbols in ascending index order; they equal
    the true symbols whenever the inputs come from an encoded message.
    """
    _check_structure(g, code)
    if plan.q != code.q or plan.m != code.m or plan.n != code.n:
        raise ValueError("plan does not belong to this code")
    if not 1 <= i <= code.n:
        raise ValueError(f"receiver {i} out of range")
    r_list = code.query_list(i)
    if len(queried) != len(r_list):
        raise ValueError(f"receiver {i} expects {len(r_list)} queried symbols")
    side_idx = side_indices(g, code.m, i)
    if len(side_values) != len(side_idx):
        raise ValueError(f"receiver {i} expects {len(side_idx)} side-info symbols")
    entries = plan.entries(i)
    q = code.q
    out = []
    for entry in entries:
        total = sum(a * c for a, c in zip(entry.alpha, queried))
        correction = sum(entry.u[s - 1] * v for s, v in zip(side_idx, side_values))
        out.append((total - correction) % q)
    return tuple(out)


def locality_profile(code: IndexCode) -> LocalityProfile:
    per = tuple(Fraction(len(r), code.m) for r in code.queries)
    r = max(per)
    r_avg = sum(per, Fraction(0)) / code.n
    return LocalityProfile(per_receiver=per, r=r, r_avg=r_avg, beta=code.beta)


def query_partition(code: IndexCode) -> QueryPartition:
    counts: dict[int, int] = {}
    for r_set in code.queries:
        for k in r_set:
            counts[k] = counts.get(k, 0) + 1
    unique = tuple(
        frozenset(k for k in r_set if counts[k] == 1) for r_set in code.queries
    )
    shared = tuple(
        frozenset(k for k in r_set if counts[k] > 1) for r_set in code.queries
    )
    return QueryPartition(
        unique=unique,
        shared=shared,
        unique_all=frozenset().union(*unique) if unique else frozenset(),
        shared_all=frozenset().union(*shared) if shared else frozenset(),
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
    """
    require_plan(g, code)
    new_queries = []
    for i in range(1, code.n + 1):
        current = set(code.queries[i - 1])
        for k in sorted(current):
            others = [code.column_vector(t) for t in sorted(current - {k})]
            if in_span(others, code.column_vector(k), code.q):
                current.remove(k)
        new_queries.append(frozenset(current))

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
    """
    require_plan(g, code)
    exp = expand_indices(g, code.m)
    part = query_partition(code)
    mn = code.m * code.n
    q = code.q
    new_cols = {k: code.column_vector(k) for k in range(1, code.ell + 1)}
    for i in range(1, code.n + 1):
        unique_here = sorted(part.unique[i - 1])
        if not unique_here:
            continue
        demand_rows = [j - 1 for j in sorted(exp.demands[i - 1])]
        side_rows = [s - 1 for s in sorted(exp.side_info[i - 1])]
        shared_cols = [code.column_vector(k) for k in sorted(part.shared[i - 1])]
        # Extend greedily against W = span(shared + side coordinates)
        # itself: for v and C inside the demand subspace D,
        # v in (W ∩ D) + span C iff v in W + span C.
        current = shared_cols + [unit_vector(mn, t) for t in side_rows]
        extension: list[Vector] = []
        for t in demand_rows:
            candidate = unit_vector(mn, t)
            if not in_span(current, candidate, q):
                current.append(candidate)
                extension.append(candidate)
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
    n-by-n matrix fitting the graph."""
    if code.m != 1:
        raise ValueError("fitting matrices are a scalar-code concept (m must be 1)")
    _check_structure(g, code)
    if plan.n != code.n or plan.m != 1 or plan.q != code.q:
        raise ValueError("plan does not belong to this code")
    columns = []
    for i in range(1, code.n + 1):
        (entry,) = plan.entries(i)
        col = list(entry.u)
        col[i - 1] = (col[i - 1] + 1) % code.q
        columns.append(tuple(col))
    fm = FittingMatrix(FqMatrix.from_columns(columns, code.n, code.q))
    if not fm.fits(g):
        raise AssertionError("plan witnesses do not respect the graph pattern")
    return fm


def column_space_contained(outer: FqMatrix, inner: FqMatrix) -> bool:
    """True iff the column space of inner lies inside that of outer."""
    return rank(outer.hstack(inner)) == rank(outer)


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


def _json_int_lists(value, what: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ValueError(f"malformed code document: {what} must be a list of lists")
    return [[_json_int(x, f"an entry of {what}") for x in r] for r in value]


def code_from_json_dict(doc: dict) -> IndexCode:
    """The code a JSON document describes.  Raises ValueError unless q, M,
    N and ell are integers, q is prime, and L and queries are lists of
    lists of integers of the right shape."""
    try:
        fields = [doc[key] for key in ("q", "M", "N", "ell", "L", "queries")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed code document: {exc}") from exc
    q, m, n, ell = (_json_int(v, k) for v, k in zip(fields, ("q", "M", "N", "ell")))
    rows = _json_int_lists(fields[4], "L")
    queries = _json_int_lists(fields[5], "queries")
    require_prime(q)
    if len(rows) != m * n or any(len(r) != ell for r in rows):
        raise ValueError("encoder array shape does not match M, N, ell")
    matrix = FqMatrix.from_rows(rows, q) if rows else FqMatrix.zeros(0, ell, q)
    return IndexCode(
        q=q,
        m=m,
        n=n,
        matrix=matrix,
        queries=tuple(frozenset(r) for r in queries),
    )


def save_code(code: IndexCode, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(code_to_json_dict(code), sort_keys=True) + "\n", encoding="utf-8"
    )


def load_code(path: str | Path) -> IndexCode:
    return code_from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
