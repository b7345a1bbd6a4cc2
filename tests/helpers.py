"""Shared test utilities: independent brute-force oracles and samplers.

The oracles deliberately avoid Gaussian elimination so they can vouch for
the elimination-based library code: rank comes from counting the span,
null spaces and span membership from exhaustive enumeration.
"""

from __future__ import annotations

import random
from itertools import product

from idxloc.codes import (
    DecodingFailure,
    IndexCode,
    code_to_json_dict,
    locality_profile,
    normalize_unique_columns,
    query_partition,
    verify_decodable,
)
from idxloc.constructions import cycle_scalar_code
from idxloc.graphs import SideInformationGraph, expand_indices, graph_from_side_info
from idxloc.linalg import FqMatrix


def oracle_rank(m: FqMatrix) -> int:
    """Rank as log_q of the number of distinct row combinations."""
    q = m.q
    span = {(0,) * m.cols}
    for i in range(m.rows):
        row = m.row(i)
        new_span = set()
        for vec in span:
            for c in range(q):
                new_span.add(tuple((v + c * r) % q for v, r in zip(vec, row)))
        span = new_span
    size = len(span)
    rank = 0
    while q**rank < size:
        rank += 1
    assert q**rank == size
    return rank


def oracle_null_space(m: FqMatrix) -> set[tuple[int, ...]]:
    """All vectors x with m @ x == 0, found by full enumeration."""
    out = set()
    for x in product(range(m.q), repeat=m.cols):
        if all(v == 0 for v in m.mul_vector(x)):
            out.add(x)
    return out


def oracle_solve_in_span(generators, target, q):
    """First coefficient tuple (in lexicographic counter order) whose
    combination hits the target, or None."""
    n = len(target)
    for coeffs in product(range(q), repeat=len(generators)):
        combo = [0] * n
        for c, gen in zip(coeffs, generators):
            for t in range(n):
                combo[t] = (combo[t] + c * gen[t]) % q
        if tuple(combo) == tuple(t % q for t in target):
            return coeffs
    return None


def random_matrix(rng: random.Random, rows: int, cols: int, q: int) -> FqMatrix:
    return FqMatrix(
        rows, cols, q, tuple(rng.randrange(q) for _ in range(rows * cols))
    )


def random_graph(rng: random.Random, n: int, edge_prob: float = 0.5) -> SideInformationGraph:
    side = []
    for i in range(1, n + 1):
        side.append({j for j in range(1, n + 1) if j != i and rng.random() < edge_prob})
    return graph_from_side_info(side)


def random_decodable_code(
    rng: random.Random,
    g: SideInformationGraph,
    q: int,
    m: int,
    max_tries: int = 400,
) -> IndexCode | None:
    """Rejection-sample a decodable code with random encoder and random
    query sets; None if the try budget runs out."""
    mn = m * g.n
    for _ in range(max_tries):
        ell = rng.randint(max(1, mn - 1), mn)
        matrix = random_matrix(rng, mn, ell, q)
        queries = []
        for _ in range(g.n):
            r = {k for k in range(1, ell + 1) if rng.random() < 0.75}
            while len(r) < m:
                r.add(rng.randint(1, ell))
            queries.append(frozenset(r))
        code = IndexCode(q=q, m=m, n=g.n, matrix=matrix, queries=tuple(queries))
        if not isinstance(verify_decodable(g, code), DecodingFailure):
            return code
    return None


def normalization_contract(g: SideInformationGraph, code: IndexCode) -> IndexCode:
    """Assert the support-normalization contract: length, queries,
    profile and decodability preserved; every receiver-unique column ends
    up supported on the owner's demand indices.  Returns the normalized
    code."""
    normalized = normalize_unique_columns(g, code)
    assert normalized.ell == code.ell
    assert normalized.queries == code.queries
    assert locality_profile(normalized) == locality_profile(code)
    assert not isinstance(verify_decodable(g, normalized), DecodingFailure)
    exp = expand_indices(g, code.m)
    part = query_partition(normalized)
    for i in range(1, code.n + 1):
        for k in sorted(part.unique[i - 1]):
            sup = {t + 1 for t, v in enumerate(normalized.column_vector(k)) if v}
            assert sup <= exp.demands[i - 1]
    return normalized


def all_digraphs_without_2cycles(n: int):
    """Every digraph on n vertices whose vertex pairs carry at most one
    arc, in a fixed deterministic order."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for assignment in product(range(3), repeat=len(pairs)):
        side = [set() for _ in range(n)]
        for (i, j), kind in zip(pairs, assignment):
            if kind == 1:
                side[i - 1].add(j)
            elif kind == 2:
                side[j - 1].add(i)
        yield graph_from_side_info(side)


def malformed_code_docs() -> list[tuple[str, dict]]:
    """(name, document) pairs a code loader must refuse: the document of
    the scalar 4-cycle code over F_2 with one field of the wrong JSON type.
    Truncating the floats would give back that code."""
    doc = code_to_json_dict(cycle_scalar_code(4, 2, 1))
    rows, queries = doc["L"], doc["queries"]
    return [
        ("L-int", dict(doc, L=5)),
        ("queries-int", dict(doc, queries=5)),
        ("L-flat", dict(doc, L=[x for row in rows for x in row])),
        ("L-row-int", dict(doc, L=[1, *rows[1:]])),
        ("L-entry-null", dict(doc, L=[[None, *rows[0][1:]], *rows[1:]])),
        ("L-entry-float", dict(doc, L=[[1.7, *rows[0][1:]], *rows[1:]])),
        ("query-null", dict(doc, queries=[[None], *queries[1:]])),
        ("query-set-null", dict(doc, queries=[None, *queries[1:]])),
        ("q-float", dict(doc, q=2.5)),
        ("q-bool", dict(doc, q=True)),
        ("q-zero", dict(doc, q=0)),
    ]
