"""Shared test utilities: independent brute-force oracles and samplers.

The oracles deliberately avoid Gaussian elimination so they can vouch for
the elimination-based library code: rank comes from counting the span,
null spaces and span membership from exhaustive enumeration.  Where
enumeration is too slow, the references use a row Gauss-Jordan
elimination written here, which shares no code with the package's one
column reduction.
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
from idxloc.graphs import SideInformationGraph, graph_from_side_info, receiver_rows
from idxloc.linalg import FqMatrix


def format_graph(g: SideInformationGraph) -> str:
    """g in the graph file format that ``parse_graph`` reads."""
    lines = [f"N={g.n}"]
    for i in range(1, g.n + 1):
        members = " ".join(str(j) for j in sorted(g.side_info(i)))
        lines.append(f"{i}: {members}".rstrip())
    return "\n".join(lines) + "\n"


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
        if all(sum(a * b for a, b in zip(row, x)) % m.q == 0 for row in m.row_list()):
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


def _reference_eliminate(rows, k, q):
    """Row Gauss-Jordan elimination of rows in place, pivoting on the
    first k columns only; the later columns are carried along by the
    same row operations.  Returns the pivot column indices, ascending;
    each pivot row is scaled to a leading 1 and every other row is zero
    in that column.  linalg eliminated this way before its one column
    reduction, so the references below pin its answers."""
    n_rows = len(rows)
    pivots = []
    row = 0
    for col in range(k):
        for r in range(row, n_rows):
            if rows[r][col]:
                break
        else:
            continue
        pivot = rows[r]
        rows[r] = rows[row]
        inv = pow(pivot[col], -1, q)
        if inv != 1:
            pivot = [(e * inv) % q for e in pivot]
        rows[row] = pivot
        for r in range(n_rows):
            f = rows[r][col]
            if f and r != row:
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], pivot)]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return pivots


def _reference_pivots(columns, q):
    """Pivot column indices of the matrix with the given columns: each
    column outside the span of the ones before it."""
    return _reference_eliminate([list(r) for r in zip(*columns)], len(columns), q)


def _reference_rref(m):
    rows = [list(r) for r in m.row_list()]
    pivots = _reference_eliminate(rows, m.cols, m.q)
    return FqMatrix(m.rows, m.cols, m.q, tuple(e for r in rows for e in r)), tuple(pivots)


def _reference_coordinates(m):
    """Per column of m: None for a pivot of its reduced row-echelon form,
    else the column's reduced entries on the pivot rows, each at its
    pivot's index and zero elsewhere; ``linalg.span_coordinates`` with
    every column a generator answers the same."""
    reduced, pivots = _reference_rref(m)
    coords = []
    for j in range(m.cols):
        if j in pivots:
            coords.append(None)
            continue
        c = [0] * m.cols
        for r, p in enumerate(pivots):
            c[p] = reduced.entry(r, j)
        coords.append(tuple(c))
    return coords


def _reference_solve_each(generators, targets, q):
    """Per target, its coefficients over the generators, zero on each
    generator in the span of the ones before it, or None outside their
    span."""
    rows = [[e % q for e in r] for r in zip(*generators, *targets)]
    g = len(generators)
    pivots = _reference_eliminate(rows, g, q)
    below = rows[len(pivots):]
    answers = []
    for col in range(g, g + len(targets)):
        if any(r[col] for r in below):
            answers.append(None)
            continue
        coeffs = [0] * g
        for row_idx, pc in enumerate(pivots):
            coeffs[pc] = rows[row_idx][col]
        answers.append(tuple(coeffs))
    return answers


def oracle_shortest_cycle(g: SideInformationGraph):
    """(length, vertex sequence) of the least simple directed cycle by
    (length, sequence), each cycle written from its smallest vertex, or
    None; found by extending every simple path from each start vertex
    through higher vertices only."""
    best = None
    for s in range(1, g.n + 1):
        paths = [(s,)]
        while paths:
            path = paths.pop()
            for j in g.side_info(path[-1]):
                if j == s:
                    if best is None or (len(path), path) < best:
                        best = (len(path), path)
                elif j > s and j not in path:
                    paths.append(path + (j,))
    return best


def oracle_bfs_shortest_cycle(g: SideInformationGraph):
    """``oracle_shortest_cycle`` by a breadth-first search over ascending
    neighbours from every start s on the vertices s and above, keeping
    the first shortest cycle; it peels nothing, so it serves as the
    reference on graphs too dense for path enumeration."""
    best = None
    for s in range(1, g.n + 1):
        parent = {s: None}
        frontier = [s]
        found = None
        while frontier and found is None:
            step = []
            for u in frontier:
                if s in g.side_info(u):
                    found = [u]
                    while parent[found[-1]] is not None:
                        found.append(parent[found[-1]])
                    break
                for w in sorted(g.side_info(u)):
                    if w > s and w not in parent:
                        parent[w] = u
                        step.append(w)
            frontier = step
        if found is not None and (best is None or len(found) < best[0]):
            best = (len(found), tuple(reversed(found)))
    return best


def random_matrix(rng: random.Random, rows: int, cols: int, q: int) -> FqMatrix:
    return FqMatrix(
        rows, cols, q, tuple(rng.randrange(q) for _ in range(rows * cols))
    )


def random_graph(rng: random.Random, n: int, edge_prob: float = 0.5) -> SideInformationGraph:
    side = []
    for i in range(1, n + 1):
        side.append({j for j in range(1, n + 1) if j != i and rng.random() < edge_prob})
    return graph_from_side_info(side)


def blocks_graph(
    rng: random.Random, n: int
) -> tuple[SideInformationGraph, list[list[int]]]:
    """Random strongly connected blocks (a cycle through each block plus
    chords) joined by edges from earlier blocks to later ones only, so
    each block of two or more vertices is its own nontrivial strongly
    connected component; returns the graph and its blocks."""
    order = rng.sample(range(1, n + 1), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    side = [set() for _ in range(n)]
    for t, block in enumerate(blocks):
        if len(block) > 1:
            for a, b in zip(block, block[1:] + block[:1]):
                side[a - 1].add(b)
        for a in block:
            for b in block:
                if a != b and rng.random() < 0.25:
                    side[a - 1].add(b)
            for later in blocks[t + 1:]:
                for b in later:
                    if rng.random() < 0.2:
                        side[a - 1].add(b)
    return graph_from_side_info(side), blocks


def pendant_two_cycles(
    rng: random.Random, g: SideInformationGraph, count: int
) -> tuple[SideInformationGraph, list[int]]:
    """g with count new vertices, each on a 2-cycle with a vertex u of g
    and with random arcs to (or from) the other vertices of g only, so
    that u is its only in-neighbour (or out-neighbour): the arc-free rule
    of ``max_acyclic_induced`` applies to each new vertex.  Returns the
    graph and the vertex u of each new vertex."""
    side = [set(k) for k in g.side]
    anchors = []
    for _ in range(count):
        w = len(side) + 1
        u = rng.randint(1, g.n)
        extra = {v for v in range(1, g.n + 1) if v != u and rng.random() < 0.3}
        side[u - 1].add(w)
        if rng.random() < 0.5:
            side.append({u} | extra)
        else:
            side.append({u})
            for v in extra:
                side[v - 1].add(w)
        anchors.append(u)
    return graph_from_side_info(side), anchors


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
    part = query_partition(normalized)
    for i in range(1, code.n + 1):
        demand_rows = receiver_rows(g, code.m, i)[0]
        for k in sorted(part.unique[i - 1]):
            sup = {t for t, v in enumerate(normalized.column_vector(k)) if v}
            assert sup <= set(demand_rows)
    return normalized


def nondominated_union(frontiers):
    """The points of all the given frontiers that no other point
    dominates (at most as large in beta, r and r_avg, and not equal),
    sorted by profile: the merge of per-length frontiers, written from
    the definition."""
    points = [p for frontier in frontiers for p in frontier]
    profiles = [p.profile() for p in points]
    assert len(set(profiles)) == len(profiles), "profiles repeat across frontiers"

    def dominated(a):
        return any(b != a and all(x <= y for x, y in zip(b, a)) for b in profiles)

    return sorted((p for p in points if not dominated(p.profile())), key=lambda p: p.profile())


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


def malformed_code_docs() -> list[tuple[str, dict, str]]:
    """(name, document, message) triples a code loader must refuse with
    ValueError(message): the document of the scalar 4-cycle code over F_2
    with one field of the wrong JSON type or value, with M = 0 and so no
    encoder rows, or with queries that do not fit its N = 4 receivers or
    its ell = 3 columns.  Truncating the floats, or reducing the entries of L
    mod q, would give back a code the document does not hold.  When a
    document breaks several rules, the first message in the loader's
    order wins: a field's type, then L's entries' range, then L's
    shape."""
    doc = code_to_json_dict(cycle_scalar_code(4, 2, 1))
    rows, queries = doc["L"], doc["queries"]
    malformed = "malformed code document: "
    lists = malformed + "{} must be a list of lists"
    entry = malformed + "an entry of {} must be an integer, got {}"
    return [
        ("L-int", dict(doc, L=5), lists.format("L")),
        ("queries-int", dict(doc, queries=5), lists.format("queries")),
        ("L-flat", dict(doc, L=[x for row in rows for x in row]), lists.format("L")),
        ("L-row-int", dict(doc, L=[1, *rows[1:]]), lists.format("L")),
        ("L-entry-null", dict(doc, L=[[None, *rows[0][1:]], *rows[1:]]),
         entry.format("L", None)),
        ("L-entry-float", dict(doc, L=[[1.7, *rows[0][1:]], *rows[1:]]),
         entry.format("L", 1.7)),
        ("L-entry-bool", dict(doc, L=[[True, *rows[0][1:]], *rows[1:]]),
         entry.format("L", True)),
        ("query-null", dict(doc, queries=[[None], *queries[1:]]),
         entry.format("queries", None)),
        ("query-bool", dict(doc, queries=[[True], *queries[1:]]),
         entry.format("queries", True)),
        ("query-set-null", dict(doc, queries=[None, *queries[1:]]),
         lists.format("queries")),
        ("L-entry-q", dict(doc, L=[[3, *rows[0][1:]], *rows[1:]]),
         malformed + "an entry of L must lie in [0, q), got 3"),
        ("L-entry-negative", dict(doc, L=[[-1, *rows[0][1:]], *rows[1:]]),
         malformed + "an entry of L must lie in [0, q), got -1"),
        # Every entry's type is checked before any entry's range, and the
        # range before the shape.
        ("L-float-after-q", dict(doc, L=[[3, *rows[0][1:]], *rows[1:-1], [2.5]]),
         entry.format("L", 2.5)),
        ("L-ragged-q", dict(doc, L=[[3, *rows[0][1:]], *rows[1:-1], rows[-1][1:]]),
         malformed + "an entry of L must lie in [0, q), got 3"),
        ("q-float", dict(doc, q=2.5), malformed + "q must be an integer, got 2.5"),
        ("q-bool", dict(doc, q=True), malformed + "q must be an integer, got True"),
        ("q-zero", dict(doc, q=0), "field modulus must be prime, got 0"),
        ("M-zero", dict(doc, M=0, L=[]), "m and n must be positive"),
        ("queries-three", dict(doc, queries=queries[:3]),
         "one query set per receiver required"),
        ("query-column-ell-plus-1", dict(doc, queries=[[4], *queries[1:]]),
         "receiver 1 queries out-of-range column 4"),
        ("query-column-0", dict(doc, queries=[[0], *queries[1:]]),
         "receiver 1 queries out-of-range column 0"),
    ]
