"""Achievability schemes: uncoded transmission, the length-(N-1) cycle
code with all of its rotations, time sharing into vector codes, and the
scalar construction for graphs whose min-rank falls one short of the
receiver count."""

from __future__ import annotations

from .codes import IndexCode, require_plan
from .graphs import (
    SideInformationGraph,
    directed_cycle,
    receiver_rows,
    shortest_directed_cycle,
)
from .linalg import FqMatrix, Vector, require_prime, unit_vector


def uncoded(g: SideInformationGraph, m: int = 1, q: int = 2) -> IndexCode:
    """Identity encoder: every receiver queries exactly its own block.

    Rate equals the receiver count and every locality is 1; side
    information is ignored entirely.
    """
    require_prime(q)
    # Column r + 1 of the identity carries row r.
    queries = tuple(
        frozenset(r + 1 for r in receiver_rows(g, m, i)[0]) for i in range(1, g.n + 1)
    )
    return IndexCode(
        q=q, m=m, n=g.n, matrix=FqMatrix.identity(m * g.n, q), queries=queries
    )


def _cycle_part(
    vertices: tuple[int, ...], n: int
) -> tuple[list[Vector], list[set[int]]]:
    """The cycle code laid on the cycle v_1 -> ... -> v_c of an
    n-receiver instance: columns e_{v_1} + e_{v_k} for k = 2..c over n
    rows, and per receiver its query set.  Receiver v_t reads columns
    t-1 and t where they exist; every other receiver reads nothing."""
    c = len(vertices)
    columns: list[Vector] = []
    for v in vertices[1:]:
        col = [0] * n
        col[vertices[0] - 1] = 1
        col[v - 1] = 1
        columns.append(tuple(col))
    queries: list[set[int]] = [set() for _ in range(n)]
    for t, v in enumerate(vertices, start=1):
        queries[v - 1] = {k for k in (t - 1, t) if 1 <= k < c}
    return columns, queries


def cycle_scalar_code(n: int, q: int, anchor: int = 1) -> IndexCode:
    """Scalar code of length n-1 for the directed n-cycle.

    With anchor 1 the codeword is (x_1+x_2, x_1+x_3, ..., x_1+x_n);
    receivers 1 and n then read a single symbol and everyone else reads
    two adjacent ones, so the localities are (1, 2, ..., 2, 1).  Other
    anchors rotate the construction: anchor a gives locality 1 to
    receivers a and a-1 (indices mod n).
    """
    require_prime(q)
    if n < 3:
        raise ValueError("cycle codes need n >= 3 (2-cycles are handled by "
                         "minrank_deficit_code)")
    if not 1 <= anchor <= n:
        raise ValueError(f"anchor must lie in [1, {n}]")
    columns, queries = _cycle_part(tuple((anchor - 1 + t) % n + 1 for t in range(n)), n)
    matrix = FqMatrix.from_columns(columns, n, q)
    return IndexCode(
        q=q, m=1, n=n, matrix=matrix,
        queries=tuple(frozenset(s) for s in queries),
    )


def time_share(
    g: SideInformationGraph, codes: list[IndexCode]
) -> IndexCode:
    """Concatenate codes for the same instance into one vector code.

    Code t handles its own block of message components, so the combined
    message length and codeword length are the sums of the parts, and
    each receiver's query set is the union of the per-block queries with
    shifted column indices.
    """
    if not codes:
        raise ValueError("time_share needs at least one code")
    q = codes[0].q
    for c in codes:
        if c.q != q:
            raise ValueError("codes must share one field")
        if c.n != g.n:
            raise ValueError("codes must share the instance's receiver count")
        require_plan(g, c)
    m_total = sum(c.m for c in codes)
    mn = m_total * g.n

    columns: list[Vector] = []
    queries: list[set[int]] = [set() for _ in range(g.n)]
    col_offset = 0
    m_offset = 0
    for c in codes:
        # Row t of receiver i's block in code c is row m_offset + t of its
        # block in the combined code.
        lift = [0] * (c.m * g.n)
        for i in range(1, g.n + 1):
            combined = receiver_rows(g, m_total, i)[0][m_offset:]
            for r, row in zip(receiver_rows(g, c.m, i)[0], combined):
                lift[r] = row
        for k in range(1, c.ell + 1):
            lifted = [0] * mn
            for r, v in zip(lift, c.column_vector(k)):
                lifted[r] = v
            columns.append(tuple(lifted))
        for i in range(1, g.n + 1):
            queries[i - 1].update(col_offset + k for k in c.queries[i - 1])
        col_offset += c.ell
        m_offset += c.m
    matrix = FqMatrix.from_columns(columns, mn, q)
    return IndexCode(
        q=q,
        m=m_total,
        n=g.n,
        matrix=matrix,
        queries=tuple(frozenset(s) for s in queries),
    )


def _schedule_profile(n: int, anchors: tuple[int, ...]) -> tuple[int, int]:
    """(max |R_i|, sum |R_i|) of the time-shared cycle code with these
    anchors: its (r, r_avg) times m and m*n, so it ranks schedules of one
    (n, m) alike."""
    m = len(anchors)
    ones = [0] * (n + 1)
    for a in anchors:
        ones[a] += 1
        ones[a - 1 if a > 1 else n] += 1
    sizes = [2 * m - ones[i] for i in range(1, n + 1)]
    return max(sizes), sum(sizes)


def plan_rotation_schedule(n: int, m: int) -> tuple[int, ...]:
    """The anchors, one per message component, that cycle_vector_code
    time-shares for message length m.

    Where bounds.optimal_cycle_locality_for_m(n, m) is not None, the
    schedule reaches that locality at rate n-1:
      * m below n/2: repeat anchor 1; overall locality 2.
      * n odd and n/2 <= m < n: odd anchors, then n, then even anchors,
        reaching overall locality 2 - 1/m.
      * n even and m a multiple of n/2: repeat the odd anchors.
      * n odd and m a multiple of n: all n rotations.
    Any other m gets the best of a few candidate schedules, with no
    claim of optimality.
    """
    if n < 3:
        raise ValueError("cycle schedules need n >= 3")
    if m < 1:
        raise ValueError("message length must be at least 1")
    if n % 2 == 0 and m % (n // 2) == 0:
        return tuple(range(1, n, 2)) * (m // (n // 2))
    if n % 2 == 1 and m % n == 0:
        return tuple(range(1, n + 1)) * (m // n)
    if 2 * m < n:
        return (1,) * m
    if n % 2 == 1 and m < n:
        return tuple(range(1, n - 1, 2)) + (n,) + tuple(range(2, 2 * m - n, 2))

    # Uncovered message length: compare a few deterministic candidates.
    candidates: list[tuple[int, ...]] = [(1,) * m]
    rotation = tuple(range(1, n + 1))
    candidates.append(tuple(rotation[t % n] for t in range(m)))
    spaced = tuple(range(1, n + 1, 2)) + tuple(range(2, n + 1, 2))
    candidates.append(tuple(spaced[t % n] for t in range(m)))
    return min(candidates, key=lambda a: _schedule_profile(n, a))


def cycle_vector_code(n: int, q: int, m: int) -> IndexCode:
    """Length-m vector code for the directed n-cycle at rate n-1,
    time-sharing rotations of the scalar cycle code according to
    plan_rotation_schedule."""
    g = directed_cycle(n)
    return time_share(
        g, [cycle_scalar_code(n, q, a) for a in plan_rotation_schedule(n, m)]
    )


def minrank_deficit_code(g: SideInformationGraph, q: int) -> IndexCode:
    """Scalar code of length n-1 built around a shortest directed cycle.

    The cycle code goes on the cycle's vertices and every other symbol
    is sent uncoded.  On a 2-cycle {i, j} that is one mixed symbol
    x_i + x_j read by both, so every locality is 1.  Intended for
    instances whose min-rank is n-1; raises on acyclic input.
    """
    require_prime(q)
    found = shortest_directed_cycle(g)
    if found is None:
        raise ValueError("graph has no directed cycle; its min-rank equals n "
                         "and the uncoded scheme is already optimal")
    n = g.n
    _, cycle_vertices = found
    columns, queries = _cycle_part(cycle_vertices, n)
    for t in range(1, n + 1):
        if t not in cycle_vertices:
            columns.append(unit_vector(n, t - 1))
            queries[t - 1].add(len(columns))
    matrix = FqMatrix.from_columns(columns, n, q)
    return IndexCode(
        q=q, m=1, n=n, matrix=matrix,
        queries=tuple(frozenset(s) for s in queries),
    )
