"""The exhaustive searches against a brute-force reference search.

The reference has no pruning, no memo, no cut-offs and no acyclic-set
shortcut: it tests every multiset of normalized columns with the row
Gauss-Jordan reference of ``helpers``, which shares no code with the
search kernel, finds each receiver's first decoding query set in (size,
lexicographic) order and keeps, per profile, the first encoder in
``combinations_with_replacement`` order.  So the searches' frontiers,
witness matrices and queries must equal its output exactly.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from idxloc.bounds import exhaustive_vector_search
from idxloc.graphs import directed_cycle, graph_from_side_info, receiver_rows
from idxloc.linalg import unit_vector

from helpers import _reference_solve_each


def _decodes(columns, demand_rows, side_rows, mn, q):
    gens = list(columns) + [unit_vector(mn, s) for s in side_rows]
    targets = [unit_vector(mn, d) for d in demand_rows]
    return None not in _reference_solve_each(gens, targets, q)


def _first_query_set(columns, demand_rows, side_rows, mn, q):
    for size in range(len(columns) + 1):
        for subset in combinations(range(len(columns)), size):
            picked = [columns[p] for p in subset]
            if _decodes(picked, demand_rows, side_rows, mn, q):
                return subset
    return None


def reference_search(g, q, m, ell, locality_cap=None):
    """(beta, r, r_avg, matrix entries, queries) per frontier point."""
    mn = m * g.n
    rows = [receiver_rows(g, m, i) for i in range(1, g.n + 1)]
    max_size = ell if locality_cap is None else int(Fraction(locality_cap) * m)
    # One column per scaling class (first nonzero entry 1), in ascending
    # order as base-q numbers with row 0 least significant.
    nonzero = (col for col in product(range(q), repeat=mn) if any(col))
    digits = sorted(
        (col for col in nonzero if next(filter(None, col)) == 1),
        key=lambda col: col[::-1],
    )
    frontier = []
    for ks in combinations_with_replacement(range(len(digits)), ell):
        columns = [digits[k] for k in ks]
        firsts = []
        for d, s in rows:
            first = _first_query_set(columns, d, s, mn, q)
            if first is None or len(first) > max_size:
                break
            firsts.append(first)
        else:
            mx = max(len(t) for t in firsts)
            sm = sum(len(t) for t in firsts)
            if any(fmx <= mx and fsm <= sm for fmx, fsm, _, _ in frontier):
                continue
            frontier = [e for e in frontier if not (mx <= e[0] and sm <= e[1])]
            frontier.append((mx, sm, columns, firsts))
    points = []
    for mx, sm, columns, firsts in frontier:
        entries = tuple(col[r] for r in range(mn) for col in columns)
        queries = tuple(frozenset(p + 1 for p in t) for t in firsts)
        points.append(
            (Fraction(ell, m), Fraction(mx, m), Fraction(sm, m * g.n), entries, queries)
        )
    return sorted(points, key=lambda p: p[:3])


def locality_floor(g, m, ell):
    """The least (max |R_i|, sum |R_i|) any code of length ell can have:
    at most u = min(N, ell (d + 1) // m) receivers query only m columns,
    where d is the most mutual neighbours (j in K_i, i in K_j) of one
    receiver, and every other receiver queries at least m + 1."""
    d = max(sum(i in g.side[j - 1] for j in k) for i, k in enumerate(g.side, 1))
    u = min(g.n, ell * (d + 1) // m)
    return (m + (u < g.n), (m + 1) * g.n - u)


def _frontier(points, g, m):
    """Integer profiles (max |R_i|, sum |R_i|) of reference points."""
    return [(r * m, r_avg * m * g.n) for _, r, r_avg, _, _ in points]


CYCLE3 = directed_cycle(3)
CYCLE4 = directed_cycle(4)
TWO_CYCLE = graph_from_side_info([{2}, {1}])
MIXED3 = graph_from_side_info([{2}, {1, 3}, {1}])
CERTIFIED4 = graph_from_side_info([{2}, {3}, {1, 4}, {2}])
CERTIFIED4B = graph_from_side_info([{2, 4}, {3}, {1}, {2}])

CASES = [
    # (graph, q, m, ell, locality cap, frontier reaches (m, m*N)).  Every
    # frontier lies on or above locality_floor(g, m, ell), where the search
    # stops; the comments name the cases whose frontier is that floor.
    (CYCLE3, 3, 1, 1, None, False),  # empty by the acyclic-set bound
    (CYCLE3, 2, 1, 2, None, False),  # the floor (2, 4)
    (CYCLE3, 3, 1, 2, None, False),  # the floor (2, 4)
    (CYCLE3, 2, 1, 3, 1, True),
    (CYCLE4, 2, 1, 3, None, False),  # above the floor (2, 5)
    (CYCLE4, 2, 1, 3, 1, False),  # empty by the floor: u = 3 < 4
    (MIXED3, 3, 1, 2, None, True),  # 1 and 2 are mutual neighbours: u = N
    (MIXED3, 3, 1, 3, None, True),
    (MIXED3, 3, 1, 3, 1, True),
    (CERTIFIED4, 2, 1, 3, None, False),  # the floor (2, 5)
    (CERTIFIED4, 2, 1, 3, 2, False),  # the floor (2, 5)
    (CERTIFIED4B, 2, 1, 3, None, False),  # the floor (2, 5)
    (CERTIFIED4B, 2, 1, 3, 1, False),  # empty by the floor
    (TWO_CYCLE, 3, 2, 1, None, False),  # empty by the acyclic-set bound
    (TWO_CYCLE, 3, 2, 2, None, True),
    (TWO_CYCLE, 2, 2, 3, Fraction(3, 2), True),
    (CERTIFIED4, 2, 1, 3, 1, False),  # empty by the floor
    (CERTIFIED4, 2, 1, 4, 1, True),  # u = N at ell = N
    (MIXED3, 2, 1, 2, None, True),  # u = N, so the floor is (m, m*N)
]


@pytest.mark.parametrize("g, q, m, ell, cap, reaches_bound", CASES)
def test_search_matches_reference(g, q, m, ell, cap, reaches_bound):
    got = [
        (p.beta, p.r, p.r_avg, p.witness.matrix.entries, p.witness.queries)
        for p in exhaustive_vector_search(g, q, m, ell, cap)
    ]
    want = reference_search(g, q, m, ell, cap)
    assert got == want
    bound = (Fraction(ell, m), Fraction(1), Fraction(1))
    assert ([p[:3] for p in got] == [bound]) == reaches_bound
    floor = locality_floor(g, m, ell)
    assert all(mx >= floor[0] and sm >= floor[1] for mx, sm in _frontier(want, g, m))


def _digraphs(n):
    arcs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for present in product((False, True), repeat=len(arcs)):
        side = [set() for _ in range(n)]
        for (i, j), p in zip(arcs, present):
            if p:
                side[i - 1].add(j)
        yield graph_from_side_info(side)


def test_search_matches_reference_on_every_3_vertex_digraph():
    # 64 digraphs, each at ell 2 and 3, uncapped and with every receiver
    # held to one column, over F_2; no reference frontier lies below the
    # floor.
    for g in _digraphs(3):
        for ell, cap in product((2, 3), (None, 1)):
            got = [
                (p.beta, p.r, p.r_avg, p.witness.matrix.entries, p.witness.queries)
                for p in exhaustive_vector_search(g, 2, 1, ell, cap)
            ]
            want = reference_search(g, 2, 1, ell, cap)
            assert got == want, (g.side, ell, cap)
            floor = locality_floor(g, 1, ell)
            assert all(
                mx >= floor[0] and sm >= floor[1] for mx, sm in _frontier(want, g, 1)
            ), (g.side, ell, cap)
