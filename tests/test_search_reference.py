"""The exhaustive searches against a brute-force reference search.

The reference has no pruning, no memo, no cut-offs and no acyclic-set
shortcut: it tests every multiset of normalized columns with
``linalg.solve_in_span``, finds each receiver's first decoding query set
in (size, lexicographic) order and keeps, per profile, the first encoder
in ``combinations_with_replacement`` order.  So the searches' frontiers,
witness matrices and queries must equal its output exactly.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from idxloc.bounds import exhaustive_vector_search
from idxloc.graphs import directed_cycle, graph_from_side_info, receiver_rows
from idxloc.linalg import solve_in_span, unit_vector


def _decodes(columns, demand_rows, side_rows, mn, q):
    gens = list(columns) + [unit_vector(mn, s) for s in side_rows]
    return all(
        solve_in_span(gens, unit_vector(mn, d), q) is not None for d in demand_rows
    )


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


CYCLE3 = directed_cycle(3)
CYCLE4 = directed_cycle(4)
TWO_CYCLE = graph_from_side_info([{2}, {1}])
MIXED3 = graph_from_side_info([{2}, {1, 3}, {1}])
CERTIFIED4 = graph_from_side_info([{2}, {3}, {1, 4}, {2}])
CERTIFIED4B = graph_from_side_info([{2, 4}, {3}, {1}, {2}])

CASES = [
    # (graph, q, m, ell, locality cap, frontier reaches (m, m*N))
    (CYCLE3, 3, 1, 1, None, False),  # empty by the acyclic-set bound
    (CYCLE3, 2, 1, 2, None, False),
    (CYCLE3, 3, 1, 2, None, False),
    (CYCLE3, 2, 1, 3, 1, True),
    (CYCLE4, 2, 1, 3, None, False),
    (CYCLE4, 2, 1, 3, 1, False),  # the cap rejects every encoder
    (MIXED3, 3, 1, 2, None, True),
    (MIXED3, 3, 1, 3, None, True),
    (MIXED3, 3, 1, 3, 1, True),
    (CERTIFIED4, 2, 1, 3, None, False),
    (CERTIFIED4, 2, 1, 3, 2, False),
    (CERTIFIED4B, 2, 1, 3, None, False),
    (CERTIFIED4B, 2, 1, 3, 1, False),
    (TWO_CYCLE, 3, 2, 1, None, False),  # empty by the acyclic-set bound
    (TWO_CYCLE, 3, 2, 2, None, True),
    (TWO_CYCLE, 2, 2, 3, Fraction(3, 2), True),
]


@pytest.mark.parametrize("g, q, m, ell, cap, reaches_bound", CASES)
def test_search_matches_reference(g, q, m, ell, cap, reaches_bound):
    got = [
        (p.beta, p.r, p.r_avg, p.witness.matrix.entries, p.witness.queries)
        for p in exhaustive_vector_search(g, q, m, ell, cap)
    ]
    assert got == reference_search(g, q, m, ell, cap)
    bound = (Fraction(ell, m), Fraction(1), Fraction(1))
    assert ([p[:3] for p in got] == [bound]) == reaches_bound
