"""Achievability schemes and their exact locality profiles."""

from fractions import Fraction
from itertools import product

import pytest

from idxloc.bounds import optimal_cycle_locality_for_m
from idxloc.codes import (
    DecodingFailure,
    locality_profile,
    require_plan,
    verify_decodable,
)
from idxloc.constructions import (
    cycle_scalar_code,
    cycle_vector_code,
    minrank_deficit_code,
    plan_rotation_schedule,
    time_share,
    uncoded,
)
from idxloc.graphs import (
    directed_cycle,
    graph_from_side_info,
    shortest_directed_cycle,
)


def test_uncoded_profiles():
    for n, m in [(3, 1), (4, 2)]:
        g = directed_cycle(n)
        code = uncoded(g, m)
        p = locality_profile(code)
        assert (p.r, p.beta) == (1, n)
        assert code.ell == m * n
        require_plan(g, code)


def test_uncoded_plan_has_zero_side_vectors():
    g = directed_cycle(5)
    plan = require_plan(g, uncoded(g, 1))
    for i in range(1, 6):
        for entry in plan.entries(i):
            assert not any(entry.u)


def test_cycle_scalar_anchor1_profile():
    code = cycle_scalar_code(4, 2, 1)
    p = locality_profile(code)
    assert p.per_receiver == (1, 2, 2, 1)
    assert p.beta == 3


def test_cycle_scalar_rejects_small_n():
    with pytest.raises(ValueError):
        cycle_scalar_code(2, 2, 1)


def test_cycle_scalar_anchor_rotations():
    # Anchor a hands the two single-query roles to receivers a and a-1.
    for n in range(3, 10):
        g = directed_cycle(n)
        for anchor in range(1, n + 1):
            code = cycle_scalar_code(n, 2, anchor)
            require_plan(g, code)
            p = locality_profile(code)
            ones = {i + 1 for i, r in enumerate(p.per_receiver) if r == 1}
            prev = anchor - 1 if anchor > 1 else n
            assert ones == {anchor, prev}
            assert all(r in (1, 2) for r in p.per_receiver)
            assert p.beta == n - 1


def test_cycle_scalar_exact_columns_and_queries():
    # Anchor a sends x_a + x_{a+k} as column k (indices mod n); receiver
    # a+d reads columns d and d+1 where they exist.
    for n in range(3, 9):
        for anchor in range(1, n + 1):
            code = cycle_scalar_code(n, 3, anchor)
            assert (code.q, code.m, code.n, code.ell) == (3, 1, n, n - 1)
            columns = []
            for k in range(1, n):
                col = [0] * n
                col[anchor - 1] = 1
                col[(anchor - 1 + k) % n] = 1
                columns.append(tuple(col))
            assert code.matrix.column_list() == columns
            for i in range(1, n + 1):
                d = (i - anchor) % n
                assert code.queries[i - 1] == {d, d + 1} & set(range(1, n))


def test_cycle_scalar_f3_decodes():
    g = directed_cycle(3)
    code = cycle_scalar_code(3, 3, 1)
    require_plan(g, code)
    # Receiver 2 combines its two queries with side info x_3:
    # x_2 = c_1 - c_2 + x_3.
    from idxloc.codes import decode_receiver, encode

    plan = require_plan(g, code)
    x = (2, 1, 2)
    c = encode(code, x)
    assert decode_receiver(g, code, plan, 2, [c[0], c[1]], [x[2]]) == (1,)
    assert (c[0] - c[1] + x[2]) % 3 == 1


def test_time_share_singleton_keeps_profile():
    g = directed_cycle(4)
    code = cycle_scalar_code(4, 2, 1)
    shared = time_share(g, [code])
    assert locality_profile(shared) == locality_profile(code)
    assert shared.matrix == code.matrix


def test_time_share_two_copies():
    g = directed_cycle(4)
    code = cycle_scalar_code(4, 2, 1)
    shared = time_share(g, [code, code])
    p = locality_profile(shared)
    assert shared.m == 2
    assert (p.beta, p.r, p.r_avg) == (3, 2, Fraction(3, 2))
    require_plan(g, shared)


def test_time_share_rotations_balance():
    g = directed_cycle(4)
    shared = time_share(
        g, [cycle_scalar_code(4, 2, 1), cycle_scalar_code(4, 2, 3)]
    )
    p = locality_profile(shared)
    assert all(len(r) == 3 for r in shared.queries)
    assert p.r == Fraction(3, 2)
    assert p.r == Fraction(2 * (4 - 1), 4)


def test_time_share_rate_and_locality_identity():
    g = directed_cycle(5)
    parts = [
        uncoded(g, 2),
        cycle_scalar_code(5, 2, 2),
        cycle_scalar_code(5, 2, 4),
    ]
    shared = time_share(g, parts)
    assert shared.m == sum(c.m for c in parts)
    assert shared.ell == sum(c.ell for c in parts)
    p = locality_profile(shared)
    assert p.beta == Fraction(shared.ell, shared.m)
    for i in range(1, 6):
        expect = Fraction(sum(len(c.queries[i - 1]) for c in parts), shared.m)
        assert p.per_receiver[i - 1] == expect
    require_plan(g, shared)


def test_time_share_rejects_mixed_fields():
    g = directed_cycle(3)
    with pytest.raises(ValueError):
        time_share(g, [cycle_scalar_code(3, 2, 1), cycle_scalar_code(3, 3, 1)])


def schedule_cases():
    # (n, m, expected overall locality)
    yield 5, 5, Fraction(8, 5)       # all rotations
    yield 5, 3, Fraction(5, 3)       # mid-range, 2 - 1/m
    yield 5, 2, Fraction(2)          # short messages
    yield 4, 2, Fraction(3, 2)       # even, odd anchors
    yield 4, 4, Fraction(3, 2)
    yield 6, 3, Fraction(5, 3)
    yield 7, 4, Fraction(7, 4)
    yield 9, 5, Fraction(9, 5)
    yield 3, 3, Fraction(4, 3)
    yield 8, 4, Fraction(7, 4)


@pytest.mark.parametrize("n,m,expected_r", list(schedule_cases()))
def test_cycle_vector_profiles(n, m, expected_r):
    g = directed_cycle(n)
    code = cycle_vector_code(n, 2, m)
    p = locality_profile(code)
    assert p.beta == n - 1
    assert p.r == expected_r
    assert p.r_avg == Fraction(2 * (n - 1), n)
    require_plan(g, code)


def test_cycle_vector_all_covered_regimes():
    for n in range(3, 10):
        for m in range(1, 2 * n + 1):
            anchors = plan_rotation_schedule(n, m)
            assert len(anchors) == m
            assert all(1 <= a <= n for a in anchors)
            code = cycle_vector_code(n, 2, m)
            p = locality_profile(code)
            assert p.beta == n - 1
            assert p.r_avg == Fraction(2 * (n - 1), n)
            if optimal_cycle_locality_for_m(n, m) is None:
                continue
            if 2 * m < n:
                assert p.r == 2
            elif n % 2 == 1 and m < n:
                assert p.r == 2 - Fraction(1, m)
            else:
                assert p.r == Fraction(2 * (n - 1), n)


def test_schedule_flags_uncovered_lengths():
    # Lengths with no established optimum still get m anchors in [1, n].
    for n, m in [(4, 3), (5, 7)]:
        assert optimal_cycle_locality_for_m(n, m) is None
        anchors = plan_rotation_schedule(n, m)
        assert len(anchors) == m and all(1 <= a <= n for a in anchors)
    assert optimal_cycle_locality_for_m(5, 10) is not None
    assert optimal_cycle_locality_for_m(6, 9) is not None


def _fallback_schedule(n: int, m: int) -> tuple[int, ...]:
    """The first of plan_rotation_schedule's three fallback candidates
    with the least (r, r_avg), in Fractions: receiver i of the time-shared
    code queries, summed over the anchors, what receiver i of each
    rotation's scalar code queries."""
    rotation = range(1, n + 1)
    spaced = [*range(1, n + 1, 2), *range(2, n + 1, 2)]
    candidates = [
        (1,) * m,
        tuple(rotation[t % n] for t in range(m)),
        tuple(spaced[t % n] for t in range(m)),
    ]
    scalar = {a: [len(r) for r in cycle_scalar_code(n, 2, a).queries] for a in rotation}

    def key(anchors):
        sizes = [sum(scalar[a][i] for a in anchors) for i in range(n)]
        return Fraction(max(sizes), m), Fraction(sum(sizes), m * n)

    return min(candidates, key=key)


def test_schedule_fallback_picks_the_least_locality():
    # Every uncovered (n, m) with n in 3..12 and m in 1..3n.
    uncovered = [
        (n, m) for n in range(3, 13) for m in range(1, 3 * n + 1)
        if optimal_cycle_locality_for_m(n, m) is None
    ]
    assert len(uncovered) > 100
    for n, m in uncovered:
        assert plan_rotation_schedule(n, m) == _fallback_schedule(n, m), (n, m)


def test_deficit_two_cycle():
    g = graph_from_side_info([{2}, {1}, set()])
    code = minrank_deficit_code(g, 2)
    p = locality_profile(code)
    assert (p.beta, p.r, p.r_avg) == (2, 1, 1)
    assert code.matrix.column_list()[0] == (1, 1, 0)
    require_plan(g, code)


def test_deficit_three_cycle_plus_vertex():
    g = graph_from_side_info([{2}, {3}, {1}, set()])
    code = minrank_deficit_code(g, 2)
    p = locality_profile(code)
    assert p.beta == 3
    assert p.r == 2
    assert p.r_avg == Fraction(5, 4)
    require_plan(g, code)


def test_deficit_on_pure_cycle_matches_cycle_code():
    for n in (3, 4, 5):
        g = directed_cycle(n)
        assert minrank_deficit_code(g, 2) == cycle_scalar_code(n, 2, 1)


def test_deficit_rejects_dag():
    g = graph_from_side_info([{2}, {3}, set()])
    with pytest.raises(ValueError):
        minrank_deficit_code(g, 2)


def test_deficit_cycle_sum_locality():
    # Within the chosen cycle the locality budget is 2(n_c - 1) total
    # with maximum 2.
    from idxloc.graphs import shortest_directed_cycle

    cases = [
        graph_from_side_info([{2}, {3}, {1}, set(), set()]),
        graph_from_side_info([{2}, {3}, {4}, {1}, set()]),
        graph_from_side_info([{2, 5}, {3}, {1}, {5}, set()]),
    ]
    for g in cases:
        n_c, cycle = shortest_directed_cycle(g)
        assert n_c >= 3
        code = minrank_deficit_code(g, 2)
        p = locality_profile(code)
        on_cycle = [p.per_receiver[v - 1] for v in cycle]
        assert max(on_cycle) == 2
        assert sum(on_cycle) == 2 * (n_c - 1)
        off_cycle = [
            p.per_receiver[v - 1] for v in range(1, g.n + 1) if v not in cycle
        ]
        assert all(r == 1 for r in off_cycle)
        assert p.r_avg == Fraction(g.n + n_c - 2, g.n)
        require_plan(g, code)


def test_every_construction_verifies():
    for n in range(3, 8):
        g = directed_cycle(n)
        for q in (2, 3):
            for anchor in range(1, n + 1):
                assert not isinstance(
                    verify_decodable(g, cycle_scalar_code(n, q, anchor)),
                    DecodingFailure,
                )
            assert not isinstance(
                verify_decodable(g, cycle_vector_code(n, q, n)), DecodingFailure
            )


def test_deficit_code_on_every_small_digraph():
    # Every digraph on 2-4 vertices with a directed cycle, 2-cycles
    # included: length n-1, decodable, and the scheme's (r, r_avg).
    for n in (2, 3, 4):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for arcs in product((False, True), repeat=len(pairs)):
            side = [set() for _ in range(n)]
            for (i, j), arc in zip(pairs, arcs):
                if arc:
                    side[i - 1].add(j)
            g = graph_from_side_info(side)
            found = shortest_directed_cycle(g)
            if found is None:
                continue
            n_c = found[0]
            for q in (2, 3):
                code = minrank_deficit_code(g, q)
                assert code.ell == n - 1
                require_plan(g, code)
                p = locality_profile(code)
                if n_c == 2:
                    assert (p.r, p.r_avg) == (1, 1)
                else:
                    assert (p.r, p.r_avg) == (2, Fraction(n + n_c - 2, n))
