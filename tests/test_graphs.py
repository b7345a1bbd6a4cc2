"""Graph parsing, induced subgraphs, girth, acyclic sets, receiver rows."""

import inspect
import random
import sys
from itertools import combinations, product
from math import factorial

import pytest

from idxloc.graphs import (
    GraphParseError,
    _acyclic_sets,
    _adjacency,
    _components,
    _cycle_through,
    acyclic_sizer,
    cycle_length_if_cycle,
    directed_cycle,
    graph_from_side_info,
    has_directed_cycle,
    induced_subgraph,
    max_acyclic_induced,
    parse_graph,
    receiver_rows,
    shortest_directed_cycle,
)

from helpers import (
    blocks_graph, format_graph, oracle_bfs_shortest_cycle, oracle_shortest_cycle,
    pendant_two_cycles, random_graph,
)


def test_parse_three_cycle():
    g = parse_graph("N=3\n1: 2\n2: 3\n3: 1\n")
    assert g == directed_cycle(3)


def test_parse_two_cycle():
    g = parse_graph("N=2\n1: 2\n2: 1\n")
    assert g.side_info(1) == {2}
    assert g.side_info(2) == {1}


def test_parse_rejects_self_loop():
    with pytest.raises(GraphParseError) as err:
        parse_graph("N=2\n1: 1\n2:\n")
    assert "line 2" in str(err.value)


def test_parse_rejects_duplicate_declaration():
    with pytest.raises(GraphParseError) as err:
        parse_graph("N=2\n1: 2\n1: 2\n")
    assert "line 3" in str(err.value)


def test_parse_rejects_out_of_range():
    with pytest.raises(GraphParseError):
        parse_graph("N=2\n1: 5\n")


def test_parse_header_key_is_exactly_n():
    assert parse_graph("N = 2\n1: 2\n") == parse_graph("N=2\n1: 2\n")
    for header in ("Nodes=2", "Nx = 2", "n=2", "M=2"):
        with pytest.raises(GraphParseError, match="expected 'N=<int>' header") as err:
            parse_graph(f"# comment\n{header}\n1: 2\n")
        assert "line 2" in str(err.value)


def test_parse_comments_and_blanks():
    g = parse_graph("# instance\n\nN=3  # three receivers\n1: 2 3\n2:\n3: 1\n")
    assert g.side_info(1) == {2, 3}
    assert g.side_info(2) == frozenset()


def test_parse_allows_omitted_receivers():
    g = parse_graph("N=3\n1: 2\n")
    assert g.side_info(2) == frozenset()
    assert g.side_info(3) == frozenset()


def test_format_round_trip():
    g = graph_from_side_info([{2, 3}, set(), {1}])
    assert parse_graph(format_graph(g)) == g


def test_receiver_index_out_of_range_is_refused():
    g = directed_cycle(3)
    for i in (0, -1, 4):
        with pytest.raises(ValueError, match="out of range"):
            g.side_info(i)
        for m in (1, 2):
            with pytest.raises(ValueError, match="out of range"):
                receiver_rows(g, m, i)


def test_graph_rejects_self_side_info():
    with pytest.raises(ValueError):
        graph_from_side_info([{1}])


def test_induced_full_set_is_identity():
    g = directed_cycle(4)
    sub, mapping = induced_subgraph(g, [1, 2, 3, 4])
    assert sub == g
    assert mapping == (1, 2, 3, 4)


def test_induced_removing_cycle_vertex_gives_path():
    g = directed_cycle(4)
    sub, mapping = induced_subgraph(g, {1, 2, 3})
    assert mapping == (1, 2, 3)
    assert sub.side_info(1) == {2}
    assert sub.side_info(2) == {3}
    assert sub.side_info(3) == frozenset()
    assert not has_directed_cycle(sub)


def test_induced_single_vertex():
    g = directed_cycle(3)
    sub, mapping = induced_subgraph(g, {2})
    assert sub.n == 1
    assert sub.side_info(1) == frozenset()
    assert mapping == (2,)


def test_induced_rejects_empty_or_bad():
    g = directed_cycle(3)
    with pytest.raises(ValueError):
        induced_subgraph(g, [])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0])


def test_girth_of_cycles():
    for n in range(2, 9):
        got = shortest_directed_cycle(directed_cycle(n))
        assert got == (n, tuple(range(1, n + 1)))


def test_girth_prefers_two_cycle():
    g = graph_from_side_info([{2}, {1}, {4}, {5}, {3}])
    assert shortest_directed_cycle(g) == (2, (1, 2))


def test_girth_of_dag_absent():
    g = graph_from_side_info([{2}, {3}, set()])
    assert shortest_directed_cycle(g) is None


def test_girth_lexicographic_tie_break():
    # Two 3-cycles: (1,4,5) and (2,3,6); the vertex-lexicographic winner
    # is (1,4,5).
    g = graph_from_side_info([{4}, {3}, {6}, {5}, {1}, {2}])
    assert shortest_directed_cycle(g) == (3, (1, 4, 5))


def test_girth_of_a_long_cycle():
    got = shortest_directed_cycle(directed_cycle(1200))
    assert got == (1200, tuple(range(1, 1201)))


def test_girth_after_vertices_on_no_cycle():
    # 1 and 2 lie on no cycle, 3 on a 3-cycle whose other vertices close
    # no cycle among the vertices above them, and the girth is the later
    # 2-cycle (6, 7).
    g = graph_from_side_info([{2}, {3}, {4}, {5}, {3, 6}, {7}, {6}])
    assert shortest_directed_cycle(g) == (2, (6, 7))


def test_girth_matches_brute_force_on_every_small_digraph():
    graphs = 0
    for n in (1, 2, 3, 4):
        for g in _all_digraphs(n):
            graphs += 1
            expected = oracle_shortest_cycle(g)
            assert shortest_directed_cycle(g) == expected
            assert has_directed_cycle(g) == (expected is not None)
    assert graphs == 1 + 4 + 64 + 4096


def test_girth_and_cycle_test_match_path_enumeration_on_seeded_digraphs():
    # Against the path-enumerating reference, which shares no code with
    # the peel to the core inside has_directed_cycle and
    # shortest_directed_cycle.
    rng = random.Random(7)
    acyclic = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(5, 7), rng.choice([0.1, 0.2, 0.35, 0.5]))
        expected = oracle_shortest_cycle(g)
        acyclic += expected is None
        assert shortest_directed_cycle(g) == expected
        assert has_directed_cycle(g) == (expected is not None)
    assert 20 < acyclic < 280


def test_girth_matches_per_start_search_on_seeded_digraphs():
    # Against a breadth-first search from every start s on all vertices
    # s and above, with no peel to the core, so the shrinking core that
    # shortest_directed_cycle searches in must leave every witness as is.
    rng = random.Random(19)
    acyclic = 0
    for _ in range(3000):
        p = rng.choice([0.05, 0.1, 0.2, 0.35, 0.5])
        g = random_graph(rng, rng.randint(1, 12), p)
        expected = oracle_bfs_shortest_cycle(g)
        acyclic += expected is None
        assert shortest_directed_cycle(g) == expected
    assert 300 < acyclic < 2700


def _all_digraphs(n):
    """Every digraph on n vertices without self-loops."""
    arcs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for mask in range(2 ** len(arcs)):
        side = [set() for _ in range(n)]
        for t, (i, j) in enumerate(arcs):
            if mask >> t & 1:
                side[i - 1].add(j)
        yield graph_from_side_info(side)


def _mask(vertices):
    """The bitmask acyclic_sizer takes: bit v - 1 for each vertex v."""
    return sum(1 << (v - 1) for v in vertices)


def _brute_mais(g, vertices):
    """Largest induced acyclic subset of vertices, trying every subset,
    largest first, each tested by the path-enumerating reference."""
    vs = sorted(vertices)
    for size in range(len(vs), 0, -1):
        for s in combinations(vs, size):
            if oracle_shortest_cycle(induced_subgraph(g, s)[0]) is None:
                return size
    return 0


def test_max_acyclic_induced_on_every_small_digraph():
    rng = random.Random(41)
    graphs = 0
    for n in (1, 2, 3, 4):
        for g in _all_digraphs(n):
            graphs += 1
            everything = range(1, n + 1)
            mais = acyclic_sizer(*_adjacency(g))
            assert max_acyclic_induced(g) == mais(_mask(everything))
            assert mais(_mask(everything)) == _brute_mais(g, everything)
            some = [v for v in everything if rng.random() < 0.6]
            # mais answers on the memo its first call filled.
            assert mais(_mask(some)) == _brute_mais(g, some)
            assert mais(0) == 0
    assert graphs == 1 + 4 + 64 + 4096


def test_acyclic_sets_match_a_subset_scan_on_every_small_digraph():
    # Against the path-enumerating reference on every subset, so the
    # sets at the MAIS are the maximum induced acyclic sets.
    graphs = 0
    for n in (1, 2, 3, 4):
        for g in _all_digraphs(n):
            graphs += 1
            by_size = [[] for _ in range(n + 1)]
            for size in range(1, n + 1):
                for s in combinations(range(n), size):
                    sub = induced_subgraph(g, [v + 1 for v in s])[0]
                    if oracle_shortest_cycle(sub) is None:
                        by_size[size].append(s)
            mais = max_acyclic_induced(g)
            assert by_size[mais] and not any(by_size[mais + 1:])
            for size in range(1, n + 1):
                assert _acyclic_sets(g, size) == by_size[size], (g.side, size)
    assert graphs == 1 + 4 + 64 + 4096


def test_max_acyclic_induced_on_seeded_digraphs():
    rng = random.Random(43)
    several = 0
    for t in range(200):
        n = rng.randint(5, 8)
        if t % 2:
            g, blocks = blocks_graph(rng, n)
            several += sum(len(b) > 1 for b in blocks) >= 2
        else:
            g = random_graph(rng, n, edge_prob=rng.choice([0.15, 0.3, 0.5]))
        everything = range(1, n + 1)
        mais = acyclic_sizer(*_adjacency(g))
        assert max_acyclic_induced(g) == mais(_mask(everything))
        assert mais(_mask(everything)) == _brute_mais(g, everything)
        some = [v for v in everything if rng.random() < 0.7]
        assert mais(_mask(some)) == _brute_mais(g, some)
    assert several > 40


def test_max_acyclic_induced_with_pendant_two_cycles_matches_a_subset_scan():
    # Each pendant vertex has one in-neighbour (or out-neighbour) u, on a
    # 2-cycle with it, so the arc-free rule keeps it and drops u, also
    # where u lies in a larger component.
    rng = random.Random(45)
    inside = 0
    for t in range(120):
        n = rng.randint(3, 6)
        if t % 2:
            g, _ = blocks_graph(rng, n)
        else:
            g = random_graph(rng, n, edge_prob=rng.choice([0.3, 0.5]))
        g, anchors = pendant_two_cycles(rng, g, rng.randint(1, 3))
        succ, pred = _adjacency(g)
        comps = _components(succ, pred, (1 << g.n) - 1)
        inside += any(
            comp.bit_count() > 2 and comp >> (u - 1) & 1 for comp in comps for u in anchors
        )
        everything = range(1, g.n + 1)
        mais = acyclic_sizer(succ, pred)
        assert max_acyclic_induced(g) == mais(_mask(everything))
        assert mais(_mask(everything)) == _brute_mais(g, everything)
        some = [v for v in everything if rng.random() < 0.7]
        assert mais(_mask(some)) == _brute_mais(g, some)
    assert inside > 80


def _bidirected(parents):
    """The bidirected tree on vertices 1..len(parents) + 1 in which
    vertex i + 2 is joined to vertex parents[i]."""
    side = [set() for _ in range(len(parents) + 1)]
    for child, parent in enumerate(parents, start=2):
        side[child - 1].add(parent)
        side[parent - 1].add(child)
    return graph_from_side_info(side)


def test_bidirected_paths_and_trees_need_no_branching(monkeypatch):
    # Every arc is on a 2-cycle, so acyclic sets are independent sets,
    # and a leaf's only neighbour is its in- and out-neighbour: the
    # arc-free rule keeps the leaf and drops its neighbour until nothing
    # is left, and no shortest cycle is ever searched for.
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return _cycle_through(*args)

    monkeypatch.setattr("idxloc.graphs._cycle_through", counting)
    rng = random.Random(46)
    n = 2000
    trees = [list(range(1, n)), [rng.randint(1, i) for i in range(1, n)]]
    for parents in trees:
        # Largest independent set, leaves first: with or without vertex v.
        with_v, without_v = [1] * (n + 1), [0] * (n + 1)
        for child in range(n, 1, -1):
            parent = parents[child - 2]
            with_v[parent] += without_v[child]
            without_v[parent] += max(with_v[child], without_v[child])
        assert max_acyclic_induced(_bidirected(parents)) == max(with_v[1], without_v[1])
    assert max_acyclic_induced(_bidirected(trees[0])) == n // 2
    assert calls == 0


def test_strongly_connected_components_are_the_blocks():
    rng = random.Random(44)
    for _ in range(100):
        g, blocks = blocks_graph(rng, rng.randint(2, 9))
        expected = sorted((frozenset(b) for b in blocks), key=min)
        succ, pred = _adjacency(g)
        comps = _components(succ, pred, (1 << g.n) - 1)
        assert [frozenset(v + 1 for v in range(g.n) if comp >> v & 1) for comp in comps] == expected


def test_max_acyclic_induced_keeps_its_own_stack():
    # On the bidirected path the branching deletes a vertex per level,
    # about n/2 levels deep, so a frame per level would pass this limit.
    n = 300
    path = graph_from_side_info(
        [{j for j in (i - 1, i + 1) if 1 <= j <= n} for i in range(1, n + 1)]
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        value = max_acyclic_induced(path)
    finally:
        sys.setrecursionlimit(limit)
    assert value == n // 2


def test_receiver_rows_layout():
    graphs = 0
    for n in (1, 2, 3):
        for g in _all_digraphs(n):
            graphs += 1
            for m in (1, 2, 3):
                rows = [receiver_rows(g, m, i) for i in range(1, n + 1)]
                demands = [r for demand_rows, _ in rows for r in demand_rows]
                assert sorted(demands) == list(range(m * n))
                for i, (demand_rows, side_rows) in enumerate(rows, start=1):
                    assert demand_rows == range((i - 1) * m, i * m)
                    assert list(side_rows) == sorted(set(side_rows))
                    assert not set(side_rows) & set(demand_rows)
                    known = {r for j in g.side_info(i) for r in rows[j - 1][0]}
                    assert set(side_rows) == known
    assert graphs == 1 + 4 + 64


def test_receiver_rows_rejects_short_messages():
    g = directed_cycle(3)
    for m in (0, -1):
        with pytest.raises(ValueError, match="message length"):
            receiver_rows(g, m, 1)


def test_cycle_length_detection():
    assert cycle_length_if_cycle(graph_from_side_info([set()])) is None
    assert cycle_length_if_cycle(graph_from_side_info([{2}, set()])) is None
    assert cycle_length_if_cycle(graph_from_side_info([{2}, {1}, set()])) is None
    # Every graph in which each receiver knows one message: one n-cycle in
    # any labelling, which is accepted, or shorter cycles with paths
    # running into them (rho shapes) or side by side.  The graph is one
    # n-cycle iff its shortest cycle has n vertices.
    cycles = graphs = 0
    for n in range(2, 7):
        others = [[j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)]
        for pick in product(*others):
            g = graph_from_side_info([{j} for j in pick])
            graphs += 1
            length, _ = oracle_shortest_cycle(g)
            expected = n if length == n else None
            cycles += expected is not None
            assert cycle_length_if_cycle(g) == expected
    assert graphs == sum((n - 1) ** n for n in range(2, 7))
    assert cycles == sum(factorial(n - 1) for n in range(2, 7))
