"""The search kernel against a row Gauss-Jordan reference and against its
own contract."""

import functools
import inspect
import random
import sys
from itertools import combinations, combinations_with_replacement

import pytest

from idxloc import _kernel
from idxloc.bounds import _normalized_columns, exhaustive_scalar_search
from idxloc.graphs import _adjacency, acyclic_sizer, directed_cycle, graph_from_side_info, receiver_rows
from idxloc.linalg import FqMatrix, unit_vector

from helpers import _reference_solve_each, oracle_rank, random_graph


def _search_instance(rng):
    q = rng.choice([2, 3])
    n = rng.randint(2, 3)
    m = rng.randint(1, 2)
    g = random_graph(rng, n)
    mn = m * n
    ell = rng.randint(1, 4)
    rows = [receiver_rows(g, m, i) for i in range(1, n + 1)]
    cols = tuple(tuple(rng.randrange(q) for _ in range(mn)) for _ in range(ell))
    return cols, mn, q, rows, ell


def _encoder(cols, mn, q, rows):
    """Receiver tables over the distinct columns, and the encoder's
    columns as indices into them (repeated columns share an index)."""
    distinct = sorted(set(cols))
    tables = _kernel.receiver_tables(distinct, q, rows)
    return tables, tuple(distinct.index(c) for c in cols)


def _decodes(cols, mn, q, demand_rows, side_rows):
    """Every demanded symbol lies in the span of the columns and the
    side-information unit vectors."""
    gens = list(cols) + [unit_vector(mn, s) for s in side_rows]
    targets = [unit_vector(mn, d) for d in demand_rows]
    return None not in _reference_solve_each(gens, targets, q)


def _first_decoding_subset(cols, mn, q, demand_rows, side_rows):
    """First query set in (size, lexicographic) order from which the
    receiver decodes, or None."""
    for size in range(len(cols) + 1):
        for subset in combinations(range(len(cols)), size):
            if _decodes([cols[k] for k in subset], mn, q, demand_rows, side_rows):
                return subset
    return None


def _query_sets(tables, ks, cap):
    """Each receiver's first_query_set, or None when some receiver has none."""
    firsts = tuple(_kernel.first_query_set(table, ks, cap) for table in tables)
    return None if None in firsts else firsts


def test_first_query_set_matches_linalg():
    rng = random.Random(57)
    decodable = 0
    for _ in range(250):
        cols, mn, q, rows, ell = _search_instance(rng)
        tables, ks = _encoder(cols, mn, q, rows)
        firsts = [_first_decoding_subset(cols, mn, q, d, s) for d, s in rows]
        for cap in range(1, ell + 1):
            got = _query_sets(tables, ks, cap)
            if any(t is None or len(t) > cap for t in firsts):
                assert got is None
            else:
                assert got == tuple(firsts)
        if all(t is not None for t in firsts):
            decodable += 1
    assert decodable > 10


def test_decodable_encoders_yields_the_decodable_multisets_in_order():
    # The pruned enumeration must skip exactly the undecodable column
    # sets and keep combinations_with_replacement (encoders) or
    # combinations (query sets) order, which fixes the searches'
    # tie-breaking.
    rng = random.Random(59)
    seen = {2: 0, 3: 0, 5: 0}
    yielded = {True: 0, False: 0}
    for _ in range(60):
        q = rng.choice([2, 3, 5])
        n = rng.randint(2, 3)
        m = rng.randint(1, 2) if q**n <= 27 else 1
        mn = m * n
        ell = rng.randint(1, 4 if q**mn <= 27 else 2)
        g = random_graph(rng, n)
        rows = [receiver_rows(g, m, i) for i in range(1, n + 1)]
        columns = _normalized_columns(mn, q)
        tables = _kernel.receiver_tables(columns, q, rows)

        @functools.cache
        def all_decode(column_set):
            cols = [columns[k] for k in column_set]
            return all(_decodes(cols, mn, q, d, s) for d, s in rows)

        for repeat, tuples in ((True, combinations_with_replacement), (False, combinations)):
            want = [
                ks
                for ks in tuples(range(len(columns)), ell)
                if all_decode(tuple(sorted(set(ks))))
            ]
            got = list(_kernel.decodable_encoders(tables, range(len(columns)), ell, repeat))
            assert got == want
            yielded[repeat] += len(got)
        seen[q] += 1
    assert all(seen.values()) and all(count > 100 for count in yielded.values())


def test_warm_transitions_answer_as_fresh_ones():
    # One set of tables serves a whole search: the encoder enumeration
    # stays suspended while the query sets of each encoder it yields are
    # computed on the same transitions, as in exhaustive_vector_search.
    # Every answer must equal that of tables built fresh for the question
    # and that of linalg.  A sample of the columns keeps q = 5 small.
    rng = random.Random(61)
    instances = [
        (directed_cycle(3), 1, 3),
        (graph_from_side_info([{2, 3}, {3}, {1}]), 1, 2),
        (directed_cycle(2), 2, 2),
    ]
    checked = {}
    for q in (2, 3, 5):
        for g, m, ell in instances:
            mn = m * g.n
            rows = [receiver_rows(g, m, i) for i in range(1, g.n + 1)]
            columns = _normalized_columns(mn, q)
            candidates = sorted(rng.sample(range(len(columns)), min(len(columns), 16)))
            tables = _kernel.receiver_tables(columns, q, rows)
            for repeat in (True, False):
                walked = []
                for chosen in _kernel.decodable_encoders(tables, candidates, ell, repeat):
                    walked.append(chosen)
                    ks = [candidates[p] for p in chosen]
                    cols = [columns[k] for k in ks]
                    fresh, fresh_ks = _encoder(cols, mn, q, rows)
                    firsts = [_first_decoding_subset(cols, mn, q, d, s) for d, s in rows]
                    for cap in range(1, ell + 1):
                        want = _query_sets(fresh, fresh_ks, cap)
                        if all(t is not None and len(t) <= cap for t in firsts):
                            assert want == tuple(firsts)
                        else:
                            assert want is None
                        assert _query_sets(tables, ks, cap) == want
                    checked[q, m] = checked.get((q, m), 0) + 1
                cold = _kernel.receiver_tables(columns, q, rows)
                assert walked == list(_kernel.decodable_encoders(cold, candidates, ell, repeat))
    assert len(checked) == 6 and sum(checked.values()) > 2000


def test_decodable_encoders_keeps_its_own_stack():
    # One receiver with no side information: the search at length ell
    # chooses ell columns, one depth each, so a frame per depth would
    # pass this limit.
    ell = 300
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        points = exhaustive_scalar_search(graph_from_side_info([set()]), 2, ell)
    finally:
        sys.setrecursionlimit(limit)
    assert [p.profile() for p in points] == [(ell, 1, 1)]
    assert points[0].witness.matrix.entries == (1,) * ell


def test_first_query_set_respects_cap():
    rng = random.Random(58)
    for _ in range(80):
        cols, mn, q, rows, ell = _search_instance(rng)
        tables, ks = _encoder(cols, mn, q, rows)
        cap = rng.randint(1, ell)
        a = _query_sets(tables, ks, cap)
        if a is not None:
            assert all(len(first) <= cap for first in a)


def test_reduce_is_falsy_exactly_on_the_span():
    # Bases in push order, as minrank_dfs keeps them, and fully reduced
    # spans, as the transitions key them, against linalg's span test.
    rng = random.Random(21)
    for q in (2, 3, 5):
        reduce, span_with, entry, join, _ = _kernel._vector_format(q)

        def pack(digits):
            # join takes the entry values last row first.
            return join(tuple(entry(t, d) for t, d in reversed(list(enumerate(digits)))))

        def pivot(v):
            if q == 2:
                return (v & -v).bit_length() - 1
            return v[0]

        for _ in range(80):
            n = rng.randint(1, 5)
            gens = [
                tuple(rng.randrange(q) for _ in range(n))
                for _ in range(rng.randint(0, 4))
            ]
            pushed, span = [], ()
            for g in gens:
                v = reduce(pushed, pack(g))
                if v:
                    pushed.append(v)
                grown = span_with(span, pack(g))
                if grown is not None:
                    span = grown[0]
            assert len(pushed) == len(span)
            for _ in range(12):
                if gens and rng.random() < 0.5:
                    coeffs = [rng.randrange(q) for _ in gens]
                    target = tuple(
                        sum(c * g[r] for c, g in zip(coeffs, gens)) % q for r in range(n)
                    )
                else:
                    target = tuple(rng.randrange(q) for _ in range(n))
                inside = _reference_solve_each(gens, [target], q)[0] is not None
                for basis in (pushed, span):
                    v = reduce(basis, pack(target))
                    assert (not v) == inside
                    if v:
                        p = pivot(v)
                        digits = v[1] if q != 2 else _kernel._bits(v, n)
                        assert digits[p] == 1 and not any(digits[:p])
                        assert p not in {pivot(b) for b in basis}


def test_minrank_dfs_witness_rank_matches():
    rng = random.Random(78)
    for _ in range(40):
        n = rng.randint(1, 5)
        q = rng.choice([2, 3])
        g = random_graph(rng, n)
        value, columns = _kernel.minrank_dfs(q, _adjacency(g)[0], lambda untouched: 0)
        witness = FqMatrix.from_columns(columns, n, q)
        assert oracle_rank(witness) == value


def test_minrank_dfs_floor_cuts_on_a_zero_free_entry(monkeypatch):
    # On the 4-cycle over F_2 the floor of all rows, 3, is the min-rank,
    # so the one pass runs at target 3.  Column d < 3 with its free entry
    # (row d + 1) set to 0 leaves rows d + 1 to 3 untouched, a path with
    # floor 3 - d, and the prefix rank d + 1 plus that floor is 4 > 3, so
    # the branch is cut; with the entry 1 the floor is 2 - d and the
    # search descends.
    # Column 3 with entry 0 has rank 4 and with entry 1 completes the
    # first matrix, so the floor makes 2 reductions per column, 8 in all.
    # A floor that reads 3 on all rows and 0 elsewhere runs the same one
    # pass but cuts nothing before the last column, and reaches that
    # matrix, the last fill in counter order, after all 2 + 4 + 8 + 16
    # reductions.
    g = directed_cycle(4)
    free = _adjacency(g)[0]
    reductions = 0
    reduce = _kernel._bit_reduce

    def counting_reduce(basis, v):
        nonlocal reductions
        reductions += 1
        return reduce(basis, v)

    monkeypatch.setattr(_kernel, "_bit_reduce", counting_reduce)
    mais = acyclic_sizer(*_adjacency(g))
    asked = {}

    def floor(untouched):
        asked[untouched] = asked.get(untouched, 0) + 1
        return mais(untouched)

    value, columns = _kernel.minrank_dfs(2, free, floor)
    cut_reductions, reductions = reductions, 0
    assert (value, columns) == _kernel.minrank_dfs(
        2, free, lambda untouched: 3 if untouched == 0b1111 else 0
    )
    assert value == 3
    assert columns == ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
    assert (cut_reductions, reductions) == (8, 30)
    # Rows 1, 2 and 3 untouched after column 0 set its free entry to 0:
    # a path, floor 3, and 1 + 3 exceeds the target 3.
    assert asked[0b1110] == 1 and mais(0b1110) == 3
    assert all(count == 1 for count in asked.values())


def test_minrank_dfs_refuses_a_floor_above_every_fill():
    # The 2-cycle's fills have rank 1 or 2, but this floor says 3.
    with pytest.raises(ValueError, match="^floor exceeds the rank of every fill$"):
        _kernel.minrank_dfs(2, [0b10, 0b01], lambda untouched: 3)
