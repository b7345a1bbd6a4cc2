"""The search kernel against linalg and against its own contract."""

import functools
import random
from itertools import combinations, combinations_with_replacement

from idxloc import _kernel
from idxloc.bounds import _normalized_column_codes
from idxloc.graphs import expand_indices
from idxloc.linalg import FqMatrix, rank, solve_in_span, unit_vector

from helpers import random_graph


def _search_instance(rng):
    q = rng.choice([2, 3])
    n = rng.randint(2, 3)
    m = rng.randint(1, 2)
    g = random_graph(rng, n)
    mn = m * n
    ell = rng.randint(1, 4)
    exp = expand_indices(g, m)
    demands = tuple(tuple(sorted(j - 1 for j in exp.demands[i])) for i in range(n))
    side = tuple(tuple(sorted(s - 1 for s in exp.side_info[i])) for i in range(n))
    cols = tuple(rng.randrange(q**mn) for _ in range(ell))
    return cols, mn, q, demands, side, ell


def _encoder(cols, mn, q, demands, side):
    """Receiver tables over the distinct columns, and the encoder's
    columns as indices into them (repeated columns share an index)."""
    distinct = sorted(set(cols))
    tables = _kernel.receiver_tables(distinct, mn, q, demands, side)
    return tables, tuple(distinct.index(c) for c in cols)


def _decodes(cols, mn, q, demand_rows, side_rows):
    """Every demanded symbol lies in the span of the columns and the
    side-information unit vectors."""
    gens = [tuple(c // q**r % q for r in range(mn)) for c in cols]
    gens += [unit_vector(mn, s) for s in side_rows]
    return all(
        solve_in_span(gens, unit_vector(mn, d), q) is not None for d in demand_rows
    )


def _first_decoding_subset(cols, mn, q, demand_rows, side_rows):
    """First query set in (size, lexicographic) order from which the
    receiver decodes, or None."""
    for size in range(len(cols) + 1):
        for subset in combinations(range(len(cols)), size):
            if _decodes([cols[k] for k in subset], mn, q, demand_rows, side_rows):
                return subset
    return None


def test_min_query_sets_matches_linalg():
    rng = random.Random(57)
    decodable = 0
    for _ in range(250):
        cols, mn, q, demands, side, ell = _search_instance(rng)
        tables, ks = _encoder(cols, mn, q, demands, side)
        firsts = [
            _first_decoding_subset(cols, mn, q, d, s) for d, s in zip(demands, side)
        ]
        for cap in range(1, ell + 1):
            got = _kernel.min_query_sets(tables, ks, q, cap)
            if any(t is None or len(t) > cap for t in firsts):
                assert got is None
            else:
                assert got == tuple(sum(1 << k for k in t) for t in firsts)
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
        exp = expand_indices(g, m)
        demands = tuple(tuple(sorted(j - 1 for j in exp.demands[i])) for i in range(n))
        side = tuple(tuple(sorted(s - 1 for s in exp.side_info[i])) for i in range(n))
        codes = _normalized_column_codes(mn, q)
        tables = _kernel.receiver_tables(codes, mn, q, demands, side)

        @functools.cache
        def all_decode(column_set):
            cols = [codes[k] for k in column_set]
            return all(_decodes(cols, mn, q, d, s) for d, s in zip(demands, side))

        for repeat, tuples in ((True, combinations_with_replacement), (False, combinations)):
            want = [
                ks
                for ks in tuples(range(len(codes)), ell)
                if all_decode(tuple(sorted(set(ks))))
            ]
            got = list(_kernel.decodable_encoders(tables, range(len(codes)), ell, q, repeat))
            assert got == want
            yielded[repeat] += len(got)
        seen[q] += 1
    assert all(seen.values()) and all(count > 100 for count in yielded.values())


def test_min_query_sets_respects_cap():
    rng = random.Random(58)
    for _ in range(80):
        cols, mn, q, demands, side, ell = _search_instance(rng)
        tables, ks = _encoder(cols, mn, q, demands, side)
        cap = rng.randint(1, ell)
        a = _kernel.min_query_sets(tables, ks, q, cap)
        if a is not None:
            assert all(bin(mask).count("1") <= cap for mask in a)


def test_minrank_dfs_witness_rank_matches():
    rng = random.Random(78)
    for _ in range(40):
        n = rng.randint(1, 5)
        q = rng.choice([2, 3])
        g = random_graph(rng, n)
        free = tuple(
            tuple(sorted(j - 1 for j in g.side_info(i))) for i in range(1, n + 1)
        )
        value, cols = _kernel.minrank_dfs(n, q, free)
        columns = []
        for code in cols:
            digits = []
            for _ in range(n):
                digits.append(code % q)
                code //= q
            columns.append(tuple(digits))
        witness = FqMatrix.from_columns(columns, n, q)
        assert rank(witness) == value
