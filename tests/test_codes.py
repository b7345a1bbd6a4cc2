"""Index-code verification, coding round trips, pruning, normalization."""

import random
from fractions import Fraction
from itertools import product

import pytest

from idxloc.codes import (
    DecodingFailure,
    IndexCode,
    UndecodableError,
    code_from_json_dict,
    code_to_json_dict,
    column_space_contained,
    decode_receiver,
    encode,
    fitting_matrix_from_plan,
    locality_profile,
    normalize_unique_columns,
    prune_queries,
    query_partition,
    require_plan,
    verify_decodable,
)
from idxloc.constructions import cycle_scalar_code, uncoded
from idxloc.graphs import directed_cycle, expand_indices, graph_from_side_info
from idxloc.linalg import FqMatrix, null_space_basis, rank

from helpers import (
    malformed_code_docs,
    normalization_contract,
    random_decodable_code,
    random_graph,
)


def cycle4():
    return directed_cycle(4), cycle_scalar_code(4, 2, 1)


def test_verify_cycle_code_witnesses():
    g, code = cycle4()
    plan = require_plan(g, code)
    # Receiver 2 queries columns 1 and 2 with coefficients (1, q-1).
    (entry,) = plan.entries(2)
    assert entry.alpha == (1, 1)  # q = 2, so q-1 = 1
    assert set(s + 1 for s in range(4) if entry.u[s]) <= {3}


def test_verify_cycle_code_witnesses_f3():
    g = directed_cycle(4)
    code = cycle_scalar_code(4, 3, 1)
    plan = require_plan(g, code)
    (entry,) = plan.entries(2)
    assert entry.alpha == (1, 2)


def test_verify_uncoded_all_u_zero():
    g = random_graph(random.Random(0), 4)
    code = uncoded(g, 2)
    plan = require_plan(g, code)
    for i in range(1, 5):
        for entry in plan.entries(i):
            assert not any(entry.u)


def test_verify_failure_report():
    g, code = cycle4()
    broken = IndexCode(
        q=2, m=1, n=4, matrix=code.matrix,
        queries=(frozenset({1}), frozenset({1}), frozenset({2, 3}), frozenset({3})),
    )
    result = verify_decodable(g, broken)
    assert isinstance(result, DecodingFailure)
    assert result.failures == ((2, 2),)


def test_verify_structural_mismatch_raises():
    g = directed_cycle(3)
    code = cycle_scalar_code(4, 2, 1)
    with pytest.raises(ValueError):
        verify_decodable(g, code)


def test_encode_zero_message():
    g, code = cycle4()
    assert encode(code, (0, 0, 0, 0)) == (0, 0, 0)


def test_encode_hand_value():
    _, code = cycle4()
    assert encode(code, (1, 0, 1, 1)) == (1, 0, 0)


def test_encode_uncoded_is_identity():
    g = directed_cycle(3)
    code = uncoded(g, 2)
    x = tuple(random.Random(5).randrange(2) for _ in range(6))
    assert encode(code, x) == x


def test_encode_length_mismatch():
    _, code = cycle4()
    with pytest.raises(ValueError):
        encode(code, (1, 0))


def test_decode_hand_values():
    g, code = cycle4()
    plan = require_plan(g, code)
    x = (1, 0, 1, 1)
    c = encode(code, x)
    # Receiver 3 queries (c_2, c_3) and knows x_4.
    assert decode_receiver(g, code, plan, 3, [c[1], c[2]], [x[3]]) == (1,)
    # Receiver 1 queries c_1 and knows x_2.
    assert decode_receiver(g, code, plan, 1, [c[0]], [x[1]]) == (1,)


def test_decode_wrong_plan_rejected():
    g, code = cycle4()
    plan = require_plan(g, code)
    other = cycle_scalar_code(4, 3, 1)
    with pytest.raises(ValueError):
        decode_receiver(g, other, plan, 1, [0], [0])


def test_decode_rejects_mismatched_inputs():
    g, code = cycle4()
    plan = require_plan(g, code)
    with pytest.raises(ValueError, match="receivers but graph has"):
        decode_receiver(directed_cycle(3), code, plan, 1, [0], [0])
    with pytest.raises(ValueError, match="out of range"):
        decode_receiver(g, code, plan, 5, [0], [0])
    with pytest.raises(ValueError, match="queried symbols"):
        decode_receiver(g, code, plan, 1, [0, 0], [0])
    with pytest.raises(ValueError, match="side-info symbols"):
        decode_receiver(g, code, plan, 1, [0], [0, 0])


def roundtrip_all_messages(g, code, limit=4096, rng_seed=11):
    """Encode-decode identity for every receiver, exhaustively when the
    message space is small and on 1000 random messages otherwise."""
    plan = require_plan(g, code)
    exp = expand_indices(g, code.m)
    mn = code.m * code.n
    if code.q**mn <= limit:
        messages = product(range(code.q), repeat=mn)
    else:
        rng = random.Random(rng_seed)
        messages = (
            tuple(rng.randrange(code.q) for _ in range(mn)) for _ in range(1000)
        )
    for x in messages:
        c = encode(code, x)
        for i in range(1, code.n + 1):
            queried = [c[k - 1] for k in code.query_list(i)]
            side = [x[s - 1] for s in sorted(exp.side_info[i - 1])]
            want = tuple(x[j - 1] for j in sorted(exp.demands[i - 1]))
            assert decode_receiver(g, code, plan, i, queried, side) == want


def test_round_trip_cycle_codes():
    for n in (3, 4, 5):
        for q in (2, 3):
            g = directed_cycle(n)
            roundtrip_all_messages(g, cycle_scalar_code(n, q, 1))


def test_round_trip_random_codes():
    rng = random.Random(42)
    produced = 0
    while produced < 12:
        n = rng.randint(2, 4)
        q = rng.choice([2, 3])
        m = rng.randint(1, 2)
        g = random_graph(rng, n)
        code = random_decodable_code(rng, g, q, m)
        if code is None:
            continue
        roundtrip_all_messages(g, code)
        produced += 1


def test_locality_profile_cycle():
    _, code = cycle4()
    p = locality_profile(code)
    assert p.per_receiver == (1, 2, 2, 1)
    assert p.r == 2
    assert p.r_avg == Fraction(3, 2)
    assert p.beta == 3


def test_locality_profile_cycle5():
    code = cycle_scalar_code(5, 2, 1)
    assert locality_profile(code).r_avg == Fraction(8, 5)


def test_locality_profile_uncoded():
    for n, m in [(3, 1), (4, 2)]:
        g = directed_cycle(n)
        p = locality_profile(uncoded(g, m))
        assert p.r == 1 and p.r_avg == 1 and p.beta == n


def test_query_partition_cycle():
    _, code = cycle4()
    part = query_partition(code)
    assert part.unique_all == frozenset()
    assert part.shared_all == {1, 2, 3}


def test_query_partition_uncoded():
    g = directed_cycle(3)
    part = query_partition(uncoded(g, 1))
    assert part.unique_all == {1, 2, 3}
    assert part.shared_all == frozenset()


def test_query_partition_single_receiver():
    g = graph_from_side_info([set()])
    code = uncoded(g, 2)
    part = query_partition(code)
    assert part.unique[0] == {1, 2}


def test_prune_drops_duplicate_query():
    g = directed_cycle(3)
    # Column 4 duplicates column 1 and only receiver 1 reads either, so
    # the smaller index is dropped from the queries and the now-unread
    # column 1 disappears from the code.
    cols = [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    code = IndexCode(
        q=2, m=1, n=3,
        matrix=FqMatrix.from_columns(cols, 3, 2),
        queries=(frozenset({1, 4}), frozenset({2}), frozenset({3})),
    )
    require_plan(g, code)
    pruned = prune_queries(g, code)
    assert pruned.ell == 3
    assert pruned.queries == (frozenset({3}), frozenset({1}), frozenset({2}))
    assert pruned.matrix.column_list() == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    require_plan(g, pruned)


def test_prune_fixed_point():
    g, code = cycle4()
    assert prune_queries(g, code) == code


def test_prune_removes_unqueried_zero_column():
    g, code = cycle4()
    cols = code.matrix.column_list() + [(0, 0, 0, 0)]
    bigger = IndexCode(
        q=2, m=1, n=4,
        matrix=FqMatrix.from_columns(cols, 4, 2),
        queries=code.queries,
    )
    pruned = prune_queries(g, bigger)
    assert pruned.ell == code.ell
    assert pruned == code


def test_prune_rejects_undecodable():
    g = directed_cycle(3)
    code = IndexCode(
        q=2, m=1, n=3,
        matrix=FqMatrix.from_columns([(1, 0, 0)], 3, 2),
        queries=(frozenset({1}), frozenset({1}), frozenset({1})),
    )
    with pytest.raises(UndecodableError):
        prune_queries(g, code)


def test_normalize_no_unique_columns_unchanged():
    g, code = cycle4()
    assert normalize_unique_columns(g, code) == code


def test_normalize_uncoded_unchanged():
    g = directed_cycle(3)
    code = uncoded(g, 2)
    assert normalize_unique_columns(g, code) == code


def test_normalize_rewrites_unique_column_supports():
    # Each receiver of the 3-cycle reads one private mixed symbol; all
    # three columns must be rewritten onto the owner's demand index.
    g = directed_cycle(3)
    cols = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    code = IndexCode(
        q=2, m=1, n=3,
        matrix=FqMatrix.from_columns(cols, 3, 2),
        queries=(frozenset({1}), frozenset({2}), frozenset({3})),
    )
    before = locality_profile(code)
    normalized = normalize_unique_columns(g, code)
    require_plan(g, normalized)
    assert normalized.ell == code.ell
    assert normalized.queries == code.queries
    assert locality_profile(normalized) == before
    exp = expand_indices(g, 1)
    part = query_partition(normalized)
    for i in range(1, 4):
        for k in sorted(part.unique[i - 1]):
            sup = {t + 1 for t, v in enumerate(normalized.column_vector(k)) if v}
            assert sup <= exp.demands[i - 1]


def test_normalize_contract_on_random_codes():
    rng = random.Random(2024)
    produced = 0
    while produced < 40:
        n = rng.randint(2, 5)
        q = rng.choice([2, 3])
        m = rng.randint(1, 2)
        g = random_graph(rng, n)
        code = random_decodable_code(rng, g, q, m, max_tries=60)
        if code is None:
            continue
        normalization_contract(g, code)
        produced += 1


def test_unique_query_count_bound_on_pruned_codes():
    # After pruning: every query set indexes independent columns, every
    # column is read by someone, no query set grew, and the unique-query
    # count satisfies |unique| >= m(2*beta - n*r_avg).
    rng = random.Random(77)
    produced = 0
    while produced < 30:
        n = rng.randint(2, 4)
        q = rng.choice([2, 3])
        m = rng.randint(1, 2)
        g = random_graph(rng, n)
        code = random_decodable_code(rng, g, q, m, max_tries=60)
        if code is None:
            continue
        pruned = prune_queries(g, code)
        assert pruned.ell <= code.ell
        queried = set()
        for i in range(1, pruned.n + 1):
            r_cols = pruned.query_list(i)
            assert len(r_cols) <= len(code.queries[i - 1])
            queried.update(r_cols)
            if r_cols:
                block = FqMatrix.from_columns(
                    [pruned.column_vector(k) for k in r_cols], m * n, q
                )
                assert rank(block) == len(r_cols)
        assert queried == set(range(1, pruned.ell + 1))
        part = query_partition(pruned)
        profile = locality_profile(pruned)
        bound = pruned.m * (2 * profile.beta - pruned.n * profile.r_avg)
        assert Fraction(len(part.unique_all)) >= bound
        produced += 1


def test_null_support_query_counting_bound():
    # For scalar codes: when a fitting-matrix null vector has support S
    # and the columns effectively used by S are independent, the total
    # number of used queries within S is at least twice the size of
    # their union.  Queried columns with a zero decoding coefficient are
    # dead weight and drop out first, matching the standing assumption
    # that every queried symbol is actually used.
    rng = random.Random(99)
    checked = 0
    produced = 0
    while produced < 40:
        n = rng.randint(2, 4)
        q = rng.choice([2, 3])
        g = random_graph(rng, n)
        code = random_decodable_code(rng, g, q, 1, max_tries=60)
        if code is None:
            continue
        produced += 1
        pruned = prune_queries(g, code)
        plan = require_plan(g, pruned)
        fm = fitting_matrix_from_plan(g, pruned, plan)
        effective = []
        for i in range(1, pruned.n + 1):
            (entry,) = plan.entries(i)
            effective.append(
                [k for k, a in zip(pruned.query_list(i), entry.alpha) if a]
            )
        for z in null_space_basis(fm.matrix):
            s = [t + 1 for t, v in enumerate(z) if v]
            union = sorted(set().union(*(effective[i - 1] for i in s)))
            if not union:
                continue
            cols = FqMatrix.from_columns(
                [pruned.column_vector(k) for k in union], pruned.n, q
            )
            if rank(cols) != len(union):
                continue
            total = sum(len(effective[i - 1]) for i in s)
            assert total >= 2 * len(union)
            checked += 1
    assert checked > 0


def test_fitting_matrix_cycle3():
    g = directed_cycle(3)
    code = cycle_scalar_code(3, 2, 1)
    plan = require_plan(g, code)
    fm = fitting_matrix_from_plan(g, code, plan)
    assert fm.matrix.row_list() == [(1, 0, 1), (1, 1, 0), (0, 1, 1)]
    assert rank(fm.matrix) == 2


def test_fitting_matrix_uncoded_identity():
    g = directed_cycle(3)
    code = uncoded(g, 1)
    plan = require_plan(g, code)
    fm = fitting_matrix_from_plan(g, code, plan)
    assert fm.matrix == FqMatrix.identity(3, 2)


def test_fitting_matrix_requires_scalar():
    g = directed_cycle(3)
    code = uncoded(g, 2)
    plan = require_plan(g, code)
    with pytest.raises(ValueError):
        fitting_matrix_from_plan(g, code, plan)


def test_fitting_matrix_soundness_random():
    rng = random.Random(4)
    produced = 0
    while produced < 25:
        n = rng.randint(2, 4)
        q = rng.choice([2, 3])
        g = random_graph(rng, n)
        code = random_decodable_code(rng, g, q, 1, max_tries=60)
        if code is None:
            continue
        plan = require_plan(g, code)
        fm = fitting_matrix_from_plan(g, code, plan)
        assert fm.fits(g)
        assert column_space_contained(code.matrix, fm.matrix)
        produced += 1


def test_json_round_trip():
    _, code = cycle4()
    doc = code_to_json_dict(code)
    assert doc["ell"] == 3 and doc["M"] == 1 and doc["N"] == 4
    assert code_from_json_dict(doc) == code


def test_json_rejects_bad_shape():
    _, code = cycle4()
    doc = code_to_json_dict(code)
    doc["L"] = doc["L"][:-1]
    with pytest.raises(ValueError):
        code_from_json_dict(doc)


@pytest.mark.parametrize(
    "doc", [pytest.param(doc, id=name) for name, doc in malformed_code_docs()]
)
def test_json_rejects_wrong_types(doc):
    with pytest.raises(ValueError):
        code_from_json_dict(doc)
