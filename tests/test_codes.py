"""Index-code verification, coding round trips, pruning, normalization."""

import os
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idxloc import codes as codes_module
from idxloc import linalg
from idxloc.bounds import converse_checks, exhaustive_vector_search
from idxloc.cli import main as cli_main
from idxloc.codes import (
    DecodingFailure,
    DecodingPlan,
    FittingMatrix,
    IndexCode,
    PlanEntry,
    UndecodableError,
    code_from_json_dict,
    code_to_json_dict,
    decode_receiver,
    encode,
    fitting_matrix_from_plan,
    locality_profile,
    normalize_unique_columns,
    prune_queries,
    query_partition,
    require_plan,
    save_code,
    verify_decodable,
)
from idxloc.constructions import cycle_scalar_code, cycle_vector_code, uncoded
from idxloc.graphs import (
    directed_cycle,
    graph_from_side_info,
    receiver_rows,
)
from idxloc.linalg import FqMatrix, null_space_basis, rank, unit_vector

from corpus import full_corpus
from helpers import (
    _reference_coordinates,
    _reference_pivots,
    _reference_rref,
    _reference_solve_each,
    format_graph,
    malformed_code_docs,
    normalization_contract,
    oracle_solve_in_span,
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
    # c_1 + c_2 = x_2 + x_3: u holds one coefficient, for x_3.
    assert plan.side[1] == {3}
    assert entry.u == (1,)


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


def _reference_verify(g, code):
    """verify_decodable by its definition, with spans searched by
    enumeration: per receiver, the greedy basis of [queried columns |
    side-info unit vectors] keeps each generator outside the span of the
    ones kept before it, each demand unit vector is solved uniquely in
    that basis, and the coefficients are scattered back with zeros on the
    generators left out.  u negates the side-info coefficients, one per
    side row."""
    mn, q = code.m * code.n, code.q
    failures, receivers = [], []
    for i in range(1, code.n + 1):
        demand_rows, side_rows = receiver_rows(g, code.m, i)
        cols = [code.column_vector(k) for k in code.query_list(i)]
        gens = cols + [unit_vector(mn, s) for s in side_rows]
        basis = []
        for t, gen in enumerate(gens):
            # A basis of all mn coordinates spans every later generator.
            if len(basis) < mn and oracle_solve_in_span(
                [gens[b] for b in basis], gen, q
            ) is None:
                basis.append(t)
        entries = []
        for j in demand_rows:
            sol = oracle_solve_in_span([gens[b] for b in basis], unit_vector(mn, j), q)
            if sol is None:
                failures.append((i, j + 1))
                continue
            coeffs = [0] * len(gens)
            for b, c in zip(basis, sol):
                coeffs[b] = c
            u = tuple((-c) % q for c in coeffs[len(cols):])
            entries.append(
                PlanEntry(demand=j + 1, u=u, alpha=tuple(coeffs[: len(cols)]))
            )
        receivers.append(tuple(entries))
    if failures:
        return DecodingFailure(tuple(failures))
    return DecodingPlan(
        q=q, m=code.m, n=code.n, receivers=tuple(receivers), side=g.side
    )


def _reference_null_space(m):
    reduced, pivots = _reference_rref(m)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        vec = [0] * m.cols
        vec[f] = 1
        for row_idx, pc in enumerate(pivots):
            vec[pc] = (-reduced.entry(row_idx, f)) % m.q
        basis.append(tuple(vec))
    return basis


def _reference_matrices():
    """Seeded matrices over F_2, F_3, F_5 and F_4294967291: random ones
    of every shape up to 5 x 6, 0 rows or 0 columns among them, sparse
    ones, all-zero ones and ones with repeated and scaled columns."""
    rng = random.Random(2718)
    out = []
    for q in (2, 3, 5, 4294967291):
        for rows in range(6):
            for cols in range(7):
                out.append(FqMatrix(rows, cols, q, (0,) * (rows * cols)))
                for density in (0.3, 1.0):
                    for _ in range(3):
                        columns = [
                            tuple(rng.randrange(q) if rng.random() < density else 0
                                  for _ in range(rows))
                            for _ in range(cols)
                        ]
                        out.append(FqMatrix.from_columns(columns, rows, q))
                        if cols >= 2:
                            # Repeat one column, scaled, at a later position.
                            a, b = sorted(rng.sample(range(cols), 2))
                            c = rng.randrange(q)
                            columns[b] = tuple(c * e % q for e in columns[a])
                            out.append(FqMatrix.from_columns(columns, rows, q))
    return out


def test_linalg_matches_row_gauss_jordan_reference():
    rng = random.Random(3141)
    matrices = _reference_matrices()
    assert len(matrices) > 1000
    for m in matrices:
        q = m.q
        gens = m.column_list()
        coords = linalg.span_coordinates(linalg.span_format(gens, q), m.cols, m.rows, q)
        assert coords == _reference_coordinates(m), m
        assert linalg.rank(m) == coords.count(None), m
        assert linalg.null_space_basis(m) == _reference_null_space(m), m
        targets = [tuple(rng.randrange(q) for _ in range(m.rows)) for _ in range(3)]
        coeffs = [rng.randrange(q) for _ in gens]
        targets.append(
            tuple(sum(c * v[t] for c, v in zip(coeffs, gens)) % q for t in range(m.rows))
        )
        targets += gens + [(0,) * m.rows]
        vectors = linalg.span_format(gens + targets, q)
        answers = linalg.span_coordinates(vectors, m.cols, m.rows, q)[m.cols:]
        assert answers == _reference_solve_each(gens, targets, q), m


def _without_one_query(rng, code):
    """The code with one query dropped from a random receiver that has one."""
    i = rng.choice([i for i, r in enumerate(code.queries) if r])
    k = rng.choice(sorted(code.queries[i]))
    queries = tuple(r - {k} if t == i else r for t, r in enumerate(code.queries))
    return IndexCode(q=code.q, m=code.m, n=code.n, matrix=code.matrix, queries=queries)


def _plan_reference_codes():
    """(graph, code) pairs for the plan reference test: seeded random
    decodable codes, each followed by a copy with one query removed."""
    rng = random.Random(1515)
    out = []
    for q, m, max_n in [
        (2, 1, 4), (2, 2, 3), (2, 3, 3), (3, 1, 4), (3, 2, 3), (3, 3, 2),
        (5, 1, 3), (5, 2, 2),
    ]:
        produced = 0
        while produced < 13:
            g = random_graph(rng, rng.randint(2, max_n))
            code = random_decodable_code(rng, g, q, m, max_tries=60)
            if code is None:
                continue
            out += [(g, code), (g, _without_one_query(rng, code))]
            produced += 1
    return out


def test_verify_matches_greedy_basis_reference():
    # Pins every witness and the exact failure list: free coefficients
    # are zero and the kept generators are the greedy basis.
    cases = _plan_reference_codes()
    assert len(cases) >= 200
    failed = 0
    for g, code in cases:
        result = verify_decodable(g, code)
        assert result == _reference_verify(g, code)
        failed += isinstance(result, DecodingFailure)
    assert 20 < failed < len(cases) - 100


def test_verify_runs_one_elimination_per_receiver(monkeypatch):
    # One span_coordinates call per receiver, over its queried columns
    # and side-information units, in both vector formats.
    g = directed_cycle(5)
    codes = [cycle_vector_code(5, q, m) for q in (2, 3) for m in (1, 2, 3)]
    calls = []
    span_coordinates = linalg.span_coordinates

    def counting(vectors, n_gens, n, q):
        calls.append(n_gens)
        return span_coordinates(vectors, n_gens, n, q)

    monkeypatch.setattr(codes_module, "span_coordinates", counting)
    for code in codes:
        dropped = IndexCode(
            q=code.q, m=code.m, n=code.n, matrix=code.matrix,
            queries=(frozenset(),) + code.queries[1:],
        )
        for c in (code, dropped):
            calls.clear()
            result = verify_decodable(g, c)
            assert isinstance(result, DecodingFailure) == (c is dropped)
            assert calls == [
                len(r) + c.m * len(k) for r, k in zip(c.queries, g.side)
            ]


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


def test_column_vector_out_of_range_raises():
    _, code = cycle4()
    assert code.column_vector(code.ell) == code.matrix.column(code.ell - 1)
    for k in (0, code.ell + 1):
        with pytest.raises(IndexError):
            code.column_vector(k)


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


def _decode_all(g, code, plan, x):
    c = encode(code, x)
    return [
        decode_receiver(
            g, code, plan, i,
            [c[k - 1] for k in code.query_list(i)],
            [x[s] for s in receiver_rows(g, code.m, i)[1]],
        )
        for i in range(1, code.n + 1)
    ]


def test_decode_rejects_a_plan_of_another_graph():
    # Same N, but every receiver knows another message than in the
    # directed 4-cycle, so each witness u reads a row g2 does not give.
    g, code = cycle4()
    plan = require_plan(g, code)
    g2 = graph_from_side_info([{3}, {4}, {1}, {2}])
    x = (1, 0, 1, 1)
    c = encode(code, x)
    for i in range(1, 5):
        queried = [c[k - 1] for k in code.query_list(i)]
        side = [x[s] for s in receiver_rows(g2, 1, i)[1]]
        with pytest.raises(ValueError, match="plan does not belong to this graph"):
            decode_receiver(g2, code, plan, i, queried, side)


def test_decode_rejects_a_plan_of_another_code():
    # Anchor 2 gives receivers 2 and 4 other query counts than anchor 1.
    g, code = cycle4()
    plan = require_plan(g, code)
    other = cycle_scalar_code(4, 2, 2)
    x = (0, 0, 0, 1)
    c = encode(other, x)
    for i in (2, 4):
        queried = [c[k - 1] for k in other.query_list(i)]
        side = [x[s] for s in receiver_rows(g, 1, i)[1]]
        with pytest.raises(ValueError, match="plan does not belong to this code"):
            decode_receiver(g, other, plan, i, queried, side)


def test_decode_rejects_a_plan_of_a_graph_with_more_side_information():
    # K_2 grows from {3} to {1, 3}: u of receiver 2 still reads only x_3,
    # which g2 gives, but the plan was verified on another K_2.
    g, code = cycle4()
    plan = require_plan(g, code)
    g2 = graph_from_side_info([{2}, {1, 3}, {4}, {1}])
    (entry,) = plan.entries(2)
    # u's one coefficient is for row 2, x_3, which g2 also gives.
    assert receiver_rows(g, 1, 2)[1] == (2,) and len(entry.u) == 1
    assert 2 in receiver_rows(g2, 1, 2)[1]
    x = (1, 0, 1, 1)
    c = encode(code, x)
    side = [x[s] for s in receiver_rows(g2, 1, 2)[1]]
    with pytest.raises(ValueError, match="plan does not belong to this graph"):
        decode_receiver(g2, code, plan, 2, [c[k - 1] for k in code.query_list(2)], side)
    # The receivers whose K_i is unchanged still decode.
    for i in (1, 3, 4):
        queried = [c[k - 1] for k in code.query_list(i)]
        known = [x[s] for s in receiver_rows(g2, 1, i)[1]]
        assert decode_receiver(g2, code, plan, i, queried, known) == (x[i - 1],)


def test_plan_shape_is_validated():
    g, code = cycle4()
    plan = require_plan(g, code)
    for side in (g.side[:3], g.side + (frozenset(),)):
        with pytest.raises(ValueError, match="one side-information set per receiver"):
            DecodingPlan(q=2, m=1, n=4, receivers=plan.receivers, side=side)
    with pytest.raises(ValueError, match="m and n must be positive"):
        DecodingPlan(q=2, m=0, n=4, receivers=plan.receivers, side=g.side)
    # A plan with a receiver missing once decoded receivers 1-3 and
    # raised IndexError at 4.
    for receivers in (plan.receivers[:3], plan.receivers + ((),)):
        with pytest.raises(
            ValueError, match="^one tuple of entries per receiver required$"
        ):
            DecodingPlan(q=2, m=1, n=4, receivers=receivers, side=g.side)


@pytest.mark.parametrize("call, message", [
    (lambda: IndexCode(q=2, m=1, n=2, matrix=FqMatrix.identity(2, 3),
                       queries=(frozenset({1}), frozenset({2}))),
     "matrix field does not match code field"),
    (lambda: IndexCode(q=2, m=1, n=2, matrix=FqMatrix.identity(3, 2),
                       queries=(frozenset({1}), frozenset({2}))),
     "encoder must have m*n rows"),
    (lambda: FittingMatrix(FqMatrix(2, 3, 2, (1, 0, 0, 0, 1, 0))),
     "fitting matrix must be square"),
    (lambda: FittingMatrix(FqMatrix(2, 2, 2, (1, 0, 0, 0))),
     "fitting matrix needs a unit diagonal"),
    # A plan over F_2 for a code over F_3 on the same 3-cycle.
    (lambda: fitting_matrix_from_plan(
        directed_cycle(3), cycle_scalar_code(3, 3),
        require_plan(directed_cycle(3), cycle_scalar_code(3, 2)),
    ), "plan does not belong to this code"),
], ids=["matrix-field", "encoder-rows", "fitting-square", "fitting-diagonal",
        "plan-field"])
def test_codes_refuse_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_plan_construction_refuses_malformed_entries():
    g, code = cycle4()
    plan = require_plan(g, code)
    r = plan.receivers
    # Receivers 2 and 3 both read two columns; with their entries swapped
    # the alpha lengths fit but the demands do not.
    with pytest.raises(
        ValueError, match="^receiver 2 must demand its own symbols in ascending order$"
    ):
        DecodingPlan(q=2, m=1, n=4, receivers=(r[0], r[2], r[1], r[3]), side=g.side)
    g3, vector = directed_cycle(3), cycle_vector_code(3, 2, 2)
    plan3 = require_plan(g3, vector)
    first, second = plan3.entries(1)
    rest = plan3.receivers[1:]
    for entries in ((second, first), (first,), (first, second, second)):
        with pytest.raises(
            ValueError,
            match="^receiver 1 must demand its own symbols in ascending order$",
        ):
            DecodingPlan(q=2, m=2, n=3, receivers=(entries, *rest), side=g3.side)
    # At m = 2, one entry with an alpha coefficient too few.
    cut = PlanEntry(demand=second.demand, u=second.u, alpha=second.alpha[:2])
    with pytest.raises(
        ValueError, match="^receiver 1 entries hold unequal alpha lengths$"
    ):
        DecodingPlan(q=2, m=2, n=3, receivers=((first, cut), *rest), side=g3.side)
    # K_1 = {2} gives receiver 1 two side rows at m = 2.
    for u in (second.u[:1], second.u + (0,)):
        wrong = PlanEntry(demand=second.demand, u=u, alpha=second.alpha)
        with pytest.raises(
            ValueError, match="^receiver 1 entries need 2 u coefficients$"
        ):
            DecodingPlan(
                q=2, m=2, n=3, receivers=((first, wrong), *rest), side=g3.side
            )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_plan_entries_are_functionals_on_queries_and_side_rows(q, m, seed):
    # sum_k alpha_k L_k == e_j + sum_t u_t e_{s_t}, with s_t the t-th side
    # row of the receiver in receiver_rows order.
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 3))
    code = random_decodable_code(rng, g, q, m)
    assume(code is not None)
    plan = require_plan(g, code)
    mn = m * g.n
    for i in range(1, g.n + 1):
        demand_rows, side_rows = receiver_rows(g, m, i)
        cols = [code.column_vector(k) for k in code.query_list(i)]
        assert [e.demand for e in plan.entries(i)] == [j + 1 for j in demand_rows]
        for j, entry in zip(demand_rows, plan.entries(i)):
            assert len(entry.alpha) == len(cols)
            assert len(entry.u) == len(side_rows)
            lhs = [0] * mn
            for a, col in zip(entry.alpha, cols):
                lhs = [(x + a * y) % q for x, y in zip(lhs, col)]
            rhs = list(unit_vector(mn, j))
            for s, c in zip(side_rows, entry.u):
                rhs[s] = (rhs[s] + c) % q
            assert lhs == rhs


@st.composite
def _codes_and_messages(draw):
    """A code over F_2, F_3 or F_5 with m in 1..3, possibly no columns or
    some all-zero ones, and a message whose symbols may be negative or
    at least q."""
    q = draw(st.sampled_from((2, 3, 5)))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    ell = draw(st.integers(0, 5))
    mn = m * n
    digits = st.lists(st.integers(0, q - 1), min_size=mn, max_size=mn)
    zero = draw(st.sets(st.integers(0, max(ell - 1, 0))))
    columns = [(0,) * mn if k in zero else tuple(draw(digits)) for k in range(ell)]
    queries = tuple(
        frozenset(draw(st.sets(st.integers(1, ell)))) if ell else frozenset()
        for _ in range(n)
    )
    code = IndexCode(
        q=q, m=m, n=n, matrix=FqMatrix.from_columns(columns, mn, q), queries=queries
    )
    x = draw(st.lists(st.integers(-3 * q, 3 * q), min_size=mn, max_size=mn))
    return code, x


@settings(max_examples=150, deadline=None)
@given(_codes_and_messages())
def test_encode_matches_vector_matrix(case):
    code, x = case
    c = encode(code, x)
    assert c == linalg.vector_matrix(x, code.matrix)
    assert c == encode(code, [v % code.q for v in x])
    assert len(c) == code.ell


@pytest.mark.parametrize(
    "q, mn", [(3, 63), (3, 64), (5, 16), (257, 3), (65537, 2), (4294967291, 2)]
)
def test_encode_fields_wider_than_a_byte(q, mn):
    """Fields of one and of several bytes, entries of one to four bytes,
    and the largest sums a field must hold without a carry."""
    rng = random.Random(q * 100 + mn)
    ell = 4
    columns = [(q - 1,) * mn] + [
        tuple(rng.randrange(q) for _ in range(mn)) for _ in range(ell - 1)
    ]
    code = IndexCode(
        q=q, m=1, n=mn, matrix=FqMatrix.from_columns(columns, mn, q),
        queries=(frozenset(),) * mn,
    )
    for x in ([q - 1] * mn, [-1] * mn, [rng.randrange(-q, 2 * q) for _ in range(mn)]):
        assert encode(code, x) == linalg.vector_matrix(x, code.matrix)


def _star_code(q, n):
    """Receiver 1 knows every other message and reads column 1,
    (q-1) * (x_1 + ... + x_n); receiver j > 1 knows nothing and reads
    column j, (q-1) * x_j.  With the hand-built plan, receiver 1 reads
    x_1 = (q-1)^-1 * c_1 - sum of the others, so alpha = (q-1)^-1 = q-1
    and every u is 1: every packed entry is q-1, and only receiver 1
    sums n terms."""
    g = graph_from_side_info([set(range(2, n + 1))] + [set()] * (n - 1))
    columns = [(q - 1,) * n] + [
        tuple(q - 1 if r == j else 0 for r in range(n)) for j in range(1, n)
    ]
    code = IndexCode(
        q=q, m=1, n=n, matrix=FqMatrix.from_columns(columns, n, q),
        queries=tuple(frozenset({i}) for i in range(1, n + 1)),
    )
    plan = DecodingPlan(
        q=q, m=1, n=n, side=g.side,
        receivers=((PlanEntry(demand=1, u=(1,) * (n - 1), alpha=(q - 1,)),),)
        + tuple(
            (PlanEntry(demand=i, u=(), alpha=(q - 1,)),) for i in range(2, n + 1)
        ),
    )
    return g, code, plan


def _reference_decode(plan, i, queried, side_values):
    """(sum alpha_k c_k - sum u_t x_t) mod q, two dot products per symbol."""
    return tuple(
        (
            sum(a * c for a, c in zip(e.alpha, queried))
            - sum(u * x for u, x in zip(e.u, side_values))
        ) % plan.q
        for e in plan.entries(i)
    )


@pytest.mark.parametrize(
    "q, n, width",
    [(3, 63, 1), (3, 64, 2), (5, 16, 2), (257, 2, 3), (65537, 2, 5),
     (4294967291, 2, 9)],
)
def test_decode_fields_wider_than_a_byte(q, n, width):
    """Decoding fields of one to nine bytes, where receiver 1 sums the
    largest terms its fields must hold without a carry, n products of
    q-1 by q-1, and the other receivers one each."""
    g, code, plan = _star_code(q, n)
    rng = random.Random(q * 100 + n)
    top = [q - 1] * (n - 1)
    assert decode_receiver(g, code, plan, 1, [q - 1], top) == (
        _reference_decode(plan, 1, [q - 1], top)
    )
    assert plan._packed[0] == width
    for x in ([q - 1] * n, [-1] * n, [rng.randrange(-q, 2 * q) for _ in range(n)]):
        c = encode(code, x)
        for i in range(1, n + 1):
            side = [x[s] for s in receiver_rows(g, 1, i)[1]]
            queried = [c[i - 1] + q * rng.randint(-2, 2)]
            assert decode_receiver(g, code, plan, i, queried, side) == (x[i - 1] % q,)


def test_decode_matches_two_dot_products_on_the_corpus():
    rng = random.Random(7)
    for g, code in full_corpus():
        plan = require_plan(g, code)
        q, mn = code.q, code.m * code.n
        for _ in range(4):
            x = [rng.randrange(-2 * q, 3 * q) for _ in range(mn)]
            c = encode(code, x)
            for i in range(1, code.n + 1):
                demand_rows, side_rows = receiver_rows(g, code.m, i)
                queried = [
                    c[k - 1] + q * rng.randint(-3, 3) for k in code.query_list(i)
                ]
                side = [x[s] for s in side_rows]
                got = decode_receiver(g, code, plan, i, queried, side)
                assert got == _reference_decode(plan, i, queried, side)
                assert got == tuple(x[j] % q for j in demand_rows)


def test_plan_coefficients_outside_the_field_decode_like_their_reduced_twin():
    rng = random.Random(5)
    for g, code in (cycle4(), (directed_cycle(5), cycle_vector_code(5, 3, 5))):
        plan = require_plan(g, code)
        q = plan.q
        shifted = DecodingPlan(
            q=q, m=plan.m, n=plan.n, side=plan.side,
            receivers=tuple(
                tuple(
                    PlanEntry(
                        demand=e.demand,
                        u=tuple(v + q * rng.randint(-3, 3) for v in e.u),
                        alpha=tuple(a + q * rng.randint(-3, 3) for a in e.alpha),
                    )
                    for e in entries
                )
                for entries in plan.receivers
            ),
        )
        assert shifted != plan
        for _ in range(5):
            x = [rng.randrange(-q, 2 * q) for _ in range(code.m * code.n)]
            assert _decode_all(g, code, shifted, x) == _decode_all(g, code, plan, x)


def _fresh_copy(code):
    return IndexCode(
        q=code.q, m=code.m, n=code.n,
        matrix=FqMatrix.from_rows(code.matrix.row_list(), code.q),
        queries=code.queries,
    )


def test_compiled_columns_leave_equality_hash_and_repr():
    # The packed forms are cached on first use; a packed code or plan
    # equals, hashes and prints like a twin that packed nothing.
    for g, corpus_code in full_corpus()[::7]:
        code = _fresh_copy(corpus_code)
        plan = require_plan(g, code)
        assert "_packed" not in vars(code) and "_packed" not in vars(plan)
        _decode_all(g, code, plan, [0] * (code.m * code.n))
        assert "_packed" in vars(code) and "_packed" in vars(plan)
        twin_plan = DecodingPlan(
            q=plan.q, m=plan.m, n=plan.n, receivers=plan.receivers, side=plan.side
        )
        for packed, twin in ((code, _fresh_copy(code)), (plan, twin_plan)):
            assert "_packed" not in vars(twin)
            assert packed == twin and hash(packed) == hash(twin)
            assert repr(packed) == repr(twin) and "_packed" not in repr(packed)
        assert repr(code) == (
            f"IndexCode(q={code.q!r}, m={code.m!r}, n={code.n!r}, "
            f"matrix={code.matrix!r}, queries={code.queries!r})"
        )


def test_only_encoding_and_decoding_pack(monkeypatch, tmp_path):
    calls = []

    def counting_pack(rows, width):
        calls.append(width)
        return pack(rows, width)

    pack = codes_module._pack
    monkeypatch.setattr(codes_module, "_pack", counting_pack)
    g, code = cycle4()
    graph_path, code_path = tmp_path / "cycle4.txt", tmp_path / "code.json"
    graph_path.write_text(format_graph(g), encoding="utf-8")
    save_code(code, code_path)
    argv = ["verify", "--graph", str(graph_path), "--code", str(code_path)]
    assert cli_main(argv) == 0
    assert exhaustive_vector_search(directed_cycle(3), 2, 1, 2)
    assert calls == []
    code = cycle_vector_code(5, 3, 5)
    g = directed_cycle(5)
    plan = require_plan(g, code)
    assert calls == []
    for x in ([1] * 25, [2] * 25, list(range(25))):
        encode(code, x)
    assert len(calls) == 1
    for x in ([1] * 25, [2] * 25, list(range(25))):
        _decode_all(g, code, plan, x)
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_compiled_round_trip(q, m, seed, data):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 3))
    code = random_decodable_code(rng, g, q, m)
    assume(code is not None)
    plan = require_plan(g, code)
    mn = m * g.n
    x = data.draw(st.lists(st.integers(-2 * q, 3 * q), min_size=mn, max_size=mn))
    want = [
        tuple(x[j] % q for j in receiver_rows(g, m, i)[0]) for i in range(1, g.n + 1)
    ]
    assert _decode_all(g, code, plan, x) == want
    rebuilt = DecodingPlan(
        q=plan.q, m=plan.m, n=plan.n, side=plan.side,
        receivers=tuple(
            tuple(PlanEntry(demand=e.demand, u=e.u, alpha=e.alpha) for e in entries)
            for entries in plan.receivers
        ),
    )
    assert _decode_all(g, code, rebuilt, x) == want
    assert rebuilt == plan and hash(rebuilt) == hash(plan)
    assert repr(rebuilt) == repr(plan) == (
        f"DecodingPlan(q={plan.q!r}, m={plan.m!r}, n={plan.n!r}, "
        f"receivers={plan.receivers!r}, side={plan.side!r})"
    )


def roundtrip_all_messages(g, code, limit=4096, rng_seed=11):
    """Encode-decode identity for every receiver, exhaustively when the
    message space is small and on 1000 random messages otherwise."""
    plan = require_plan(g, code)
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
            demand_rows, side_rows = receiver_rows(g, code.m, i)
            side = [x[s] for s in side_rows]
            want = tuple(x[j] for j in demand_rows)
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


def test_locality_profile_matches_the_fraction_sums():
    for g, code in full_corpus():
        per = tuple(Fraction(len(r), code.m) for r in code.queries)
        profile = locality_profile(code)
        assert profile.per_receiver == per
        assert profile.r == max(per)
        assert profile.r_avg == sum(per, Fraction(0)) / code.n
        assert profile.beta == Fraction(code.ell, code.m)


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


def test_prune_keeps_the_later_columns_of_a_dependency():
    # Receiver 1 reads a, b and c = a + b; each is in the span of the
    # other two, and the one pass drops a, the first, so b and c stay.
    g = graph_from_side_info([set(), set()])
    code = IndexCode(
        q=2, m=1, n=2,
        matrix=FqMatrix.from_columns([(1, 0), (0, 1), (1, 1)], 2, 2),
        queries=(frozenset({1, 2, 3}), frozenset({2})),
    )
    pruned = prune_queries(g, code)
    assert pruned.queries == (frozenset({1, 2}), frozenset({1}))
    assert pruned.matrix.column_list() == [(0, 1), (1, 1)]


def _keeping(code, kept):
    """The code with query sets kept, its unqueried columns deleted and
    the rest renumbered."""
    used = sorted(set().union(*kept))
    renumber = {old: new for new, old in enumerate(used, start=1)}
    return IndexCode(
        q=code.q, m=code.m, n=code.n,
        matrix=FqMatrix.from_columns(
            [code.column_vector(k) for k in used], code.m * code.n, code.q
        ),
        queries=tuple(frozenset(renumber[k] for k in r) for r in kept),
    )


def _one_pass_prune(code):
    """prune_queries by its docstring: one ascending pass per receiver
    dropping each column in the span of its other remaining columns."""
    kept = []
    for r in code.queries:
        current = set(r)
        for k in sorted(r):
            others = [code.column_vector(t) for t in sorted(current - {k})]
            if oracle_solve_in_span(others, code.column_vector(k), code.q) is not None:
                current.remove(k)
        kept.append(frozenset(current))
    return _keeping(code, kept)


def _pivot_prune(code):
    """prune_queries by its docstring's last paragraph: each query set
    keeps the pivots of its columns in descending index order, found by
    the row reference."""
    kept = []
    for r in code.queries:
        desc = sorted(r, reverse=True)
        pivots = _reference_pivots([code.column_vector(k) for k in desc], code.q)
        kept.append(frozenset(desc[p] for p in pivots))
    return _keeping(code, kept)


def _normalized_by(g, code, extend):
    """The code with each receiver's unique columns, in ascending order,
    replaced by extend(generators, demand unit vectors) and then zero
    columns, where the generators are its shared queried columns and
    side-info unit vectors."""
    mn, q = code.m * code.n, code.q
    part = query_partition(code)
    cols = code.matrix.column_list()
    for i in range(1, code.n + 1):
        demand_rows, side_rows = receiver_rows(g, code.m, i)
        gens = [code.column_vector(k) for k in sorted(part.shared[i - 1])]
        gens += [unit_vector(mn, t) for t in side_rows]
        extension = extend(gens, [unit_vector(mn, t) for t in demand_rows], q)
        for pos, k in enumerate(sorted(part.unique[i - 1])):
            cols[k - 1] = extension[pos] if pos < len(extension) else (0,) * mn
    return IndexCode(
        q=q, m=code.m, n=code.n,
        matrix=FqMatrix.from_columns(cols, mn, q), queries=code.queries,
    )


def _one_pass_normalize(g, code):
    """normalize_unique_columns by its docstring: per receiver, each
    demand unit vector in ascending order joins the extension unless it
    lies in the span of the shared columns, the side-info unit vectors
    and the extension so far."""

    def extend(current, units, q):
        extension = []
        for e in units:
            if oracle_solve_in_span(current + extension, e, q) is None:
                extension.append(e)
        return extension

    return _normalized_by(g, code, extend)


def _pivot_normalize(g, code):
    """normalize_unique_columns by its docstring's last sentence: the
    extension is the demand unit vectors that are pivots of [shared
    queried columns | side-info unit vectors | demand unit vectors],
    found by the row reference."""

    def extend(gens, units, q):
        pivots = _reference_pivots(gens + units, q)
        return [units[p - len(gens)] for p in pivots if p >= len(gens)]

    return _normalized_by(g, code, extend)


def _with_dependent_column(rng, code):
    """The code with one more column, a random combination of the others,
    at a random position and read by a random half of the receivers, so
    that query sets hold dependencies like c = a + b."""
    mn, q = code.m * code.n, code.q
    cols = code.matrix.column_list()
    coeffs = [rng.randrange(q) for _ in cols]
    new = tuple(sum(c * col[t] for c, col in zip(coeffs, cols)) % q for t in range(mn))
    pos = rng.randint(1, len(cols) + 1)
    cols.insert(pos - 1, new)
    queries = tuple(
        frozenset([k + (k >= pos) for k in r] + [pos] * (rng.random() < 0.5))
        for r in code.queries
    )
    return IndexCode(
        q=q, m=code.m, n=code.n,
        matrix=FqMatrix.from_columns(cols, mn, q), queries=queries,
    )


def test_prune_and_normalize_match_their_one_pass_definitions():
    # Pins the exact output, including which column of a dependency
    # survives, on random decodable codes with and without an added
    # dependent column; the reference spans are searched by enumeration,
    # not elimination.
    rng = random.Random(1414)
    pruned_some = rewritten = 0
    for q, m, max_n in [(2, 1, 4), (2, 2, 3), (3, 1, 4), (3, 2, 2), (5, 1, 3), (5, 2, 2)]:
        produced = 0
        while produced < 12:
            g = random_graph(rng, rng.randint(2, max_n))
            code = random_decodable_code(rng, g, q, m, max_tries=60)
            if code is None:
                continue
            for c in (code, _with_dependent_column(rng, code)):
                pruned = prune_queries(g, c)
                assert pruned == _one_pass_prune(c)
                normalized = normalize_unique_columns(g, c)
                assert normalized == _one_pass_normalize(g, c)
                pruned_some += pruned.queries != c.queries
                rewritten += normalized != c
            produced += 1
    assert pruned_some > 50 and rewritten > 50


def _wide_field_codes():
    """Seeded decodable codes over F_5, F_7 and F_4294967291 at m = 1 and
    2, each followed by a copy with a dependent column added."""
    rng = random.Random(1616)
    out = []
    for q in (5, 7, 4294967291):
        for m, max_n in ((1, 4), (2, 3)):
            produced = 0
            while produced < 10:
                g = random_graph(rng, rng.randint(2, max_n))
                code = random_decodable_code(rng, g, q, m, max_tries=60)
                if code is None:
                    continue
                out += [(g, code), (g, _with_dependent_column(rng, code))]
                produced += 1
    return out


def _pruned_and_normalized_as_pivots_say(g, code):
    """Whether prune_queries changes the query sets and whether
    normalize_unique_columns changes the code, after checking both
    against the row reference's pivots."""
    pruned = prune_queries(g, code)
    assert pruned == _pivot_prune(code)
    normalized = normalize_unique_columns(g, code)
    assert normalized == _pivot_normalize(g, code)
    return pruned.queries != code.queries, normalized != code


def test_prune_and_normalize_match_the_row_reference():
    # The corpus holds F_2 and F_3 codes only; the wide-field codes reach
    # the digit-tuple reduction at a modulus of several bytes.
    for g, code in full_corpus():
        _pruned_and_normalized_as_pivots_say(g, code)
    changed = [_pruned_and_normalized_as_pivots_say(g, c) for g, c in _wide_field_codes()]
    assert sum(p for p, _ in changed) > 40 and sum(r for _, r in changed) > 40


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
    part = query_partition(normalized)
    for i in range(1, 4):
        demand_rows = receiver_rows(g, 1, i)[0]
        for k in sorted(part.unique[i - 1]):
            sup = {t for t, v in enumerate(normalized.column_vector(k)) if v}
            assert sup <= set(demand_rows)


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


def test_fits_refuses_an_entry_outside_the_pattern():
    # Receiver 1 knows message 2, receiver 2 knows nothing: the entry at
    # (row 2, column 1) fits, its transpose at (row 1, column 2) does not.
    g = graph_from_side_info([{2}, set()])
    assert FittingMatrix(FqMatrix.from_rows([[1, 0], [1, 1]], 3)).fits(g)
    assert not FittingMatrix(FqMatrix.from_rows([[1, 2], [0, 1]], 3)).fits(g)


def test_fits_refuses_a_matrix_of_the_wrong_size():
    g = graph_from_side_info([{2}, set()])
    assert not FittingMatrix(FqMatrix.identity(3, 2)).fits(g)
    assert not FittingMatrix(FqMatrix.identity(1, 2)).fits(g)


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
        # Budget 1 leaves the min-rank checks aside; the column-space
        # check does not depend on it.
        report = converse_checks(g, code, plan, budget=1)
        (check,) = report.by_name("fitting_column_space")
        assert (check.status, check.lhs, check.rhs) == ("ok", 0, 0)
        produced += 1


def _text_mode_outcome(action, path, *args):
    """What action(path, *args) returns, or the type and text of the
    Unicode error it raises."""
    try:
        return action(path, *args)
    except UnicodeError as exc:
        return type(exc), str(exc)


_LINE_END_BYTES = st.lists(
    st.sampled_from([b"\r", b"\n", b"\r\n", b"a", b"\xc3\xa9", b"\xe9", b"\xff"]),
    max_size=12,
).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=24) | _LINE_END_BYTES)
def test_read_text_reads_as_text_mode_does(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("read") / "f"
    path.write_bytes(data)
    assert _text_mode_outcome(codes_module._read_text, path) == _text_mode_outcome(
        Path.read_text, path, "utf-8"
    )


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=24) | st.text("\r\na\xe9\ud800", max_size=12))
def test_write_text_writes_as_text_mode_does(tmp_path_factory, text):
    # Each file first holds longer bytes, so a write that does not
    # truncate leaves a tail; a lone surrogate fails after the truncation.
    def pathlib_write(path, text):
        path.write_text(text, encoding="utf-8")

    written = []
    for action in (codes_module._write_text, pathlib_write):
        path = tmp_path_factory.mktemp("write") / "f"
        path.write_bytes(b"x" * 100)
        written.append((_text_mode_outcome(action, path, text), path.read_bytes()))
    assert written[0] == written[1]


def test_write_text_writes_every_byte_of_short_writes(tmp_path, monkeypatch):
    # os.write may write fewer bytes than it is given: here at most 7.
    real_write = os.write
    path = tmp_path / "f"
    path.write_bytes(b"x" * 500)
    text = "".join(f"{k}: caf\xe9 \u2192 {k + 1}\n" for k in range(20))
    with monkeypatch.context() as patch:
        patch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        codes_module._write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")


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
    "doc, message",
    [pytest.param(doc, message, id=name) for name, doc, message in malformed_code_docs()],
)
def test_json_rejects_wrong_types(doc, message):
    with pytest.raises(ValueError) as exc:
        code_from_json_dict(doc)
    assert str(exc.value) == message
