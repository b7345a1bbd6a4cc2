"""Min-rank search, closed-form curve, converse checks, Pareto oracles."""

import random
from fractions import Fraction

import pytest

from idxloc import _kernel
from idxloc.bounds import (
    BudgetExceededError,
    converse_checks,
    cycle_tradeoff,
    exhaustive_scalar_search,
    exhaustive_vector_search,
    min_message_length,
    minrank_bruteforce,
    optimal_cycle_locality_for_m,
    pareto_merge,
    scalar_bounds_minrank_deficit,
)
from idxloc.codes import IndexCode, locality_profile, require_plan
from idxloc.constructions import cycle_scalar_code, minrank_deficit_code, uncoded
from idxloc.graphs import directed_cycle, graph_from_side_info
from idxloc.linalg import FqMatrix, rank

from helpers import random_graph


def test_minrank_cycles():
    assert minrank_bruteforce(directed_cycle(3), 2)[0] == 2
    assert minrank_bruteforce(directed_cycle(4), 2)[0] == 3
    assert minrank_bruteforce(directed_cycle(5), 3)[0] == 4


def test_minrank_dag_is_n():
    g = graph_from_side_info([{2}, {3}, set()])
    assert minrank_bruteforce(g, 2)[0] == 3


def test_minrank_full_side_info():
    g = graph_from_side_info([{2, 3, 4}, {1, 3, 4}, {1, 2, 4}, {1, 2, 3}])
    value, witness = minrank_bruteforce(g, 2)
    assert value == 1
    assert rank(witness.matrix) == 1


def test_minrank_witness_fits_and_attains():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 5))
        q = rng.choice([2, 3])
        value, witness = minrank_bruteforce(g, q)
        assert witness.fits(g)
        assert rank(witness.matrix) == value


def test_minrank_budget_error():
    g = directed_cycle(3)
    with pytest.raises(BudgetExceededError):
        minrank_bruteforce(g, 2, budget=1)


def test_cycle_tradeoff_values():
    assert cycle_tradeoff(4, 1) == 4
    assert cycle_tradeoff(4, Fraction(3, 2)) == 3
    assert cycle_tradeoff(4, Fraction(5, 4)) == Fraction(7, 2)
    assert cycle_tradeoff(3, Fraction(4, 3)) == 2
    assert cycle_tradeoff(5, 2) == 4


def test_cycle_tradeoff_rejects_small_locality():
    with pytest.raises(ValueError):
        cycle_tradeoff(4, Fraction(1, 2))


def test_min_message_length():
    assert min_message_length(5) == 5
    assert min_message_length(6) == 3
    assert min_message_length(3) == 3
    assert min_message_length(8) == 4


def test_optimal_cycle_locality_for_m():
    assert optimal_cycle_locality_for_m(5, 2) == 2
    assert optimal_cycle_locality_for_m(5, 3) == Fraction(5, 3)
    assert optimal_cycle_locality_for_m(6, 3) == Fraction(5, 3)
    assert optimal_cycle_locality_for_m(5, 5) == Fraction(8, 5)
    assert optimal_cycle_locality_for_m(5, 7) is None
    assert optimal_cycle_locality_for_m(6, 4) is None


def test_scalar_bounds_minrank_deficit():
    g = graph_from_side_info([{2}, {3}, {1}, set()])
    assert scalar_bounds_minrank_deficit(g, 2) == (2, Fraction(5, 4))
    cyc5 = directed_cycle(5)
    assert scalar_bounds_minrank_deficit(cyc5, 2) == (2, Fraction(8, 5))


def test_scalar_bounds_rejects_two_cycle_and_dag():
    with pytest.raises(ValueError):
        scalar_bounds_minrank_deficit(
            graph_from_side_info([{2}, {1}, set()]), 2
        )
    with pytest.raises(ValueError):
        scalar_bounds_minrank_deficit(graph_from_side_info([{2}, set()]), 2)
    # min-rank 2 on 4 vertices: two vertex-disjoint... use full side info
    g = graph_from_side_info([{2, 3}, {1, 3}, {1, 2}])
    with pytest.raises(ValueError):
        scalar_bounds_minrank_deficit(g, 2)


def test_converse_checks_cycle3_sum_locality_tight():
    g = directed_cycle(3)
    code = cycle_scalar_code(3, 2, 1)
    plan = require_plan(g, code)
    report = converse_checks(g, code, plan)
    assert report.all_ok
    sum_checks = [
        c for c in report.by_name("sum_locality_minrank") if c.status == "ok"
    ]
    assert len(sum_checks) == 1
    check = sum_checks[0]
    assert check.context == "S={1,2,3}"
    assert check.lhs == 4 and check.rhs == 4 and check.slack == 0


def test_converse_checks_cycle4_unique_query_tight():
    g = directed_cycle(4)
    code = cycle_scalar_code(4, 2, 1)
    plan = require_plan(g, code)
    report = converse_checks(g, code, plan)
    assert report.all_ok
    (check,) = report.by_name("single_query_lower_bound")
    assert check.lhs == 0 and check.rhs == 0


@pytest.mark.parametrize("n", [4, 5, 7])
def test_converse_checks_one_whole_graph_minrank(n, monkeypatch):
    # The only null support of a cycle code is every vertex, whose min-rank
    # is the instance's: one whole-graph search serves both.
    import idxloc.bounds

    calls = []

    def counting(h, q, budget=None):
        calls.append(h.n)
        return minrank_bruteforce(h, q, budget)

    monkeypatch.setattr(idxloc.bounds, "minrank_bruteforce", counting)
    g = directed_cycle(n)
    code = cycle_scalar_code(n, 2, 1)
    report = converse_checks(g, code, require_plan(g, code))
    assert report.all_ok
    whole = "S={" + ",".join(str(v) for v in range(1, n + 1)) + "}"
    assert [c.context for c in report.by_name("query_union_minrank")] == [whole]
    assert calls == [n]


def test_converse_checks_uncoded_dag_slack():
    g = graph_from_side_info([{2}, {3}, set()])
    code = uncoded(g, 1)
    plan = require_plan(g, code)
    report = converse_checks(g, code, plan)
    assert report.all_ok
    (check,) = report.by_name("single_query_lower_bound")
    assert check.lhs == 3 and check.rhs == 3


def test_converse_checks_vector_code_limits_to_rate_bound():
    from idxloc.constructions import cycle_vector_code

    g = directed_cycle(4)
    code = cycle_vector_code(4, 2, 2)
    plan = require_plan(g, code)
    report = converse_checks(g, code, plan)
    assert report.all_ok
    assert report.by_name("null_support_family")


def test_converse_checks_say_when_null_supports_are_sampled():
    # One all-ones column on the complete graph K_14 over F_2: the fitting
    # matrix is all ones, so its nullity is 13 and 2^13 exceeds the
    # enumeration limit; the supports come from the 13 basis vectors and
    # their 78 pairwise sums.
    n = 14
    g = graph_from_side_info([set(range(1, n + 1)) - {i} for i in range(1, n + 1)])
    code = IndexCode(
        q=2, m=1, n=n, matrix=FqMatrix.from_columns([(1,) * n], n, 2),
        queries=(frozenset({1}),) * n,
    )
    report = converse_checks(g, code, require_plan(g, code))
    assert report.all_ok
    (check,) = report.by_name("null_support_family")
    assert check.status == "not_applicable"
    assert check.note == "supports sampled from 91 of the 8191 nonzero null vectors"
    # Below the limit the enumeration is exhaustive and says nothing.
    g4 = directed_cycle(4)
    code4 = cycle_scalar_code(4, 2, 1)
    assert not converse_checks(g4, code4, require_plan(g4, code4)).by_name(
        "null_support_family"
    )


def test_search_skips_lengths_below_the_acyclic_set_bound(monkeypatch):
    # ell < m * |S| for an induced acyclic set S proves the frontier empty,
    # so the search returns before enumerating any encoder.
    def refuse(*args):
        raise AssertionError("enumerated a length the acyclic-set bound rules out")

    monkeypatch.setattr(_kernel, "decodable_encoders", refuse)
    certified = graph_from_side_info([{2}, {3}, {1, 4}, {2}])  # acyclic {1, 2, 4}
    assert exhaustive_vector_search(directed_cycle(3), 2, 2, 3) == []
    assert exhaustive_scalar_search(certified, 2, 2) == []
    # At ell = m * (largest acyclic set) the search must run.
    with pytest.raises(AssertionError, match="acyclic-set bound"):
        exhaustive_vector_search(directed_cycle(3), 2, 2, 4)
    with pytest.raises(AssertionError, match="acyclic-set bound"):
        exhaustive_scalar_search(certified, 2, 3)


def test_scalar_search_cycle3_len2():
    pts = exhaustive_scalar_search(directed_cycle(3), 2, 2)
    assert [(p.beta, p.r, p.r_avg) for p in pts] == [(2, 2, Fraction(4, 3))]
    witness = pts[0].witness
    assert locality_profile(witness).r_avg == Fraction(4, 3)


def test_scalar_search_cycle3_len3_contains_uncoded_profile():
    pts = exhaustive_scalar_search(directed_cycle(3), 2, 3)
    assert (3, 1, 1) in [(p.beta, p.r, p.r_avg) for p in pts]


def test_scalar_search_cycle4_len3():
    pts = exhaustive_scalar_search(directed_cycle(4), 2, 3)
    profiles = [(p.r, p.r_avg) for p in pts]
    assert min(r for r, _ in profiles) == 2
    assert min(ra for _, ra in profiles) == Fraction(3, 2)


def test_scalar_search_budget_error():
    with pytest.raises(BudgetExceededError):
        exhaustive_scalar_search(directed_cycle(4), 2, 4, budget=2**10)


@pytest.mark.parametrize("q, ell, encoders", [(2, 3, 84), (3, 2, 91)])
def test_scalar_search_budget_counts_encoders(q, ell, encoders):
    # C(K + ell - 1, ell) multisets of the K = (q^3 - 1)/(q - 1) normalized
    # columns: C(9, 3) = 84 over F_2, C(14, 2) = 91 over F_3.
    g = directed_cycle(3)
    assert exhaustive_scalar_search(g, q, ell, budget=encoders)
    with pytest.raises(BudgetExceededError, match=f"{encoders} encoders"):
        exhaustive_scalar_search(g, q, ell, budget=encoders - 1)


def test_scalar_search_locality_cap_filters():
    pts = exhaustive_scalar_search(directed_cycle(3), 2, 3, locality_cap=1)
    assert [(p.beta, p.r, p.r_avg) for p in pts] == [(3, 1, 1)]


def test_vector_search_m1_matches_scalar():
    g = directed_cycle(3)
    scalar = exhaustive_scalar_search(g, 2, 2)
    vector = exhaustive_vector_search(g, 2, 1, 2)
    assert [p.profile() for p in scalar] == [p.profile() for p in vector]
    assert [p.witness for p in scalar] == [p.witness for p in vector]


def test_vector_search_identity_point():
    g = directed_cycle(3)
    pts = exhaustive_vector_search(g, 2, 1, 3)
    assert (3, 1, 1) in [(p.beta, p.r, p.r_avg) for p in pts]


def test_search_deterministic():
    g = directed_cycle(3)
    first = exhaustive_scalar_search(g, 2, 3)
    second = exhaustive_scalar_search(g, 2, 3)
    assert [(p.profile(), p.witness) for p in first] == [
        (p.profile(), p.witness) for p in second
    ]


def test_search_witnesses_decode():
    g = directed_cycle(4)
    for p in exhaustive_scalar_search(g, 2, 3):
        plan = require_plan(g, p.witness)
        assert locality_profile(p.witness).r == p.r
        assert plan is not None


def test_pareto_merge_removes_dominated():
    g = directed_cycle(3)
    pts = exhaustive_scalar_search(g, 2, 2) + exhaustive_scalar_search(g, 2, 3)
    merged = pareto_merge(pts)
    profiles = [p.profile() for p in merged]
    assert (Fraction(2), Fraction(2), Fraction(4, 3)) in profiles
    assert (Fraction(3), Fraction(1), Fraction(1)) in profiles
    # (3, 2, 4/3) would be dominated by (2, 2, 4/3); ensure nothing
    # dominated survived.
    for a in profiles:
        for b in profiles:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))


def test_pareto_merge_order_independent():
    g = directed_cycle(3)
    pts = exhaustive_scalar_search(g, 2, 2) + exhaustive_scalar_search(g, 2, 3)
    a = pareto_merge(pts)
    b = pareto_merge(list(reversed(pts)))
    assert [(p.profile(), p.witness) for p in a] == [
        (p.profile(), p.witness) for p in b
    ]


def test_sandwich_minrank_vs_search():
    # The shortest decodable scalar length found equals the min-rank.
    rng = random.Random(15)
    tried = 0
    while tried < 8:
        g = random_graph(rng, rng.randint(2, 4))
        q = 2
        value, _ = minrank_bruteforce(g, q)
        shortest = None
        for ell in range(1, g.n + 1):
            pts = exhaustive_scalar_search(g, q, ell)
            if pts:
                shortest = ell
                break
        assert shortest == value
        tried += 1


def test_search_points_respect_cycle_curve():
    for n in (3, 4):
        g = directed_cycle(n)
        pts = []
        for ell in range(1, n + 1):
            pts.extend(exhaustive_scalar_search(g, 2, ell))
        for p in pts:
            assert p.beta >= cycle_tradeoff(n, p.r)


def test_ravg_converse_at_min_rate():
    # Every code found at rate n-1 has average locality at least
    # 2(n-1)/n.
    for n in (3, 4):
        g = directed_cycle(n)
        for p in exhaustive_scalar_search(g, 2, n - 1):
            assert p.r_avg >= Fraction(2 * (n - 1), n)


def test_deficit_optimality_small():
    # Instances on up to 4 vertices with min-rank n-1 and shortest cycle
    # at least 3: the deficit construction meets the exhaustive optimum.
    cases = [
        graph_from_side_info([{2}, {3}, {1}]),
        graph_from_side_info([{2}, {3}, {1}, set()]),
        directed_cycle(4),
    ]
    for g in cases:
        value, _ = minrank_bruteforce(g, 2)
        assert value == g.n - 1
        r_opt, ravg_opt = scalar_bounds_minrank_deficit(g, 2)
        pts = exhaustive_scalar_search(g, 2, g.n - 1)
        assert min(p.r for p in pts) == r_opt
        assert min(p.r_avg for p in pts) == ravg_opt
        built = minrank_deficit_code(g, 2)
        profile = locality_profile(built)
        assert profile.r == r_opt
        assert profile.r_avg == ravg_opt


def test_message_length_limits_cycle3():
    g = directed_cycle(3)
    # m = 1 at rate 2: the best locality is 2, never 4/3.
    for p in exhaustive_scalar_search(g, 2, 2):
        assert p.r >= 2
    # m = 2 at rate 2: the best locality is exactly 3/2.
    pts = [p for p in exhaustive_vector_search(g, 2, 2, 4) if p.beta == 2]
    assert min(p.r for p in pts) == Fraction(3, 2)
    assert all(p.r != Fraction(4, 3) for p in pts)


def test_vector_converse_witness_cycle3():
    # The paper's vector converse: one point, and the witness of the first
    # optimal encoder in nondecreasing column order, which pins both the
    # enumeration order and the tie-breaking of the search.
    pts = exhaustive_vector_search(directed_cycle(3), 2, 2, 4)
    assert [p.profile() for p in pts] == [(2, Fraction(3, 2), Fraction(4, 3))]
    w = pts[0].witness.matrix
    assert [list(w.row(r)) for r in range(w.rows)] == [
        [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0],
        [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1],
    ]
    assert [sorted(r) for r in pts[0].witness.queries] == [[1, 2], [1, 3, 4], [2, 3, 4]]


def test_scalar_constructions_meet_curve():
    # The two scalar endpoints realize the closed form exactly:
    # uncoded at (1, n) and the cycle code at (2, n-1).
    for n in range(3, 8):
        g = directed_cycle(n)
        p_unc = locality_profile(uncoded(g, 1))
        assert p_unc.beta == cycle_tradeoff(n, p_unc.r)
        p_cyc = locality_profile(cycle_scalar_code(n, 2, 1))
        assert p_cyc.beta == cycle_tradeoff(n, p_cyc.r)


def test_search_edgeless_graph_only_uncoded():
    g = graph_from_side_info([set(), set(), set()])
    pts = []
    for ell in range(1, 4):
        pts.extend(exhaustive_scalar_search(g, 2, ell))
    assert [p.profile() for p in pareto_merge(pts)] == [
        (Fraction(3), Fraction(1), Fraction(1))
    ]


def test_vector_search_full_length_contains_identity_point():
    # At code length m*n the identity encoder is in the search space, so
    # the frontier contains the rate-n, locality-1 point.
    g = graph_from_side_info([{2}, {1}])
    pts = exhaustive_vector_search(g, 2, 2, 4)
    assert (Fraction(2), Fraction(1), Fraction(1)) in [p.profile() for p in pts]
