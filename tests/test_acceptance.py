"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  All numeric comparisons are exact (integers and
Fractions); the stated runtime ceilings are asserted as well.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from idxloc.bounds import (
    converse_checks,
    cycle_tradeoff,
    min_message_length,
    scalar_bounds_minrank_deficit,
)
from idxloc.codes import (
    decode_receiver,
    encode,
    locality_profile,
    require_plan,
)
from idxloc.constructions import uncoded
from idxloc.graphs import directed_cycle, receiver_rows

from corpus import (
    cycle_scalar_corpus,
    deficit_corpus,
    deficit_instances,
    full_corpus,
    random_code_corpus,
    scalar_search_points,
    tradeoff_corpus,
    vector_search_points_cycle3_m2,
)
from helpers import normalization_contract


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number}: FAIL ({elapsed:.2f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS ({elapsed:.2f}s) {description}")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its {budget_seconds}s budget "
            f"({elapsed:.2f}s)"
        )


def test_criterion_1_cycle_scalar_codes():
    with criterion(1, "scalar cycle codes: localities (1,2,...,2,1)", 1.0):
        seen = 0
        for g, code in cycle_scalar_corpus():
            n = g.n
            require_plan(g, code)
            p = locality_profile(code)
            expected = (Fraction(1),) + (Fraction(2),) * (n - 2) + (Fraction(1),)
            assert p.per_receiver == expected
            assert p.r == 2
            assert p.r_avg == Fraction(2 * (n - 1), n)
            seen += 1
        assert seen == 7 * 2  # n in 3..9, q in {2, 3}


def test_criterion_2_tradeoff_achievability():
    with criterion(2, "achievable points land on the rate-locality curve", 5.0):
        for n in range(3, 10):
            g = directed_cycle(n)
            p_uncoded = locality_profile(uncoded(g, 1))
            assert (p_uncoded.r, p_uncoded.beta) == (1, n)
        for g, code in tradeoff_corpus():
            n = g.n
            p = locality_profile(code)
            if code.m == min_message_length(n) and code.ell == (n - 1) * code.m:
                assert (p.r, p.beta) == (Fraction(2 * (n - 1), n), n - 1)
            # Every corpus code sits exactly on the curve segment
            # beta = n(n-1-r)/(n-2) or at its flat part beta = n-1.
            assert p.beta == cycle_tradeoff(n, p.r)


def test_criterion_3_tradeoff_converse_desk_scale():
    with criterion(3, "exhaustive searches confirm the converse", 120.0):
        for n in (3, 4):
            points = scalar_search_points(n)
            assert points, "searches must find codes"
            for p in points:
                assert p.beta >= cycle_tradeoff(n, p.r)
            for r_cap in (1, 2):
                feasible = [p.beta for p in points if p.r <= r_cap]
                assert min(feasible) == cycle_tradeoff(n, Fraction(r_cap))
        vec_points = vector_search_points_cycle3_m2()
        at_min_rate = [p for p in vec_points if p.beta == 2]
        assert at_min_rate
        best_r = min(p.r for p in at_min_rate)
        assert best_r == Fraction(3, 2)  # = 2 - 1/m at m = 2
        assert all(p.r != Fraction(4, 3) for p in at_min_rate)


def test_criterion_4_deficit_one_optimum():
    with criterion(4, "scalar optimum for min-rank-deficit-one instances", 120.0):
        instances = deficit_instances()
        assert len(instances) >= 20
        studied = instances[:24]
        for (g, n_c), (_, code) in zip(studied, deficit_corpus()):
            assert n_c >= 3
            r_opt, ravg_opt = scalar_bounds_minrank_deficit(g, 2)
            assert (r_opt, ravg_opt) == (2, Fraction(g.n + n_c - 2, g.n))
            p = locality_profile(code)
            assert p.beta == g.n - 1
            assert p.r == r_opt
            assert p.r_avg == ravg_opt
            from idxloc.bounds import exhaustive_scalar_search

            points = exhaustive_scalar_search(g, 2, 3)
            assert min(q.r for q in points) == r_opt
            assert min(q.r_avg for q in points) == ravg_opt


def test_criterion_5_normalization_property_suite():
    with criterion(5, "support normalization contract on 200 random codes", 60.0):
        codes = random_code_corpus()
        assert len(codes) == 200
        for g, code in codes:
            normalization_contract(g, code)


def test_criterion_6_converse_check_suite():
    with criterion(6, "inequality checks hold across the whole corpus", None):
        evaluated = {"single_query_lower_bound": 0, "query_union_minrank": 0,
                     "sum_locality_minrank": 0, "null_support_cycle": 0,
                     "induced_minrank_deficit": 0}
        for g, code in full_corpus():
            plan = require_plan(g, code)
            report = converse_checks(g, code, plan)
            assert report.all_ok, (g, code)
            for check in report.checks:
                if check.status == "ok" and check.name in evaluated:
                    evaluated[check.name] += 1
        assert evaluated["single_query_lower_bound"] >= 50
        assert evaluated["query_union_minrank"] >= 20
        assert evaluated["sum_locality_minrank"] >= 10
        assert evaluated["null_support_cycle"] >= 20
        assert evaluated["induced_minrank_deficit"] >= 10


def test_criterion_7_round_trip_sweep():
    with criterion(7, "encode/decode round trip on every corpus code", 25.0):
        rng = random.Random(0xC0FFEE)
        for g, code in full_corpus():
            plan = require_plan(g, code)
            mn = code.m * code.n
            if code.q**mn <= 4096:
                messages = product(range(code.q), repeat=mn)
            else:
                messages = (
                    tuple(rng.randrange(code.q) for _ in range(mn))
                    for _ in range(1000)
                )
            rows = [receiver_rows(g, code.m, i) for i in range(1, code.n + 1)]
            query_idx = [code.query_list(i) for i in range(1, code.n + 1)]
            for x in messages:
                c = encode(code, x)
                for i in range(1, code.n + 1):
                    queried = [c[k - 1] for k in query_idx[i - 1]]
                    demand_rows, side_rows = rows[i - 1]
                    side = [x[s] for s in side_rows]
                    want = tuple(x[j] for j in demand_rows)
                    got = decode_receiver(g, code, plan, i, queried, side)
                    assert got == want
