"""Tests of the benchmark's reference checks: each accepts a right answer
and rejects a planted wrong one.

    python3 -m pytest idxbench/test_checks.py -q
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import checks
import inputs


def c(n):
    return inputs.cycle(n)


def span_size(rows, q):
    span = {tuple(0 for _ in rows[0])}
    for row in rows:
        span = {tuple((a + k * b) % q for a, b in zip(v, row)) for v in span for k in range(q)}
    return len(span)


def test_rank_matches_span_count():
    rng = random.Random(3)
    for _ in range(60):
        q = rng.choice((2, 3, 5))
        rows = [[rng.randrange(q) for _ in range(rng.randint(1, 5))]]
        rows += [[rng.randrange(q) for _ in rows[0]] for _ in range(rng.randint(0, 4))]
        assert q ** checks.rank(rows, q) == span_size(rows, q)


def test_span_membership_brute_force_agrees_with_elimination():
    rng = random.Random(4)
    for _ in range(200):
        q = rng.choice((2, 3))
        n = rng.randint(1, 4)
        gens = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        target = [rng.randrange(q) for _ in range(n)]
        by_rank = checks.rank(gens + [target], q) == checks.rank(gens, q) if gens else not any(target)
        assert checks.in_span_brute(gens, target, q) == by_rank


def cycle_scalar_doc(n, q):
    """The anchor-1 cycle code (x1+x2, ..., x1+xn), built by hand."""
    rows = [[1] * (n - 1)] + [[1 if k == r - 1 else 0 for k in range(n - 1)] for r in range(1, n)]
    queries = [[1]] + [[i - 1, i] for i in range(2, n)] + [[n - 1]]
    return {"q": q, "M": 1, "N": n, "ell": n - 1, "L": rows, "queries": queries}


def test_decodability_rejects_a_dropped_query():
    doc = cycle_scalar_doc(5, 3)
    assert checks.undecodable_pairs(c(5), 1, 3, doc["L"], doc["queries"]) == []
    dropped = [list(r) for r in doc["queries"]]
    dropped[2].remove(3)
    assert checks.undecodable_pairs(c(5), 1, 3, doc["L"], dropped) == [(3, 3)]


def test_random_codes_decode_and_broken_copies_do_not():
    rng = random.Random(5)
    for _ in range(20):
        q, n, m = rng.choice((2, 3)), rng.randint(2, 5), rng.randint(1, 3)
        side = inputs.random_graph(rng, n, n)
        # Without extra columns every query is needed, so a broken copy exists.
        extra = rng.randint(0, 1)
        doc = inputs.random_code(rng, side, q, m, extra=extra)
        assert checks.undecodable_pairs(side, m, q, doc["L"], doc["queries"]) == []
        bad = inputs.broken_copy(rng, side, doc)
        assert bad is not None or extra
        if bad is not None:
            assert checks.undecodable_pairs(side, m, q, bad["L"], bad["queries"])


def test_graph_brute_force_on_known_graphs():
    two_cycles = [{2}, {1}, {4}, {3}]
    dag = [{2, 3}, {3}, set()]
    assert checks.max_induced_acyclic(c(6)) == 5
    assert checks.max_disjoint_cycles(c(6)) == 1
    assert checks.max_induced_acyclic(two_cycles) == 2
    assert checks.max_disjoint_cycles(two_cycles) == 2
    assert checks.max_induced_acyclic(dag) == 3
    assert checks.max_disjoint_cycles(dag) == 0
    assert checks.girth(c(7)) == 7
    assert checks.girth([{2}, {3}, {1, 4}, {5}, {3}]) == 3
    assert checks.girth(dag) is None


def test_certificate_accepts_only_deficit_one_shapes():
    assert checks.certifies_deficit_one(c(5))
    assert checks.certifies_deficit_one([{2}, {3}, {1, 4}, {1}])
    assert not checks.certifies_deficit_one([{2}, {1}, set()])  # 2-cycle
    assert not checks.certifies_deficit_one([{2}, {3}, set()])  # acyclic
    assert not checks.certifies_deficit_one([{2}, {3}, {1}, {5}, {6}, {4}])  # two disjoint cycles


def unit_fitting(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def cycle_fitting(n):
    """Rank n-1 fitting matrix of the n-cycle: column i is e_i - e_{i+1}."""
    a = unit_fitting(n)
    for i in range(n):
        a[(i + 1) % n][i] = 2  # -1 over F_3
    return a


def test_minrank_check_rejects_an_off_by_one_value():
    a = cycle_fitting(5)
    assert checks.minrank_errors(c(5), 3, 4, a, 4) == []
    assert checks.minrank_errors(c(5), 3, 3, a, None)  # rank disagrees and below the bound
    assert checks.minrank_errors(c(5), 3, 5, unit_fitting(5), 4)  # fits, but not n-1
    outside = cycle_fitting(5)
    outside[3][0] = 1
    assert checks.minrank_errors(c(5), 3, 4, outside, 4)
    diag = cycle_fitting(5)
    diag[2][2] = 2
    assert checks.minrank_errors(c(5), 3, 4, diag, None)


def test_oracle_check_rejects_a_wrong_r_avg_and_domination():
    side = c(4)
    doc = cycle_scalar_doc(4, 2)
    beta, r, r_avg = checks.profile(3, 1, doc["queries"])
    assert (beta, r, r_avg) == (3, 2, Fraction(3, 2))
    facts = {"deficit_girth": 4}
    assert checks.oracle_errors(side, 2, 1, [(beta, r, r_avg)], [doc], facts) == []
    assert checks.oracle_errors(side, 2, 1, [(beta, r, Fraction(5, 4))], [doc], facts)
    uncoded = {"q": 2, "M": 1, "N": 4, "ell": 4, "L": unit_fitting(4), "queries": [[1], [2], [3], [4]]}
    rows = [(beta, r, r_avg), (Fraction(4), Fraction(1), Fraction(1))]
    assert checks.oracle_errors(side, 2, 1, rows, [doc, uncoded], {}) == []
    dominated = [(beta, r, r_avg), (Fraction(4), Fraction(2), Fraction(2))]
    wide = dict(uncoded, queries=[[1, 2], [2, 3], [3, 4], [4, 1]])
    assert checks.oracle_errors(side, 2, 1, dominated, [doc, wide], {})
    assert checks.oracle_errors(side, 2, 1, [(beta, r, r_avg)], [doc], {"empty": True})
    below = checks.oracle_errors(side, 2, 1, [(Fraction(2), r, r_avg)], [doc], {})
    assert any("acyclic-subgraph bound 3" in e for e in below)


def test_verify_check_reads_pass_and_fail_outputs():
    side = c(4)
    doc = cycle_scalar_doc(4, 2)
    good = ["PASS", "beta=3 r=2 r_avg=3/2", "queries_per_receiver=1 2 2 1",
            "check single_query_lower_bound all receivers: ok lhs=2 rhs=0 slack=2",
            "check sum_locality_minrank S={1,2,3,4}: not applicable (budget)"]
    assert checks.verify_errors(side, 2, doc, 0, good) == []
    assert checks.verify_errors(side, 2, doc, 0, good[:1] + ["beta=3 r=2 r_avg=7/4"] + good[2:])
    assert checks.verify_errors(side, 2, doc, 0, good + ["check x S={1}: violated lhs=0 rhs=1 slack=-1"])
    assert checks.verify_errors(side, 2, doc, 2, good)
    broken = dict(doc, queries=[[1], [1], [2, 3], [3]])
    fail = ["FAIL", "undecodable receiver=2 symbol=2"]
    assert checks.verify_errors(side, 2, broken, 2, fail) == []
    assert checks.verify_errors(side, 2, broken, 2, fail + ["undecodable receiver=3 symbol=3"])
    assert checks.verify_errors(side, 2, broken, 0, good)


def test_every_code_fits_only_its_own_symbols():
    # Exhaustive over F_2 codes of the 2-cycle with one column: only
    # x1 + x2 queried by both receivers decodes everywhere.
    side = [{2}, {1}]
    winners = []
    for col in product(range(2), repeat=2):
        rows = [[col[0]], [col[1]]]
        if not checks.undecodable_pairs(side, 1, 2, rows, [[1], [1]]):
            winners.append(col)
    assert winners == [(1, 1)]
