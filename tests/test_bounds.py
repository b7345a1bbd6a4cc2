"""Min-rank search, closed-form curve, converse checks, Pareto oracles."""

import functools
import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from idxloc import _kernel, bounds, cli
from idxloc.bounds import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CheckResult,
    ConverseReport,
    _inequality,
    _minrank_or_none,
    _null_supports,
    converse_checks,
    cycle_tradeoff,
    exhaustive_scalar_search,
    exhaustive_vector_search,
    min_message_length,
    minrank_bruteforce,
    optimal_cycle_locality_for_m,
    pareto_frontier,
    scalar_bounds_minrank_deficit,
)
from idxloc.codes import (
    DecodingFailure, IndexCode, fitting_matrix_from_plan, locality_profile,
    query_partition, require_plan, save_code, verify_decodable,
)
from idxloc.constructions import cycle_scalar_code, minrank_deficit_code, uncoded
from idxloc.graphs import (
    _acyclic_sets,
    _adjacency,
    acyclic_sizer,
    directed_cycle,
    graph_from_side_info,
    has_directed_cycle,
    induced_subgraph,
    max_acyclic_induced,
    parse_graph,
)
from idxloc.linalg import FqMatrix, rank

from corpus import full_corpus
from helpers import (
    _reference_pivots, all_digraphs_without_2cycles, blocks_graph, format_graph, nondominated_union,
    pendant_two_cycles, random_graph, random_matrix,
)


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


# (q, side information, min-rank, witness rows) at seeded graphs.  The
# witness is the first optimal matrix in the search order: columns in
# ascending order, each column's free entries an ascending base-q counter
# with the smallest free row least significant.
MINRANK_WITNESSES = [
    (2, [{2, 3, 4}, {3, 6}, {1, 4, 5, 6}, {1}, {4}, {4}], 5, [
        (1, 0, 1, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (0, 1, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    ]),
    (2, [{3, 4}, {1, 3, 4}, {1, 4}, {1, 2, 3}], 2, [
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
    ]),
    (2, [{3}, {1, 3}, {1, 4, 5}, {1, 3, 5}, {1, 4}], 3, [
        (1, 0, 1, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 0, 0, 1, 1),
        (0, 0, 0, 1, 1),
    ]),
    (2, [{4}, {3, 4}, {2}, {1, 2, 3}], 2, [
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
    ]),
    (2, [{3, 4}, {1, 3, 4}, {2, 4}, {1, 2}], 2, [
        (1, 1, 0, 1),
        (0, 1, 1, 1),
        (1, 0, 1, 0),
        (0, 1, 1, 1),
    ]),
    (2, [{2, 3}, {1, 4}, {2}, {1, 5}, {1, 2, 4}], 3, [
        (1, 1, 0, 0, 0),
        (1, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 1),
        (0, 0, 0, 1, 1),
    ]),
    (2, [{3}, {1}, {1, 2}], 2, [
        (1, 0, 1),
        (0, 1, 0),
        (1, 0, 1),
    ]),
    (3, [{2, 3}, {1}, {1, 2}], 2, [
        (1, 1, 0),
        (1, 1, 0),
        (0, 0, 1),
    ]),
    (3, [{2}, {3}, {1, 4}, {2, 3}], 3, [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 1),
        (0, 0, 1, 1),
    ]),
    (3, [{2, 4}, {1, 3, 4}, {1, 2, 4}, {1, 2}], 2, [
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
    ]),
    (3, [{2, 3}, set(), set()], 3, [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]),
    (3, [{2, 3}, {1, 3, 4}, {1, 2}, {1, 2, 3}], 2, [
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
    ]),
    (3, [{2, 3}, {1, 3}, {1, 2}], 1, [
        (1, 1, 1),
        (1, 1, 1),
        (1, 1, 1),
    ]),
    (3, [{3, 4}, {1, 4}, {1, 2}, {2, 3}], 2, [
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
    ]),
    (5, [set(), {3}, set()], 3, [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]),
    (5, [{2, 3}, {1, 3}, {1, 2}], 1, [
        (1, 1, 1),
        (1, 1, 1),
        (1, 1, 1),
    ]),
    (5, [{2, 4}, {1, 3}, {1, 4}, {1, 2}], 2, [
        (1, 0, 4, 1),
        (1, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 4, 1),
    ]),
    (5, [{2}, {1, 3}, {1, 2}], 2, [
        (1, 0, 0),
        (0, 1, 1),
        (0, 1, 1),
    ]),
    (5, [{2, 3}, {1}, set()], 2, [
        (1, 1, 0),
        (1, 1, 0),
        (0, 0, 1),
    ]),
    (5, [{3}, {1, 3}, {2}], 2, [
        (1, 0, 0),
        (0, 1, 1),
        (0, 1, 1),
    ]),
    (5, [{2, 3, 4}, {1, 4}, {2}, {1, 3}], 2, [
        (1, 1, 0, 1),
        (1, 1, 1, 0),
        (0, 0, 1, 4),
        (1, 1, 0, 1),
    ]),
]


@pytest.mark.parametrize("q, side, value, rows", MINRANK_WITNESSES)
def test_minrank_witness_is_pinned(q, side, value, rows):
    got_value, witness = minrank_bruteforce(graph_from_side_info(side), q)
    assert got_value == value
    assert [witness.matrix.row(i) for i in range(len(side))] == rows


def test_minrank_floors_change_no_answer():
    # Starting at the MAIS and cutting on its floors may only skip
    # subtrees holding no matrix of rank at most the target, so the
    # search must end on the value and witness of the stop 1 and the
    # floor 0, whose passes cut only on the prefix rank.
    rng = random.Random(12)
    most_edges = {2: 12, 3: 8, 5: 6}
    below_n = 0
    for t in range(60):
        q = (2, 3, 5)[t % 3]
        n = rng.randint(2, 7)
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
        side = [set() for _ in range(n)]
        edges = rng.randint(min(n, most_edges[q]), most_edges[q])
        for i, j in rng.sample(arcs, min(len(arcs), edges)):
            side[i].add(j + 1)
        g = graph_from_side_info(side)
        free = tuple(tuple(sorted(j - 1 for j in k)) for k in side)
        value, columns = _kernel.minrank_dfs(n, q, free, 1, lambda untouched: 0)
        got_value, witness = minrank_bruteforce(g, q)
        assert got_value == value
        assert witness.matrix == FqMatrix.from_columns(columns, n, q)
        below_n += value < n
    assert below_n > 40


def _first_min_rank_fill(g, q):
    """(min-rank, matrix) of the first min-rank fill in counter order,
    found by ranking every fill with ``linalg.rank``: columns in ascending
    order, each column's free entries an ascending base-q counter with the
    smallest free row in the least significant digit."""
    n = g.n
    fills = []  # per column, its fills in counter order
    for i, k in enumerate(g.side):
        rows = sorted(j - 1 for j in k)
        column = []
        for digits in product(range(q), repeat=len(rows)):
            col = [int(r == i) for r in range(n)]
            for r, d in zip(rows, reversed(digits)):
                col[r] = d
            column.append(col)
        fills.append(column)
    best = None
    for columns in product(*fills):
        m = FqMatrix.from_columns(columns, n, q)
        r = rank(m)
        if best is None or r < best[0]:
            best = r, m
    return best


# Graphs whose min-rank 3 exceeds their MAIS 2, so the search fails a
# pass at target 2 before it finds the witness at target 3: the
# bidirected 5-cycle and two 5-vertex digraphs.
MINRANK_GAP_GRAPHS = [
    (2, [{2, 5}, {1, 3}, {2, 4}, {3, 5}, {4, 1}]),
    (3, [{2, 5}, {1, 3}, {2, 4}, {3, 5}, {4, 1}]),
    (2, [{2, 3}, {1, 4, 5}, {1, 2}, {3, 5}, {2, 4}]),
    (2, [{2, 3, 4}, {4, 5}, {1, 5}, {1, 2, 3}, {2, 3}]),
]


def test_minrank_matches_an_enumeration_of_every_fill():
    rng = random.Random(23)
    most_fills = 4096
    cases = []
    for t in range(90):
        q = (2, 3, 5)[t % 3]
        n = rng.randint(2, 5)
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
        most_arcs = min(len(arcs), max(e for e in range(21) if q**e <= most_fills))
        side = [set() for _ in range(n)]
        for i, j in rng.sample(arcs, rng.randint(1, most_arcs)):
            side[i].add(j + 1)
        cases.append((q, side))
    below_n = gaps = 0
    for q, side in cases + MINRANK_GAP_GRAPHS:
        g = graph_from_side_info(side)
        value, witness = minrank_bruteforce(g, q)
        assert (value, witness.matrix) == _first_min_rank_fill(g, q)
        below_n += value < g.n
        gaps += value > max_acyclic_induced(g)
    assert below_n > 40
    assert gaps >= len(MINRANK_GAP_GRAPHS)


def test_minrank_disjoint_two_cycles_at_the_budget():
    # 12 disjoint 2-cycles: 24 free entries, exactly the default budget
    # over F_2.  Each 2-cycle is a cycle component, answered in closed
    # form with min-rank 1.
    g = graph_from_side_info([{v + 1 if v % 2 else v - 1} for v in range(1, 25)])
    value, witness = minrank_bruteforce(g, 2)
    assert value == 12
    assert witness.fits(g)
    assert rank(witness.matrix) == 12


def test_minrank_long_cycle_over_f2():
    # A free entry set to 0 leaves a path of rows untouched, whose MAIS
    # cuts its branch, so past the first matrix only the all-ones fill
    # is searched to the end.
    g = directed_cycle(40)
    start = time.perf_counter()
    value, witness = minrank_bruteforce(g, 2, budget=2**40)
    assert time.perf_counter() - start < 1
    assert value == 39
    assert witness.fits(g)
    assert rank(witness.matrix) == 39


def test_minrank_cycle_over_f3():
    g = directed_cycle(12)
    value, witness = minrank_bruteforce(g, 3, budget=3**12)
    assert value == 11
    assert witness.fits(g)
    assert rank(witness.matrix) == 11


def test_minrank_budget_error():
    g = directed_cycle(3)
    with pytest.raises(BudgetExceededError):
        minrank_bruteforce(g, 2, budget=1)


@pytest.mark.parametrize(
    "search",
    [
        lambda budget: minrank_bruteforce(directed_cycle(3), 2, budget),
        lambda budget: exhaustive_scalar_search(directed_cycle(3), 2, 2, budget=budget),
        lambda budget: exhaustive_vector_search(directed_cycle(3), 2, 2, 4, budget=budget),
    ],
    ids=["minrank", "scalar", "vector"],
)
@pytest.mark.parametrize("budget", [0, -1])
def test_non_positive_budget_is_refused_before_counting(search, budget):
    with pytest.raises(ValueError, match="^budget must be positive$"):
        search(budget)


def test_minrank_long_cycle_over_f3():
    # Over an odd field the floors cut no fill with every entry nonzero,
    # so a search on all 40 columns would walk through up to 2^40 of
    # them; the cycle component is answered in closed form.
    g = directed_cycle(40)
    start = time.perf_counter()
    value, witness = minrank_bruteforce(g, 3, budget=3**40)
    assert time.perf_counter() - start < 1
    assert value == 39
    assert witness.fits(g)
    assert rank(witness.matrix) == 39


def test_minrank_chain_of_pentagons():
    # Six bidirected 5-cycles, min-rank 3 each over F_2, each with one arc
    # into the next: 65 free entries, searched one pentagon at a time.
    side = []
    for p in range(6):
        base = 5 * p
        side += [{base + (v + 1) % 5 + 1, base + (v - 1) % 5 + 1} for v in range(5)]
        if p < 5:
            side[base].add(base + 6)
    g = graph_from_side_info(side)
    start = time.perf_counter()
    value, witness = minrank_bruteforce(g, 2, budget=2**70)
    assert time.perf_counter() - start < 1
    assert value == 18
    assert witness.fits(g)
    assert rank(witness.matrix) == 18


def test_minrank_bidirected_path():
    # The 300-vertex bidirected path is one component with 598 free
    # entries and min-rank 150, its MAIS, so the search's first pass, at
    # target 150, finds the witness.
    n = 300
    g = graph_from_side_info(
        [{j for j in (i - 1, i + 1) if 1 <= j <= n} for i in range(1, n + 1)]
    )
    start = time.perf_counter()
    value, witness = minrank_bruteforce(g, 2, budget=2**600)
    assert time.perf_counter() - start < 1.5
    assert value == 150
    assert witness.fits(g)
    assert rank(witness.matrix) == 150


def test_minrank_budget_counts_the_whole_graph():
    # Each 3-cycle alone has 2^3 fills, within a budget of 2^5, but the
    # budget counts the 2^6 fills of the whole graph and still refuses.
    g = graph_from_side_info([{2}, {3}, {1}, {5}, {6}, {4}])
    message = "min-rank search space q^6 exceeds budget 32"
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        minrank_bruteforce(g, 2, budget=2**5)


def _whole_graph_search(g, q):
    """(min-rank, witness) of the search on all n columns at once, with
    the MAIS first target and floors of the whole graph."""
    free = tuple(tuple(sorted(j - 1 for j in k)) for k in g.side)
    mais = acyclic_sizer(*_adjacency(g))
    value, columns = _kernel.minrank_dfs(g.n, q, free, mais((1 << g.n) - 1), mais)
    return value, FqMatrix.from_columns(columns, g.n, q)


def test_minrank_by_components_matches_the_whole_graph_search():
    # The witness assembled per component must be the first min-rank
    # matrix of the search on the whole graph, entry for entry.  From
    # t = 90 on, pendant 2-cycles join some blocks, and the arc-free rule
    # of the MAIS fires inside the components that the search runs on.
    rng = random.Random(19)
    cycles = dense = fires = 0
    for t in range(150):
        q = (2, 3, 5)[t % 3]
        g, blocks = blocks_graph(rng, rng.randint(2, 7 if t < 90 else 6))
        if t >= 90:
            g, anchors = pendant_two_cycles(rng, g, rng.randint(1, 2))
            fires += any(len(b) > 1 and u in b for b in blocks for u in anchors)
        value, witness = minrank_bruteforce(g, q, budget=q**40)
        assert (value, witness.matrix) == _whole_graph_search(g, q)
        inside = [[len(g.side[v - 1] & set(b)) for v in b] for b in blocks if len(b) > 1]
        cycles += any(set(outs) == {1} for outs in inside)
        dense += any(max(outs) > 1 for outs in inside)
    assert cycles > 45
    assert dense > 25
    assert fires > 18


@pytest.mark.parametrize("q, most", [(3, 9), (5, 8), (7, 7)])
def test_minrank_relabelled_cycles_match_the_whole_graph_search(q, most):
    # A random labelling moves the highest vertex, whose column holds the
    # entry (-1)^n, around the cycle.  The search on the whole graph may
    # try every nonzero fill, (q - 1)^n of them, which bounds n.
    rng = random.Random(q)
    for n in range(2, most + 1):
        for _ in range(2):
            order = rng.sample(range(1, n + 1), n)
            side = [set() for _ in range(n)]
            for a, b in zip(order, order[1:] + order[:1]):
                side[a - 1].add(b)
            g = graph_from_side_info(side)
            value, witness = minrank_bruteforce(g, q, budget=q**n)
            assert value == n - 1
            assert (value, witness.matrix) == _whole_graph_search(g, q)


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


def test_fitting_column_space_violation_carries_numbers():
    # The uncoded plan's fitting matrix is the identity, which adds one
    # dimension to the column space of the 3-cycle code.
    g = directed_cycle(3)
    code = cycle_scalar_code(3, 2, 1)
    report = converse_checks(g, code, require_plan(g, uncoded(g)))
    (check,) = report.by_name("fitting_column_space")
    assert (check.status, check.lhs, check.rhs, check.slack) == ("violated", 0, 1, -1)
    assert not report.all_ok
    (check,) = converse_checks(g, code, require_plan(g, code)).by_name(
        "fitting_column_space"
    )
    assert (check.status, check.lhs, check.rhs, check.slack) == ("ok", 0, 0, 0)


def _reference_converse_checks(g, code, plan, budget=None) -> ConverseReport:
    """converse_checks by its first formulas: the sums in Fractions off
    locality_profile and query_partition, and the fitting_column_space
    count off the row reference's pivots of (L | F), with L | F built
    whole."""
    checks: list[CheckResult] = []
    profile = locality_profile(code)
    part = query_partition(code)
    checks.append(
        _inequality(
            "single_query_lower_bound", "all receivers",
            len(part.unique_all), code.m * (2 * profile.beta - code.n * profile.r_avg),
            None if len(part.unique_all | part.shared_all) == code.ell
            else "some codeword symbols are never queried",
        )
    )
    if code.m != 1:
        checks.append(
            _inequality(
                "null_support_family", "", 0, 0,
                "fitting-matrix checks need a scalar code",
            )
        )
        return ConverseReport(tuple(checks))
    fm = fitting_matrix_from_plan(g, code, plan)
    minrank_g = _minrank_or_none(g, code.q, budget)
    length_note = (
        None if minrank_g is not None and code.ell == minrank_g
        else "code length differs from the instance min-rank"
    )
    deficit_note = (
        None if minrank_g is not None and minrank_g == g.n - 1
        else "instance min-rank is not n-1"
    )
    supports, sampled = _null_supports(fm, code.q)
    if sampled is not None:
        checks.append(
            _inequality(
                "null_support_family", "", 0, 0,
                f"supports sampled from {sampled[0]} of the {sampled[1]}"
                " nonzero null vectors",
            )
        )
    for s in supports:
        ctx = "S={" + ",".join(str(v) for v in sorted(s)) + "}"
        sub, _ = induced_subgraph(g, s)
        union_queries = set().union(*(code.queries[i - 1] for i in sorted(s)))
        minrank_s = (
            minrank_g if len(s) == g.n else _minrank_or_none(sub, code.q, budget)
        )
        no_minrank = None if minrank_s is not None else "min-rank budget exceeded"
        minrank_s = minrank_s or 0
        checks.append(
            _inequality(
                "query_union_minrank", ctx, len(union_queries), minrank_s,
                no_minrank,
            )
        )
        checks.append(
            _inequality(
                "sum_locality_minrank", ctx,
                sum((profile.per_receiver[i - 1] for i in sorted(s)), Fraction(0)),
                2 * minrank_s, no_minrank or length_note,
            )
        )
        checks.append(
            _inequality("null_support_cycle", ctx, int(has_directed_cycle(sub)), 1)
        )
        checks.append(
            _inequality(
                "induced_minrank_deficit", ctx, minrank_s, len(s) - 1,
                no_minrank or deficit_note,
            )
        )
    columns = code.matrix.column_list() + fm.matrix.column_list()
    pivots = _reference_pivots(columns, code.q)
    checks.append(
        _inequality(
            "fitting_column_space", "", 0, sum(p >= code.ell for p in pivots),
        )
    )
    return ConverseReport(tuple(checks))


def _with_unqueried_zero_column(code: IndexCode) -> IndexCode:
    mn = code.m * code.n
    columns = code.matrix.column_list() + [(0,) * mn]
    matrix = FqMatrix.from_columns(columns, mn, code.q)
    return IndexCode(q=code.q, m=code.m, n=code.n, matrix=matrix, queries=code.queries)


@functools.cache
def _converse_cases() -> tuple:
    """(graph, code, plan, converse_checks report): every corpus code with
    its own plan; each scalar code with the uncoded plan and up to two
    plans of other codes of its graph and field, whose fitting matrices
    can leave the code's column space; and every seventh code with an
    unqueried zero column appended."""
    corpus = full_corpus()
    plans: dict = {}
    cases = []
    for g, code in corpus:
        plan = require_plan(g, code)
        cases.append((g, code, plan))
        if code.m == 1:
            plans.setdefault((g, code.q), []).append(plan)
    for g, code, plan in list(cases):
        if code.m != 1:
            continue
        cases.append((g, code, require_plan(g, uncoded(g, 1, code.q))))
        others = [other for other in plans[g, code.q] if other != plan]
        cases.extend((g, code, other) for other in others[:2])
    for g, code in corpus[::7]:
        wider = _with_unqueried_zero_column(code)
        cases.append((g, wider, require_plan(g, wider)))
    return tuple((g, code, plan, converse_checks(g, code, plan)) for g, code, plan in cases)


def test_converse_checks_match_the_reference():
    rhs = set()
    skipped_single = 0
    for g, code, plan, report in _converse_cases():
        assert report == _reference_converse_checks(g, code, plan), (g, code, plan)
        rhs.update(c.rhs for c in report.by_name("fitting_column_space"))
        skipped_single += report.checks[0].status == "not_applicable"
    assert {0, 1, 2} <= rhs
    assert skipped_single > 0


def test_converse_check_sides_are_ints():
    # Every converse check counts symbols, query sets or ranks, so each
    # side and the slack of an applicable check is an int, never a
    # Fraction; a check that is not applicable has none.
    statuses = set()
    for g, code, plan, report in _converse_cases():
        for c in report.checks:
            statuses.add(c.status)
            sides = (c.lhs, c.rhs, c.slack)
            if c.status == "not_applicable":
                assert sides == (None, None, None), c
            else:
                assert all(type(x) is int for x in sides), (c, g, code, plan)
    assert statuses == {"ok", "violated", "not_applicable"}


def _verify_stdout_by_fraction(g, code) -> list[str]:
    """idxloc verify's stdout for a decodable code, each number printed
    as str(Fraction(x)), the CLI's formatter before it printed values as
    they are."""
    def fmt(x):
        return str(Fraction(x))

    p = locality_profile(code)
    lines = [
        "PASS",
        f"beta={fmt(p.beta)} r={fmt(p.r)} r_avg={fmt(p.r_avg)}",
        "queries_per_receiver=" + " ".join(str(len(r)) for r in code.queries),
    ]
    for c in converse_checks(g, code, verify_decodable(g, code)).checks:
        head = f"check {c.name}" + (f" {c.context}" if c.context else "")
        if c.status == "not_applicable":
            lines.append(f"{head}: not applicable ({c.note})")
        else:
            lines.append(
                f"{head}: {c.status} lhs={fmt(c.lhs)} rhs={fmt(c.rhs)} slack={fmt(c.slack)}"
            )
    return lines


def test_verify_prints_what_the_fraction_formatter_printed(tmp_path, capsys):
    # Every fifth corpus code through cli.main: vector codes, whose beta,
    # r and r_avg are proper fractions, and scalar codes with positive
    # slack and skipped checks.
    graph, code_file = tmp_path / "g.txt", tmp_path / "c.json"
    printed = []
    for g, code in full_corpus()[::5]:
        graph.write_text(format_graph(g), encoding="utf-8")
        save_code(code, code_file)
        assert cli.main(["verify", "--graph", str(graph), "--code", str(code_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == _verify_stdout_by_fraction(g, code), (g, code)
        printed.extend(out)
    text = "\n".join(printed)
    assert "/" in text and "not applicable" in text
    assert re.search(r" slack=[1-9]", text)


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


def test_search_skips_caps_below_the_locality_floor(monkeypatch):
    # No two receivers of the certified graph are mutual neighbours, so at
    # ell = 3 at most 3 of its 4 receivers query one column; a cap of one
    # column per receiver proves the frontier empty before any encoder is
    # enumerated.  At ell = N = 4 every receiver may query one column.
    def refuse(*args):
        raise AssertionError("enumerated a cap the locality floor rules out")

    monkeypatch.setattr(_kernel, "decodable_encoders", refuse)
    certified = graph_from_side_info([{2}, {3}, {1, 4}, {2}])
    assert exhaustive_scalar_search(certified, 2, 3, locality_cap=1) == []
    assert exhaustive_scalar_search(certified, 2, 3, locality_cap=Fraction(3, 2)) == []
    with pytest.raises(AssertionError, match="locality floor"):
        exhaustive_scalar_search(certified, 2, 4, locality_cap=1)
    # The 3-cycle has no mutual neighbours, so at M = 2 at most ell // 2
    # of its receivers query only their 2 demanded columns: 2 < 3 at
    # ell 4 and 5, where a cap of 2 columns proves the frontier empty.
    cycle = directed_cycle(3)
    for ell in (4, 5):
        assert exhaustive_vector_search(cycle, 2, 2, ell, 1, budget=2**30) == []
    with pytest.raises(AssertionError, match="locality floor"):
        exhaustive_vector_search(cycle, 2, 2, 6, 1, budget=2**30)


def test_search_stops_at_the_locality_floor(monkeypatch):
    # At ell = 3 the certified graph's floor is (max, sum) = (2, 5); the
    # search stops at the first encoder reaching it, before the end of the
    # decodable encoders.  Query-set searches (repeat False) go uncounted.
    certified = graph_from_side_info([{2}, {3}, {1, 4}, {2}])
    enumerate_all = _kernel.decodable_encoders
    pulled = []

    def counted(tables, candidates, size, repeat):
        for ks in enumerate_all(tables, candidates, size, repeat):
            if repeat:
                pulled.append((tables, candidates, size))
            yield ks

    monkeypatch.setattr(_kernel, "decodable_encoders", counted)
    pts = exhaustive_scalar_search(certified, 2, 3)
    assert [(p.r, p.r_avg) for p in pts] == [(2, Fraction(5, 4))]
    assert 0 < len(pulled) < sum(1 for _ in enumerate_all(*pulled[0], True))


@pytest.mark.parametrize("q, m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_decodable_codes_have_full_rank_on_every_maximum_acyclic_set(q, m):
    # The bound behind the search's virtual receivers: a decodable code
    # has rank m|S| on the rows of every induced acyclic set S.  Codes are
    # rejection-sampled at lengths from m * MAIS, where the bound is
    # tight, up to m * N, each receiver querying every column.
    rng = random.Random(f"acyclic-rank:{q}:{m}")
    codes = tight = 0
    while codes < 100:
        n = rng.randint(2, 5 if m == 1 else 4)
        g = random_graph(rng, n, edge_prob=rng.choice([0.4, 0.6, 0.8]))
        mais = max_acyclic_induced(g)
        ell = rng.randint(m * mais, min(m * n, m * mais + 2))
        queries = (frozenset(range(1, ell + 1)),) * n
        code = IndexCode(q, m, n, random_matrix(rng, m * n, ell, q), queries)
        if isinstance(verify_decodable(g, code), DecodingFailure):
            continue
        codes += 1
        tight += ell == m * mais
        sets = _acyclic_sets(g, mais)
        assert sets
        for s in sets:
            rows = [code.matrix.row(v * m + a) for v in s for a in range(m)]
            assert rank(FqMatrix.from_rows(rows, q)) == m * mais, (g.side, s)
    assert tight >= 20


def test_acyclic_set_receivers_cut_the_certified_search(monkeypatch):
    # At ell 3 = MAIS the two maximum acyclic sets of this certified
    # min-rank n-1 graph, {1, 3, 4} and {2, 3, 4}, need full rank on
    # their rows, which cuts most prefixes before their last column: 35
    # span steps in all, 267 without those receivers.  The frontier is
    # the deficit-one optimum.
    steps = []
    step = _kernel._Transitions.step

    def counted(self, s, k):
        steps.append(k)
        return step(self, s, k)

    monkeypatch.setattr(_kernel._Transitions, "step", counted)
    g = parse_graph("N=4\n1: 3 4\n2: 1\n3: 2\n4: 2\n")
    pts = exhaustive_scalar_search(g, 2, 3)
    assert [p.profile() for p in pts] == [(3, 2, Fraction(5, 4))]
    assert 0 < len(steps) <= 40


def test_acyclic_set_receivers_answer_a_7_vertex_query(monkeypatch):
    # A min-rank n-1 graph of girth 3 whose MAIS is 6: over F_2 at ell 6
    # the search space holds 6,547,258,432 encoders, and the search stops
    # at the first encoder reaching the floor (2, 8) after 285 span steps.
    # Without the acyclic-set receivers the same search runs for minutes,
    # so the count stops it long before that.
    steps = 0
    step = _kernel._Transitions.step

    def counted(self, s, k):
        nonlocal steps
        steps += 1
        assert steps <= 400, "the acyclic-set receivers cut too little"
        return step(self, s, k)

    monkeypatch.setattr(_kernel._Transitions, "step", counted)
    g = parse_graph("N=7\n1: 2 4 6\n2: 3\n3: 1\n4: 5\n5: 1\n6: 7\n7: 1\n")
    pts = exhaustive_scalar_search(g, 2, 6, budget=8589934592)
    assert [p.profile() for p in pts] == [(6, 2, Fraction(8, 7))]
    assert scalar_bounds_minrank_deficit(g, 2) == (2, Fraction(8, 7))


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


def test_scalar_search_uses_the_one_default_budget(monkeypatch):
    # The edgeless 7-vertex graph over F_2 has K = 127 normalized columns
    # and MAIS 7, which rules every length below 7 out before the budget
    # is counted: ell = 5 answers with no encoder enumerated, although its
    # C(131, 5) = 297,602,656 encoders exceed the default of 2^24.  At
    # ell = 7 no bound applies, and C(133, 7) = 124,397,910,208 do too.
    def refuse(*args):
        raise AssertionError("enumerated a length the acyclic-set bound rules out")

    monkeypatch.setattr(_kernel, "decodable_encoders", refuse)
    g = graph_from_side_info([set()] * 7)
    assert DEFAULT_BUDGET == 2**24
    assert exhaustive_scalar_search(g, 2, 5) == []
    with pytest.raises(
        BudgetExceededError,
        match="search enumerates 124397910208 encoders, exceeding budget 16777216",
    ):
        exhaustive_scalar_search(g, 2, 7)


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
    # The 3-cycle's per-length frontiers at lengths 2, 3 and 4 are
    # (2, 2, 4/3), (3, 1, 1) and (4, 1, 1); the last is dominated by
    # (3, 1, 1), and the frontier across lengths leaves it out.
    g = directed_cycle(3)
    per_length = [exhaustive_scalar_search(g, 2, ell) for ell in (2, 3, 4)]
    assert (Fraction(4), Fraction(1), Fraction(1)) in [p.profile() for p in per_length[2]]
    profiles = [p.profile() for p in pareto_frontier(g, 2, 1, 4)]
    assert profiles == [
        (Fraction(2), Fraction(2), Fraction(4, 3)),
        (Fraction(3), Fraction(1), Fraction(1)),
    ]
    for a in profiles:
        for b in profiles:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))


def test_pareto_merge_order_independent():
    # The frontier across lengths, witnesses included, is the nondominated
    # union of the per-length frontiers taken in either order, and lengths
    # past M*N add nothing to it.
    g = directed_cycle(3)
    per_length = [exhaustive_scalar_search(g, 2, ell) for ell in (1, 2, 3)]
    got = [(p.profile(), p.witness) for p in pareto_frontier(g, 2, 1, 3)]
    for frontiers in (per_length, per_length[::-1]):
        assert got == [(p.profile(), p.witness) for p in nondominated_union(frontiers)]
    assert got == [(p.profile(), p.witness) for p in pareto_frontier(g, 2, 1, 6)]


def test_pareto_frontier_is_the_nondominated_union_of_the_lengths():
    # Digraphs on n 2-4 vertices over F_2 and F_3 at M = 1, and on n <= 3
    # at M = 2, each with caps None, 1 and 2: the directed cycle, three
    # seeded ones with arcs drawn at densities 0.3, 0.6 and 0.9, and two
    # with no mutual neighbours.  The lengths run up to M*N, or to the
    # last one before the per-length search is refused, and the one walk
    # returns the nondominated union of the per-length frontiers,
    # profiles and witnesses alike.
    rng = random.Random(36)
    points = kept = several = 0
    for n, q, m in product((2, 3, 4), (2, 3), (1, 2)):
        if m == 2 and n > 3:
            continue
        oriented = list(all_digraphs_without_2cycles(n))
        for cap in (None, 1, 2):
            graphs = [directed_cycle(n)] + [random_graph(rng, n, p) for p in (0.3, 0.6, 0.9)]
            for g in graphs + rng.sample(oriented, 2):
                frontiers = []
                for ell in range(1, m * n + 1):
                    try:
                        frontiers.append(exhaustive_vector_search(g, q, m, ell, cap))
                    except BudgetExceededError:
                        break
                want = nondominated_union(frontiers)
                got = pareto_frontier(g, q, m, len(frontiers), cap)
                assert [(p.profile(), p.witness) for p in got] == [
                    (p.profile(), p.witness) for p in want
                ], (g, q, m, cap)
                points += sum(map(len, frontiers))
                kept += len(want)
                several += len(want) > 1
    # Shorter lengths dominate some points, and some frontiers hold more
    # than one point.
    assert points > kept >= 100 and several >= 10


def test_pareto_frontier_builds_the_search_state_once(monkeypatch):
    # The MAIS, the maximum acyclic sets and the receiver tables do not
    # depend on the length, so one walk over the 4-cycle's lengths 1-4
    # (3 and 4 searched) builds each once.
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(bounds, "max_acyclic_induced")
    counted(bounds, "_acyclic_sets")
    counted(_kernel, "receiver_tables")
    points = pareto_frontier(directed_cycle(4), 2, 1, 4)
    assert [p.profile() for p in points] == [(3, 2, Fraction(3, 2)), (4, 1, 1)]
    assert calls == {"max_acyclic_induced": 1, "_acyclic_sets": 1, "receiver_tables": 1}


def test_pareto_frontier_skips_dominated_lengths():
    # A length whose floor an earlier point already reaches is skipped
    # before its budget is counted.  K4 at M = 2 reaches (2, 8), the
    # uncoded profile, at ell = 2, where the per-length search is refused
    # from ell = 4 on.  The 2-cycle at M = 2 reaches its floor at ell = 2,
    # and a budget of 1,000 refuses ell = 4 alone.
    k4 = graph_from_side_info([{2, 3, 4}, {1, 3, 4}, {1, 2, 4}, {1, 2, 3}])
    assert [p.profile() for p in pareto_frontier(k4, 2, 2, 8)] == [(1, 1, 1)]
    with pytest.raises(BudgetExceededError):
        exhaustive_vector_search(k4, 2, 2, 4)
    two = directed_cycle(2)
    assert [p.profile() for p in pareto_frontier(two, 2, 2, 4, budget=1000)] == [
        (1, 1, 1)
    ]
    with pytest.raises(BudgetExceededError):
        for ell in range(1, 5):
            exhaustive_vector_search(two, 2, 2, ell, budget=1000)


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
    assert [p.profile() for p in pareto_frontier(g, 2, 1, 3)] == [
        (Fraction(3), Fraction(1), Fraction(1))
    ]


def test_vector_search_full_length_contains_identity_point():
    # At code length m*n the identity encoder is in the search space, so
    # the frontier contains the rate-n, locality-1 point.
    g = graph_from_side_info([{2}, {1}])
    pts = exhaustive_vector_search(g, 2, 2, 4)
    assert (Fraction(2), Fraction(1), Fraction(1)) in [p.profile() for p in pts]
