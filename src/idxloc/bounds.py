"""Exact bounds and ground-truth oracles.

Brute-force min-rank over fitting matrices, the closed-form rate-locality
curve for directed cycles, inequality checks tying query structure to
induced-subproblem min-ranks, and exhaustive encoder searches returning
Pareto frontiers with witness codes.  Everything is exact rational or
integer arithmetic; no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import _kernel
from .codes import (
    DecodingPlan,
    FittingMatrix,
    IndexCode,
    column_space_contained,
    fitting_matrix_from_plan,
    locality_profile,
    query_partition,
    require_plan,
)
from .graphs import (
    SideInformationGraph,
    expand_indices,
    has_directed_cycle,
    induced_subgraph,
    shortest_directed_cycle,
)
from .linalg import FqMatrix, null_space_basis, require_prime

DEFAULT_MINRANK_BUDGET = 2**24
DEFAULT_SCALAR_SEARCH_BUDGET = 2**22
DEFAULT_VECTOR_SEARCH_BUDGET = 2**24
NULL_ENUMERATION_LIMIT = 4096


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


def kernel_backend() -> str:
    """Name of the search kernel; it is pure Python, so always "python"."""
    return "python"


def minrank_bruteforce(
    g: SideInformationGraph, q: int, budget: int | None = None
) -> tuple[int, FittingMatrix]:
    """Exact min-rank of the instance over F_q with a witness.

    Enumerates every matrix with unit diagonal, arbitrary entries at
    (j, i) for j in K_i and zeros elsewhere, pruning branches whose
    partial column rank already matches the best candidate.  Refuses to
    start (BudgetExceededError) when the raw search space q**(sum |K_i|)
    exceeds the budget, so a returned answer is always exact.
    """
    require_prime(q)
    budget = DEFAULT_MINRANK_BUDGET if budget is None else budget
    if budget <= 0:
        raise ValueError("budget must be positive")
    total_free = sum(len(k) for k in g.side)
    if q**total_free > budget:
        raise BudgetExceededError(
            f"min-rank search space q^{total_free} exceeds budget {budget}"
        )
    free_rows = tuple(
        tuple(sorted(j - 1 for j in g.side_info(i))) for i in range(1, g.n + 1)
    )
    value, col_codes = _kernel.minrank_dfs(g.n, q, free_rows)
    columns = [_kernel.decode_column(code, g.n, q) for code in col_codes]
    witness = FittingMatrix(FqMatrix.from_columns(columns, g.n, q))
    if not witness.fits(g):
        raise AssertionError("witness does not fit the graph")
    return value, witness


def cycle_tradeoff(n: int, r: Fraction | int) -> Fraction:
    """Optimal rate of the directed n-cycle at overall locality at most r:
    max(n - 1, n(n - 1 - r)/(n - 2))."""
    if n < 3:
        raise ValueError("the closed form needs n >= 3")
    r = Fraction(r)
    if r < 1:
        raise ValueError("locality is at least 1 for any valid scheme")
    return max(Fraction(n - 1), Fraction(n * (n - 1 - r), n - 2))


def min_message_length(n: int) -> int:
    """Smallest message length reaching locality 2(n-1)/n on the n-cycle:
    n for odd n, n/2 for even n (the locality forces divisibility)."""
    if n < 3:
        raise ValueError("needs n >= 3")
    return n if n % 2 == 1 else n // 2


def optimal_cycle_locality_for_m(n: int, m: int) -> Fraction | None:
    """Best overall locality at rate n-1 on the n-cycle for message
    length m, or None where no exact value is established.

    Below n/2 the answer is 2; for odd n with n/2 <= m < n it is
    2 - 1/m; at multiples of the minimum message length it is
    2(n-1)/n.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    if m < 1:
        raise ValueError("message length must be at least 1")
    if 2 * m < n:
        return Fraction(2)
    if n % 2 == 1 and n <= 2 * m and m < n:
        return 2 - Fraction(1, m)
    if m % min_message_length(n) == 0:
        return Fraction(2 * (n - 1), n)
    return None


def scalar_bounds_minrank_deficit(
    g: SideInformationGraph, q: int, budget: int | None = None
) -> tuple[Fraction, Fraction]:
    """Optimal (r, r_avg) of scalar codes at rate n-1 when the min-rank
    is n-1 and the shortest cycle has length at least 3: r = 2 and
    r_avg = (n + n_c - 2)/n."""
    found = shortest_directed_cycle(g)
    if found is None:
        raise ValueError("graph is acyclic, so its min-rank is n, not n-1")
    n_c = found[0]
    if n_c < 3:
        raise ValueError(
            "shortest cycle has length 2; there locality 1 is achievable "
            "and this bound does not apply"
        )
    value, _ = minrank_bruteforce(g, q, budget)
    if value != g.n - 1:
        raise ValueError(f"min-rank is {value}, not n-1 = {g.n - 1}")
    return Fraction(2), Fraction(g.n + n_c - 2, g.n)


@dataclass(frozen=True)
class ParetoPoint:
    """A nondominated (rate, locality, average locality) triple with a
    decodable witness code realizing it exactly."""

    beta: Fraction
    r: Fraction
    r_avg: Fraction
    witness: IndexCode

    def profile(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.beta, self.r, self.r_avg)


def _dominates(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b)) and a != b


def pareto_merge(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Nondominated subset of the union, independent of input order.

    Equal profiles collapse to the witness with the smallest canonical
    key, so parallel or repeated runs merge to identical output.
    """
    best_by_profile: dict[tuple, ParetoPoint] = {}
    for p in points:
        key = p.profile()
        current = best_by_profile.get(key)
        if current is None or _witness_key(p.witness) < _witness_key(current.witness):
            best_by_profile[key] = p
    survivors = []
    profiles = list(best_by_profile)
    for prof in profiles:
        if any(_dominates(other, prof) for other in profiles if other != prof):
            continue
        survivors.append(best_by_profile[prof])
    survivors.sort(key=lambda p: p.profile())
    return survivors


def _witness_key(code: IndexCode) -> tuple:
    return (code.matrix.entries, tuple(sorted(tuple(sorted(r)) for r in code.queries)))


def _normalized_column_codes(mn: int, q: int) -> list[int]:
    """Base-q codes of all nonzero columns whose first nonzero entry
    (lowest row index) equals 1; one representative per scaling class."""
    codes = []
    for code in range(1, q**mn):
        c = code
        while c % q == 0:
            c //= q
        if c % q == 1:
            codes.append(code)
    return codes


def _search(
    g: SideInformationGraph,
    q: int,
    m: int,
    ell: int,
    locality_cap: Fraction | int | None,
    budget: int,
) -> list[ParetoPoint]:
    require_prime(q)
    if m < 1 or ell < 1:
        raise ValueError("m and ell must be positive")
    mn = m * g.n
    # The search space is the multisets of ell normalized columns, of
    # which there are (q^mn - 1)/(q - 1); counting them in closed form
    # refuses an oversized search before listing the columns.  The budget
    # counts every multiset, although prefixes that cannot decode are
    # skipped without being enumerated.
    encoders = math.comb((q**mn - 1) // (q - 1) + ell - 1, ell)
    if encoders > budget:
        raise BudgetExceededError(
            f"search enumerates {encoders} encoders, exceeding budget {budget}"
        )
    exp = expand_indices(g, m)
    demands = tuple(
        tuple(sorted(j - 1 for j in exp.demands[i])) for i in range(g.n)
    )
    side = tuple(
        tuple(sorted(s - 1 for s in exp.side_info[i])) for i in range(g.n)
    )
    if locality_cap is None:
        max_size = ell
    else:
        cap = Fraction(locality_cap)
        if cap < 1:
            raise ValueError("locality cap below 1 admits no code")
        max_size = min(ell, int(cap * m))
    # Any decodable code has ell >= m|S| for every induced acyclic vertex
    # set S (the MAIS bound of Bar-Yossef, Birk, Jayram and Kol), so one
    # acyclic set of ell // m + 1 vertices leaves nothing to search.
    # Past the budget check there are few such sets.
    n_acyclic = ell // m + 1
    if n_acyclic <= g.n and any(
        not has_directed_cycle(induced_subgraph(g, vs)[0])
        for vs in combinations(range(1, g.n + 1), n_acyclic)
    ):
        return []
    codes = _normalized_column_codes(mn, q)
    tables = _kernel.receiver_tables(codes, mn, q, demands, side)

    # Frontier bookkeeping on integer profiles (max |R_i|, sum |R_i|);
    # beta is constant within one call so dominance reduces to these two.
    # Only sizes are needed here: receiver i's least |R_i| depends only on
    # the multiset of its proj_a columns, so it is memoized on them, and
    # the witness masks are built for the final frontier alone.  Every
    # receiver needs at least its m demanded columns, so a receiver not
    # yet sized counts m, and (m, m*N) is the best possible profile.
    best = (m, m * g.n)
    memos = [{} for _ in tables]
    frontier: list[tuple[int, int, tuple[int, ...]]] = []
    for ks in _kernel.decodable_encoders(tables, range(len(codes)), ell, q, True):
        mx, sm = best
        for table, memo in zip(tables, memos):
            key = tuple(sorted([table[1][k] for k in ks]))
            least = memo.get(key, 0)  # 0: not sized yet; sizes are >= m
            if least == 0:
                first = _kernel.first_query_set(table, ks, q, max_size)
                least = memo[key] = None if first is None else len(first)
            if least is None:
                break
            mx = max(mx, least)
            sm += least - m
            # A profile dominated or equalled by a frontier entry stays so
            # as more receivers are sized; the earlier encoder keeps a tie.
            if any(fmx <= mx and fsm <= sm for fmx, fsm, _ in frontier):
                break
        else:
            frontier = [
                entry for entry in frontier if not (mx <= entry[0] and sm <= entry[1])
            ]
            frontier.append((mx, sm, ks))
            if (mx, sm) == best:
                break

    points = []
    for mx, sm, ks in frontier:
        masks = _kernel.min_query_sets(tables, ks, q, max_size)
        columns = [_kernel.decode_column(codes[k], mn, q) for k in ks]
        matrix = FqMatrix.from_columns(columns, mn, q)
        queries = tuple(
            frozenset(k + 1 for k in range(ell) if mask >> k & 1) for mask in masks
        )
        witness = IndexCode(q=q, m=m, n=g.n, matrix=matrix, queries=queries)
        profile = locality_profile(witness)
        if (profile.r, profile.r_avg) != (Fraction(mx, m), Fraction(sm, m * g.n)):
            raise AssertionError("witness profile mismatch")
        require_plan(g, witness)
        points.append(
            ParetoPoint(
                beta=Fraction(ell, m), r=profile.r, r_avg=profile.r_avg,
                witness=witness,
            )
        )
    points.sort(key=lambda p: p.profile())
    return points


def exhaustive_scalar_search(
    g: SideInformationGraph,
    q: int,
    ell: int,
    locality_cap: Fraction | int | None = None,
    budget: int | None = None,
) -> list[ParetoPoint]:
    """Pareto frontier over all scalar codes of length exactly ell.

    Enumerates encoders column by column over one representative per
    scaling class (first nonzero entry 1), skipping zero columns; column
    order is fixed to nondecreasing codes since permutations only relabel
    queries.  Columns are chosen depth-first, and a column prefix from
    which some receiver cannot decode with the columns still to come is
    skipped with all its completions, so only decodable encoders are
    tested further.  Each receiver's least query-set size comes from a
    subset search in increasing cardinality, memoized on the receiver's
    view of the encoder's columns, so the reported profile is the best
    achievable for that encoder.  Sizing stops once an encoder's
    profile can no longer enter the frontier, the search ends once the
    frontier holds the best possible profile (every |R_i| = 1), and
    the query sets themselves are built only for the frontier's
    encoders.  Deterministic output: the first encoder found in
    nondecreasing order wins a tie.

    Refuses to start (BudgetExceededError) when the size of the search
    space, C(K + ell - 1, ell) encoders for the K = (q^N - 1)/(q - 1)
    normalized columns, exceeds the budget; the pruning does not change
    this count.  Past that check, a length below the acyclic-set bound
    (ell < |S| for an induced acyclic vertex set S) returns an empty
    frontier without enumerating any encoder.
    """
    budget = DEFAULT_SCALAR_SEARCH_BUDGET if budget is None else budget
    return _search(g, q, 1, ell, locality_cap, budget)


def exhaustive_vector_search(
    g: SideInformationGraph,
    q: int,
    m: int,
    ell: int,
    locality_cap: Fraction | int | None = None,
    budget: int | None = None,
) -> list[ParetoPoint]:
    """Pareto frontier over vector codes of message length m and length
    exactly ell; same contract as the scalar search, including the
    pruning of prefixes that cannot decode, with M*N rows, so the budget
    bounds C(K + ell - 1, ell) for K = (q^(M*N) - 1)/(q - 1), the best
    possible profile has every |R_i| = m, and the acyclic-set bound
    reads ell < m|S|."""
    budget = DEFAULT_VECTOR_SEARCH_BUDGET if budget is None else budget
    return _search(g, q, m, ell, locality_cap, budget)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one converse inequality on one piece of context.

    status is "ok", "violated" or "not_applicable"; lhs and rhs are the
    two sides of the inequality when numeric.
    """

    name: str
    context: str
    status: str
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    note: str = ""

    @property
    def slack(self) -> Fraction | None:
        if self.lhs is None or self.rhs is None:
            return None
        return self.lhs - self.rhs


@dataclass(frozen=True)
class ConverseReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.status != "violated" for c in self.checks)

    def by_name(self, name: str) -> list[CheckResult]:
        return [c for c in self.checks if c.name == name]


def _null_supports(
    fm: FittingMatrix, q: int
) -> tuple[list[frozenset[int]], tuple[int, int] | None]:
    """Distinct supports of nonzero null vectors of the fitting matrix,
    enumerated exhaustively when q^nullity is small and sampled from the
    basis (plus pairwise sums) otherwise.  1-based receiver indices.

    Also returns None when the enumeration was exhaustive, else the pair
    (null vectors sampled, q^nullity - 1 nonzero null vectors).
    """
    basis = null_space_basis(fm.matrix)
    if not basis:
        return [], None
    sampled = None
    supports: set[frozenset[int]] = set()
    n = fm.matrix.rows
    if q ** len(basis) <= NULL_ENUMERATION_LIMIT:
        total = q ** len(basis)
        for counter in range(1, total):
            vec = [0] * n
            for c, b in zip(_kernel.decode_column(counter, len(basis), q), basis):
                if c:
                    for t in range(n):
                        vec[t] = (vec[t] + c * b[t]) % q
            supports.add(frozenset(t + 1 for t in range(n) if vec[t]))
    else:
        sample = list(basis)
        for a, b in combinations(range(len(basis)), 2):
            sample.append(
                tuple((x + y) % q for x, y in zip(basis[a], basis[b]))
            )
        for vec in sample:
            if any(vec):
                supports.add(frozenset(t + 1 for t in range(n) if vec[t]))
        sampled = (len(sample), q ** len(basis) - 1)
    return sorted(supports, key=lambda s: (len(s), sorted(s))), sampled


def _inequality(
    name: str, ctx: str, lhs, rhs, skip: str | None = None
) -> CheckResult:
    """The check lhs >= rhs, or "not_applicable" with the note skip when
    its precondition fails (lhs and rhs are then ignored)."""
    if skip is not None:
        return CheckResult(name=name, context=ctx, status="not_applicable", note=skip)
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return CheckResult(
        name=name, context=ctx, status="ok" if lhs >= rhs else "violated",
        lhs=lhs, rhs=rhs,
    )


def _minrank_or_none(g: SideInformationGraph, q: int, budget: int | None) -> int | None:
    """minrank_bruteforce's value, or None when it exceeds the budget."""
    try:
        return minrank_bruteforce(g, q, budget)[0]
    except BudgetExceededError:
        return None


def converse_checks(
    g: SideInformationGraph,
    code: IndexCode,
    plan: DecodingPlan,
    budget: int | None = None,
) -> ConverseReport:
    """Evaluate the structural lower bounds a valid code must satisfy.

    Always checked: the count of uniquely queried symbols is at least
    m(2*beta - n*r_avg) whenever every column is queried at all.  For
    scalar codes, each support S of a null vector of the plan's fitting
    matrix is checked against: the query union bound |union R_i| >=
    minrank(G_S); the sum-locality bound sum r_i >= 2 minrank(G_S) when
    the code length equals minrank(G); G_S containing a directed cycle;
    and minrank(G_S) >= |S| - 1 when minrank(G) = n - 1.  Preconditions
    that fail (including search budgets) yield "not_applicable" entries,
    never spurious violations.  When q^nullity exceeds
    NULL_ENUMERATION_LIMIT the supports come from a sample of null
    vectors, and a "not_applicable" null_support_family entry names its
    size.
    """
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
            CheckResult(
                "null_support_family", "", "not_applicable",
                note="fitting-matrix checks need a scalar code",
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
            CheckResult(
                "null_support_family", "", "not_applicable",
                note=f"supports sampled from {sampled[0]} of the {sampled[1]}"
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
        minrank_s = minrank_s or 0  # ignored where no_minrank is set
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

    if not column_space_contained(code.matrix, fm.matrix):
        checks.append(
            CheckResult(
                name="fitting_column_space", context="",
                status="violated",
                note="fitting matrix columns leave the encoder column space",
            )
        )
    else:
        checks.append(
            CheckResult(
                name="fitting_column_space", context="",
                status="ok", lhs=Fraction(0), rhs=Fraction(0),
            )
        )
    return ConverseReport(tuple(checks))
