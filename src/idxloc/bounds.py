"""Exact bounds and ground-truth oracles.

Brute-force min-rank over fitting matrices, the closed-form rate-locality
curve for directed cycles, inequality checks tying query structure to
induced-subproblem min-ranks, and exhaustive encoder searches returning
Pareto frontiers with witness codes.  Everything is exact rational or
integer arithmetic; no floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, product

from . import _kernel
from .codes import (
    DecodingPlan,
    FittingMatrix,
    IndexCode,
    fitting_matrix_from_plan,
    overall_locality,
    require_plan,
)
from .graphs import (
    SideInformationGraph,
    _acyclic_sets,
    _adjacency,
    _bits,
    _components,
    _core,
    _is_cycle,
    _relabel,
    acyclic_sizer,
    has_directed_cycle,
    induced_subgraph,
    max_acyclic_induced,
    receiver_rows,
    shortest_directed_cycle,
)
from .linalg import (
    FqMatrix, null_space_basis, require_prime, span_coordinates, span_format,
    vector_matrix,
)

DEFAULT_BUDGET = 2**24
NULL_ENUMERATION_LIMIT = 4096


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


def _decimal(n: int) -> str:
    """n in decimal, or "at least 10^k" past 14,000 bits (4,215 digits):
    by default Python refuses to write an int of over 4,300 digits."""
    if n.bit_length() <= 14_000:
        return str(n)
    return f"at least 10^{(n.bit_length() - 1) * 30_102 // 100_000}"


def kernel_backend() -> str:
    """Name of the search kernel; it is pure Python, so always "python"."""
    return "python"


def minrank_bruteforce(
    g: SideInformationGraph, q: int, budget: int | None = None
) -> tuple[int, FittingMatrix]:
    """Exact min-rank of the instance over F_q with a witness.

    The witness is the first min-rank matrix with unit diagonal,
    arbitrary entries at (j, i) for j in K_i and zeros elsewhere, in the
    order of ``_kernel.minrank_dfs``: columns in ascending order, each an
    ascending base-q counter over its free entries.  Ordered by the
    condensation of G, every such matrix is block triangular with one
    diagonal block per strongly connected component, so its rank is at
    least the sum of the blocks' ranks, and minrank(G) is the sum of the
    components' min-ranks (Bar-Yossef, Birk, Jayram and Kol).  Zeroing
    the entries between components keeps the rank minimal and lowers
    every column's counter, so the first min-rank matrix is block
    diagonal, and its blocks are each component's own first witness.
    g's out- and in-neighbours are built once, as bitmasks, and the
    components are split off them as bitmasks.  Each is solved alone:

    - a single vertex has min-rank 1 and the unit vector as its column;
    - a cycle, where every vertex has one out-neighbour in the component,
      has min-rank |C| - 1: a zero entry leaves the matrix triangular up
      to order, and with every entry nonzero det(I + weighted cycle) is 0
      iff the entries multiply to (-1)^|C|, so the first fill sets every
      entry to 1 but the one in the column of the highest vertex, which
      is (-1)^|C| mod q;
    - any other component runs ``_kernel.minrank_dfs`` on its own rows,
      relabelled in ascending order, with its out-neighbour bitmasks,
      read off g's masks, as its free rows, one pass per target rank from
      its MAIS, the largest induced acyclic vertex set, up: a pass prunes a
      branch once the prefix rank plus the MAIS of the rows the chosen
      columns leave zero exceeds its target, and the first matrix a pass
      finds is the component's witness.

    Refuses to start (BudgetExceededError) when the raw search space of
    the whole graph, q**(sum |K_i|), exceeds the budget, so a returned
    answer is always exact.
    """
    require_prime(q)
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget <= 0:
        raise ValueError("budget must be positive")
    total_free = sum(len(k) for k in g.side)
    if q**total_free > budget:
        raise BudgetExceededError(
            f"min-rank search space q^{total_free} exceeds budget {budget}"
        )
    n = g.n
    # Row-major entries of the witness: the unit diagonal, then each
    # component's own entries; entries between components stay 0.
    entries = [0] * (n * n)
    entries[:: n + 1] = [1] * n
    # Components as bitmasks of g's one bitmask adjacency: each vertex off
    # g's core lies on no cycle, so it is a component of its own.
    succ, pred = _adjacency(g)
    full = (1 << n) - 1
    core = _core(succ, pred, full)
    value = (full ^ core).bit_count()
    for comp in _components(succ, pred, core):
        if not comp & (comp - 1):
            value += 1
            continue
        vertices = list(_bits(comp))
        if _is_cycle(succ, comp):
            value += len(vertices) - 1
            # Every entry 1 but the last, in the highest vertex's column.
            for v in vertices:
                j = (succ[v] & comp).bit_length() - 1
                entries[j * n + v] = 1
            entries[j * n + v] = (-1) ** len(vertices) % q
            continue
        local_succ, local_pred = _relabel(succ, comp)
        # One sizer gives the first target and every floor, sharing one
        # adjacency and one memo of component values for this call.
        rank, columns = _kernel.minrank_dfs(
            q, local_succ, acyclic_sizer(local_succ, local_pred)
        )
        value += rank
        # Off the diagonal a column is nonzero only on its free rows.
        for v, col, rows in zip(vertices, columns, local_succ):
            for t in _bits(rows):
                entries[vertices[t] * n + v] = col[t]
    witness = FittingMatrix(FqMatrix(n, n, q, tuple(entries)))
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


def _normalized_columns(mn: int, q: int) -> list[tuple[int, ...]]:
    """All nonzero columns whose first nonzero entry (lowest row index)
    equals 1, one representative per scaling class, ordered as base-q
    numbers with row 0 least significant."""
    columns = (digits[::-1] for digits in product(range(q), repeat=mn))
    return [col for col in columns if next(filter(None, col), 0) == 1]


def exhaustive_vector_search(
    g: SideInformationGraph,
    q: int,
    m: int,
    ell: int,
    locality_cap: Fraction | int | None = None,
    budget: int | None = None,
) -> list[ParetoPoint]:
    """Pareto frontier over all codes of message length m and length
    exactly ell; m = 1 gives the scalar codes.

    Enumerates encoders column by column over one representative per
    scaling class of the nonzero columns of m*N rows (first nonzero
    entry 1); the columns of an encoder are nondecreasing as base-q
    numbers (row 0 least significant), since permutations only relabel
    queries.  Columns are chosen depth-first, and a column prefix from
    which some receiver cannot decode with the columns still to come is
    skipped with all its completions, so only decodable encoders are
    tested further.  Each receiver's least query-set size comes from a
    subset search in increasing cardinality, memoized on the receiver's
    view of the encoder's columns, so the reported profile is the best
    achievable for that encoder.  Sizing stops once an encoder's profile
    can no longer enter the frontier, and the query sets themselves are
    built only for the frontier's encoders.  Deterministic output: the
    first encoder found in nondecreasing order wins a tie.

    Every decodable code has rank m|S| on the rows of each induced
    acyclic vertex set S (the MAIS bound of Bar-Yossef, Birk, Jayram and
    Kol, IEEE Trans. IT 2011).  Each maximum such S joins the encoder
    enumeration as a virtual receiver that demands the m|S| rows of S and
    knows every other row, so a prefix is skipped once more of its
    columns are dependent on those rows than ell - m|S|.  These receivers
    cut only prefixes with no decodable completion, and sizing and the
    witness query sets use the real receivers alone, so the frontier and
    its witnesses are unchanged.

    The search ends once an encoder reaches a proven floor on every
    profile of length ell.  If receiver i decodes from exactly m
    columns, their projections off K_i span exactly its own block, so
    each of them is nonzero on block i and zero outside block i and the
    blocks of K_i.  Receivers sharing such a column are thus pairwise
    mutual neighbours (j in K_i and i in K_j), at most d + 1 of them when
    no receiver has more than d mutual neighbours.  Counting (receiver,
    column) pairs, at most u = min(N, floor(ell (d + 1) / m)) receivers
    have |R_i| = m, and every other one needs m + 1 columns, so every
    profile (max |R_i|, sum |R_i|) is at least (m + [u < N],
    (m + 1) N - u).  The first encoder reaching that floor dominates or
    ties every later one.

    Refuses to start with ValueError when the budget is not positive,
    m or ell is below 1, or the locality cap is below 1.  Then an empty
    frontier is returned without enumerating any encoder when the
    locality cap or ell allows fewer than the floor's m + [u < N]
    columns per receiver, or when the length is below the acyclic-set
    bound (ell < m|S| for an induced acyclic vertex set S).  Only past
    these bounds does it refuse with BudgetExceededError when the size
    of the search space, C(K + ell - 1, ell) encoders for the
    K = (q^(m*N) - 1)/(q - 1) normalized columns, exceeds the budget
    (DEFAULT_BUDGET when None); the pruning does not change this count.
    """
    return _frontier(g, q, m, (ell,), locality_cap, budget)


def pareto_frontier(
    g: SideInformationGraph,
    q: int,
    m: int,
    ell: int,
    locality_cap: Fraction | int | None = None,
    budget: int | None = None,
) -> list[ParetoPoint]:
    """Pareto frontier over all codes of message length m and any length
    from 1 to ell: the nondominated points of ``exhaustive_vector_search``
    at each length, with its witnesses, sorted by profile.  No length past
    m*N is searched, since there the uncoded code has r = r_avg = 1, the
    least any code has.  A length is skipped, not refused for its budget,
    when a shorter one's point reaches its floor (see ``_frontier``).
    """
    return _frontier(g, q, m, range(1, min(ell, m * g.n) + 1), locality_cap, budget)


def _frontier(g, q, m, lengths, locality_cap, budget) -> list[ParetoPoint]:
    """The search of ``exhaustive_vector_search`` at each of the
    ascending ``lengths``, kept as one frontier of (ell, max |R_i|,
    sum |R_i|, encoder) entries.

    The MAIS, its virtual receivers, the normalized columns, the
    receiver tables and the memos of least query-set sizes do not depend
    on the length; each is built once, when the first length needs it.
    A shorter length's point has the lower rate ell/m, so it dominates a
    longer one whose (max |R_i|, sum |R_i|) is at least its own, and no
    longer point dominates it.  So an encoder is dropped once an entry of
    any length dominates or ties it, and a new entry evicts only entries
    of its own length.  The profiles that shorter entries dominate or tie
    form an up-set U, so a length's minimal profiles outside U are its
    own search's minimal profiles outside U, with the same first
    encoders, and both stop at the same encoder: one reaching the floor
    lies outside U, or the length would have been skipped.  A point
    inside U is dominated by a shorter one, so the entries are the
    nondominated union of the per-length frontiers.

    A length is skipped before the MAIS, the budget and any encoder when
    a shorter entry reaches its floor (fmx <= floor[0], fsm <= floor[1]):
    every profile of that length is at least the floor, hence at least
    that entry's, at a higher rate, so none of its points is nondominated.
    """
    require_prime(q)
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget <= 0:
        raise ValueError("budget must be positive")
    if m < 1 or min(lengths, default=0) < 1:
        raise ValueError("m and ell must be positive")
    mn = m * g.n
    most = max(lengths)  # columns a receiver may query, at most the length
    if locality_cap is not None:
        cap = Fraction(locality_cap)
        if cap < 1:
            raise ValueError("locality cap below 1 admits no code")
        most = int(cap * m)
    # Receivers that query only m columns share them only with mutual
    # neighbours, so at most `tight` receivers have |R_i| = m and the
    # others need m + 1 columns.  No profile (max |R_i|, sum |R_i|) lies
    # below `floor`, so fewer than floor[0] columns refuse every code.
    mutual = max(sum(i in g.side[j - 1] for j in k) for i, k in enumerate(g.side, 1))
    mais = tables = None
    # Frontier bookkeeping on integer profiles (max |R_i|, sum |R_i|);
    # beta is ell/m, so within one length dominance reduces to these two.
    frontier: list[tuple[int, int, int, tuple[int, ...]]] = []
    for ell in lengths:
        tight = min(g.n, ell * (mutual + 1) // m)
        floor = (m + (tight < g.n), (m + 1) * g.n - tight)
        if floor[0] > min(ell, most) or any(
            fmx <= floor[0] and fsm <= floor[1] for _, fmx, fsm, _ in frontier
        ):
            continue
        # Any decodable code has rank m|S| on the rows of every induced
        # acyclic vertex set S, so ell >= m|S| and a larger acyclic set
        # leaves nothing to search.
        if mais is None:
            mais = max_acyclic_induced(g)
        if m * mais > ell:
            continue
        # The search space is the multisets of ell normalized columns, of
        # which there are (q^mn - 1)/(q - 1); counting them in closed form
        # refuses an oversized search before listing the columns.  The
        # budget counts every multiset, although prefixes that cannot
        # decode are skipped without being enumerated.
        encoders = math.comb((q**mn - 1) // (q - 1) + ell - 1, ell)
        if encoders > budget:
            raise BudgetExceededError(
                f"search enumerates {_decimal(encoders)} encoders, exceeding budget {budget}"
            )
        if tables is None:
            # Each maximum S becomes a virtual receiver, demanding S's
            # rows and knowing every other row, ahead of the real ones in
            # the encoder enumeration alone.
            virtual = []
            for s in _acyclic_sets(g, mais):
                demand = tuple(r for v in s for r in receiver_rows(g, m, v + 1)[0])
                virtual.append((demand, tuple(r for r in range(mn) if r not in demand)))
            columns = _normalized_columns(mn, q)
            rows = [receiver_rows(g, m, i) for i in range(1, g.n + 1)]
            everyone = _kernel.receiver_tables(columns, q, virtual + rows)
            tables = everyone[len(virtual):]
            # Receiver i's least |R_i| depends only on the multiset of its
            # proj columns, of the length's size: one memo serves them all.
            memos = [{} for _ in tables]

        # Only sizes are needed here; the witness query sets are built
        # for the final frontier alone.  Every receiver needs at least its
        # m demanded columns, so a receiver not yet sized counts m.  The
        # first encoder reaching `floor` ends the length's search.
        for ks in _kernel.decodable_encoders(everyone, range(len(columns)), ell, True):
            mx, sm = m, m * g.n
            for table, memo in zip(tables, memos):
                proj = table.proj
                key = tuple(sorted([proj[k] for k in ks]))
                least = memo.get(key, 0)  # 0: not sized yet; sizes are >= m
                if least == 0:
                    first = _kernel.first_query_set(table, ks, most)
                    least = memo[key] = None if first is None else len(first)
                if least is None:
                    break
                mx = max(mx, least)
                sm += least - m
                # A profile dominated or equalled by a frontier entry stays
                # so as more receivers are sized; the earlier entry keeps a tie.
                if any(fmx <= mx and fsm <= sm for _, fmx, fsm, _ in frontier):
                    break
            else:
                frontier = [
                    e for e in frontier if not (e[0] == ell and mx <= e[1] and sm <= e[2])
                ]
                frontier.append((ell, mx, sm, ks))
                if (mx, sm) == floor:
                    break

    points = []
    for ell, mx, sm, ks in frontier:
        firsts = [_kernel.first_query_set(table, ks, most) for table in tables]
        matrix = FqMatrix.from_columns([columns[k] for k in ks], mn, q)
        queries = tuple(frozenset(p + 1 for p in first) for first in firsts)
        witness = IndexCode(q=q, m=m, n=g.n, matrix=matrix, queries=queries)
        r, r_avg = overall_locality(witness)
        if (r, r_avg) != (Fraction(mx, m), Fraction(sm, m * g.n)):
            raise AssertionError("witness profile mismatch")
        require_plan(g, witness)
        points.append(ParetoPoint(Fraction(ell, m), r, r_avg, witness))
    points.sort(key=lambda p: p.profile())
    return points


def exhaustive_scalar_search(
    g: SideInformationGraph,
    q: int,
    ell: int,
    locality_cap: Fraction | int | None = None,
    budget: int | None = None,
) -> list[ParetoPoint]:
    """``exhaustive_vector_search`` at message length 1."""
    return exhaustive_vector_search(g, q, 1, ell, locality_cap, budget)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one converse inequality on one piece of context.

    status is "ok", "violated" or "not_applicable"; lhs and rhs are the
    two sides of the inequality, both ints (every converse check counts
    symbols, query sets or ranks), and None when not applicable.
    """

    name: str
    context: str
    status: str
    lhs: int | None = None
    rhs: int | None = None
    note: str = ""

    @property
    def slack(self) -> int | None:
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
        rows = FqMatrix.from_rows(basis, q)
        # Every combination but the first, the zero one.
        for coeffs in islice(product(range(q), repeat=len(basis)), 1, None):
            vec = vector_matrix(coeffs, rows)
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
    name: str, ctx: str, lhs: int, rhs: int, skip: str | None = None
) -> CheckResult:
    """The check lhs >= rhs, or "not_applicable" with the note skip when
    its precondition fails (lhs and rhs are then ignored)."""
    if skip is not None:
        return CheckResult(name=name, context=ctx, status="not_applicable", note=skip)
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
    and minrank(G_S) >= |S| - 1 when minrank(G) = n - 1.  Last, the
    fitting matrix's columns must lie in the encoder's column space.
    Preconditions that fail (including search budgets) yield
    "not_applicable" entries, never spurious violations.  When q^nullity
    exceeds NULL_ENUMERATION_LIMIT the supports come from a sample of
    null vectors, and a "not_applicable" null_support_family entry names
    its size.  Sums stay in integers: m(2*beta - n*r_avg) is 2*ell -
    sum |R_i|, and sum r_i is sum |R_i| at m = 1.
    """
    checks: list[CheckResult] = []
    sizes = [len(r) for r in code.queries]
    readers = Counter(chain.from_iterable(code.queries))
    checks.append(
        _inequality(
            "single_query_lower_bound", "all receivers",
            list(readers.values()).count(1), 2 * code.ell - sum(sizes),
            None if len(readers) == code.ell
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
        union_queries = set().union(*[code.queries[i - 1] for i in s])
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
                sum([sizes[i - 1] for i in s]),
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

    # lhs 0 >= rhs holds iff the fitting matrix's columns add nothing to
    # the rank of the encoder's column space: no pivot of (L | F) is F's,
    # read off one span pass over (L | F) with every column a generator.
    columns = span_format(code.matrix.column_list() + fm.matrix.column_list(), code.q)
    coords = span_coordinates(columns, len(columns), code.n, code.q)
    rhs = coords[code.ell :].count(None)
    checks.append(_inequality("fitting_column_space", "", 0, rhs))
    return ConverseReport(tuple(checks))
