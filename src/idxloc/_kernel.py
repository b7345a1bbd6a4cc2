"""Search kernel.

Hot primitives shared by the brute-force min-rank solver and the
exhaustive encoder searches.  Callers pass and receive columns as digit
tuples (entry ``r`` at 0-based row ``r``) and query sets as tuples of
positions.  ``_vector_format`` picks int bitmasks for q = 2 and digit
tuples for odd primes, once per set of tables or min-rank search;
results, including enumeration order and tie-breaking, are the same for
both.  Each format has one pivot rule, the lowest nonzero row, and one
reduction loop, ``reduce``, which the min-rank search, the span
transitions and ``linalg.span_coordinates`` all call: linalg shares
these formats and this pivot rule, so the package has one elimination.

Decodability has one test, a table of span transitions per receiver.
``receiver_tables`` projects the candidate columns once per search and
gives each receiver an empty ``_Transitions``: its states are the spans
of the receiver's projected columns, each with its decoding gap, and the
state a column leads to is computed on first use and then looked up.
``decodable_encoders`` enumerates column sets depth-first on those
tables and skips every prefix that no completion can make decodable,
both for the encoders of a search and, in ``first_query_set``, for the
query sets of one receiver, so all of them share one table per receiver
for as long as the search keeps its tables, which ``bounds`` keeps
across every length of one call.  A search sizes each
receiver's least query set with ``first_query_set`` and, for the
encoders it keeps, builds the witness query sets with it again.  A
table may also stand for a virtual receiver, one that demands a set of
rows on which every decodable code has full rank and knows every other
row: the encoder search of ``bounds`` adds one per maximum induced
acyclic vertex set, ahead of the real receivers, to the tables it
enumerates encoders on, and sizes and builds query sets on the real
receivers' tables alone.

``minrank_dfs`` fills fitting matrices column by column, reducing each
column against the prefix's reduced columns, a list cut back on
backtracking.  It makes one depth-first pass per target rank t, from the
caller's floor of all rows up, and returns the first matrix that a pass
completes.  It keeps the mask of rows that some chosen column touches,
and descends into a column only while the prefix rank plus a floor on
the untouched rows, a bound from the caller on the rank of the later
columns there, is at most t: the chosen columns vanish on those rows,
so the matrix is block triangular there and has at least the rank of
both diagonal blocks together.
``bounds.minrank_bruteforce`` calls it once per strongly connected
component that is neither a single vertex nor a cycle, on that
component's rows alone, each column's free rows one bitmask, its
out-neighbours relabelled in the component.  The witness stays the first min-rank matrix of
the whole graph in counter order: that matrix is block diagonal by
component, since zeroing the entries between components keeps the rank
minimal and lowers every column's counter, and a column's counter over
its component's rows orders it as its counter over all its free rows
does when the other entries are 0.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, product
from operator import itemgetter

__all__ = [
    "decodable_encoders",
    "first_query_set",
    "minrank_dfs",
    "receiver_tables",
]


def _vector_format(q: int):
    """(reduce, span_with, entry, join, unpack) for vectors over F_q: int
    bitmasks, entry t at bit t, for q = 2 and digit tuples otherwise.

    Every vector pivots on its lowest nonzero row: a bitmask on its lowest
    set bit, a digit tuple on its first nonzero index, scaled so that entry
    is 1.  reduce(basis, v) makes one pass over a basis in which each
    vector is 0 at the pivots of the vectors before it, a push-order list
    and a fully reduced span alike, and returns a falsy value iff v lies in
    the span; otherwise the reduced v, a bitmask or a (pivot, digit tuple)
    pair, which is 0 at every pivot of the basis.  span_with is the
    canonical-span step of ``_Transitions``.  join builds a vector from the
    values entry(t, d) of its digits d, last row first; unpack(v, n)
    returns the n digits of v."""
    if q == 2:
        return _bit_reduce, _bit_span_with, lambda t, d: d << t, sum, _bits
    reverse = itemgetter(slice(None, None, -1))
    return (
        partial(_digit_reduce, q), partial(_digit_span_with, q),
        lambda t, d: d, reverse, lambda v, n: v,
    )


def _bits(v: int, n: int) -> tuple[int, ...]:
    return tuple([v >> t & 1 for t in range(n)])


def _bit_reduce(basis, v: int) -> int:
    for b in basis:
        if v & b & -b:
            v ^= b
    return v


def _digit_reduce(q, basis, v):
    for p, b in basis:
        f = v[p]
        if f:
            v = [(x - f * y) % q for x, y in zip(v, b)]
    for p, x in enumerate(v):
        if x:
            if x != 1:
                inv = pow(x, -1, q)
                return p, tuple([y * inv % q for y in v])
            return p, tuple(v)
    return None


def _bit_span_with(span, v):
    """Fully reduced echelon basis of span + v, and the pivot v adds, or
    None when v is in span.  span: the basis, ascending int bitmasks."""
    v = _bit_reduce(span, v)
    if not v:
        return None
    h = v & -v
    span = tuple(sorted([b ^ v if b & h else b for b in span] + [v]))
    return span, h.bit_length() - 1


def _digit_span_with(q, span, v):
    """``_bit_span_with`` over F_q on digit tuples.  span: the basis,
    ascending (pivot, vector) pairs."""
    grown = _digit_reduce(q, span, v)
    if grown is None:
        return None
    h, v = grown
    rows = [
        (p, tuple((x - b[h] * y) % q for x, y in zip(b, v))) if b[h] else (p, b)
        for p, b in span
    ]
    return tuple(sorted(rows + [grown])), h


class _Transitions:
    """One receiver's span transitions over the candidate columns, filled
    in on first use.

    A state is a subspace of the receiver's proj span, numbered in order
    of discovery from 0, the zero space, and keyed by its fully reduced
    echelon basis.  The demand rows are proj's highest entries, from
    index ``threshold`` on, and every basis vector pivots on its lowest
    nonzero entry, so the vectors pivoting on a demand row span exactly
    the part of the state that is zero off the demand rows, and gaps[s],
    |demand rows| less their number, is the receiver's gap
    |demands| - (rank A - rank B).  rows[s][k] is the state that column
    k leads to from s, or None until ``step`` computes it."""

    __slots__ = (
        "demands", "threshold", "proj", "span_with", "spans", "index", "gaps", "rows"
    )

    def __init__(self, demands, threshold, proj, span_with):
        self.demands = demands
        self.threshold = threshold
        self.proj = proj
        self.span_with = span_with
        self.spans = [()]
        self.index = {(): 0}
        self.gaps = [demands]
        self.rows = [None]

    def row(self, s):
        """The transitions out of state s, allocated on first use."""
        row = self.rows[s]
        if row is None:
            row = self.rows[s] = [None] * len(self.proj)
        return row

    def step(self, s, k):
        """Compute and record the state that column k leads to from s."""
        grown = self.span_with(self.spans[s], self.proj[k])
        t = s
        if grown is not None:
            span, pivot = grown
            t = self.index.get(span)
            if t is None:
                t = self.index[span] = len(self.spans)
                self.spans.append(span)
                self.gaps.append(self.gaps[s] - (pivot >= self.threshold))
                self.rows.append(None)
        self.rows[s][k] = t
        return t


def _project(entry, join, q, columns, keep):
    """Each column restricted to the rows ``keep``, joined."""
    values = []  # per kept row, last first: each column's entry value
    for t, r in reversed(list(enumerate(keep))):
        by_digit = [entry(t, d) for d in range(q)]
        values.append([by_digit[c[r]] for c in columns])
    return list(map(join, zip(*values)))


def receiver_tables(columns, q, rows):
    """Per receiver, a ``_Transitions`` over the candidate columns.

    columns: the candidate columns, digit tuples of one length.  rows: per
    receiver, its (demand rows, side rows) from ``graphs.receiver_rows``,
    0-based.  A table's ``demands`` is |demand rows| and its ``proj[k]``
    is column k with the receiver's side rows removed, hashable, with the
    other rows first and the demand rows last, as its highest entries,
    so that they are the pivots of the part of a span that is zero off
    them (see ``_Transitions``).  Receiver i decodes from a column
    set T iff rank(proj[T]) - rank(proj_b[T]) == |demand rows|, where
    proj_b drops the demand rows from proj as well.  Each table is empty
    when built and fills in as the enumerators of this module walk it, so
    every enumeration on the same tables, the encoders of one search and
    the query sets of its encoders alike, shares what the others computed.

    A virtual receiver, given as demand rows D and every other row as its
    side rows, gets a table whose proj is each column restricted to D and
    whose gap is |D| - rank(proj[T]).  It decodes from T iff T has full
    rank on the rows D, so on tables ahead of the real receivers' it lets
    ``decodable_encoders`` skip a prefix once more of its columns are
    dependent on D than the length less |D|.
    """
    _, span_with, entry, join, _ = _vector_format(q)
    mn = len(columns[0])
    tables = []
    for demand_rows, side_rows in rows:
        keep = [
            *(r for r in range(mn) if r not in side_rows and r not in demand_rows),
            *demand_rows,
        ]
        proj = _project(entry, join, q, columns, keep)
        threshold = len(keep) - len(demand_rows)
        tables.append(_Transitions(len(demand_rows), threshold, proj, span_with))
    return tables


def decodable_encoders(tables, candidates, size, repeat):
    """Yield the column sets from which every receiver of ``tables``
    decodes its demands.

    candidates: indices into the tables' columns; size >= 1.  Yields tuples
    of positions into ``candidates``, in lexicographic order:
    nondecreasing when ``repeat`` (the tuples of
    ``combinations_with_replacement(range(len(candidates)), size)``, the
    encoders of a search) and strictly increasing otherwise (those of
    ``combinations``, the query sets of one encoder), keeping only the
    tuples whose columns pass the test of ``receiver_tables``.

    Columns are chosen depth-first, each receiver keeping on each frame
    the state of its transitions, the span of its proj columns so far,
    and testing a column with one table lookup.  A state's gap
    |demands| - (rank A - rank B) never rises as columns are added and
    falls by at most one per column, so a prefix leaving some gap above
    the number of columns still to choose has no decodable completion and
    is skipped.  The transitions live as long as the tables, one search,
    and a lookup never met before is computed once, so the order, the
    pruning and the answers are those of a fresh elimination per prefix.
    """
    chosen = [0] * size
    n_cand = len(candidates)
    # Without recursion, so size is not bounded by the interpreter's
    # recursion limit: each open depth above the current one keeps its
    # iterator over the positions still to try and its receivers' frame.
    stack = []
    depth, left = 0, size - 1  # left: columns still to choose after this one
    frame = [(t.row(0), t.gaps, t.step, 0) for t in tables]
    positions = iter(range(n_cand if repeat else n_cand - left))
    while True:
        for pos in positions:
            k = candidates[pos]
            after = []
            for row, gaps, step, s in frame:
                t = row[k]
                if t is None:
                    t = step(s, k)
                if gaps[t] > left:
                    break
                after.append(t)
            else:
                chosen[depth] = pos
                if not left:
                    yield tuple(chosen)
                    continue
                stack.append((positions, frame))
                depth, left = depth + 1, left - 1
                frame = [(t.row(s), t.gaps, t.step, s) for t, s in zip(tables, after)]
                start = pos if repeat else pos + 1
                positions = iter(range(start, n_cand if repeat else n_cand - left))
                break
        else:
            if not stack:
                return
            positions, frame = stack.pop()
            depth, left = depth - 1, left + 1


def first_query_set(table, ks, max_size):
    """First query set in (size, lexicographic) order from which the
    receiver of ``table`` decodes, or None.

    table: one entry of ``receiver_tables``; ks: the encoder's columns,
    as indices into the table.  Returns a tuple of positions into ks of
    at most ``max_size`` columns, or None if every decoding query set is
    larger.  The answer depends only on the multiset of the receiver's
    proj columns, because the decoding test reads nothing else.
    """
    for size in range(table.demands, min(max_size, len(ks)) + 1):
        first = next(decodable_encoders([table], ks, size, False), None)
        if first is not None:
            return first
    return None


def minrank_dfs(q: int, free, floor):
    """Minimum rank over all matrices with unit diagonal and free entries
    confined to the given rows per column; everything else is zero.

    free: per column i (0-based), the int bitmask of the 0-based rows
    that may take arbitrary values; the matrix is len(free) square.
    Columns are filled in ascending order, each column's free digits
    enumerated as an ascending base-q counter with the smallest free row
    in the least significant digit.

    Target passes: the floor of all rows (see the depth bound below), a
    lower bound on the rank of every fill, is one on the minimum, and
    the search makes one depth-first pass per target rank t from it (or
    from 1, if it is 0) up, each cutting only subtrees that hold no
    matrix of rank at most t and returning the first matrix it
    completes.  So pass t completes the
    first matrix of rank at most t in counter order, if there is one.  A
    pass that completes none proves the minimum above t, so the first
    pass that completes one runs at t = minimum and returns the first
    minimum-rank matrix.  Depth bound: floor(untouched) is a lower bound
    on the rank of the columns not yet chosen on the rows of the 0-based
    bitmask untouched, the rows where every chosen column is 0 (a free
    entry set to 0 leaves its row untouched).  Those rows all lie past
    the chosen columns, since each column has a unit diagonal, so the
    later columns include the square submatrix on them.  A column is
    descended into only if its prefix rank plus the floor of the rows it
    and the columns before it leave untouched is at most t, because the
    chosen columns vanish on those rows, so the matrix is block
    triangular there and its rank is at least that sum.  floor is called
    at most once per mask, and its values are kept across the passes of
    this call only.  For any valid floor the result is the first
    minimum-rank matrix in counter order; a floor of 0 starts at 1 and
    cuts only on the prefix rank.

    Cost: when the minimum equals the floor of all rows, as on most
    small graphs, the one pass cuts from the first column on every
    branch whose prefix rank plus floor exceeds the minimum.  A single
    pass that starts from rank n + 1 and lowers its bound to each better
    matrix it finds visits every node that any pass here visits, so a
    minimum g above that floor costs at most g + 1 times the nodes of
    that search.  A floor that exceeds the rank of every fill raises
    ValueError.

    The prefix's rank is kept as a plain list of its reduced columns,
    each pivoting on its lowest nonzero row: a column is reduced against
    it once, the rank with the column is the list's length plus 1 when
    the reduced column is nonzero, a descent appends that column, and
    backtracking cuts the list back to the length it had.

    Returns (minrank, witness columns as digit tuples).
    """
    n = len(free)
    cols = [None] * n
    full = (1 << n) - 1
    floors = {}  # untouched mask -> floor(mask)

    # One reduction per column against the prefix's reduced columns,
    # instead of re-eliminating the whole prefix.  Unlike the encoder
    # searches it keeps no table of span transitions: its spans are
    # subspaces of F_q^n, too many to tabulate once n is more than a few.
    reduce, _, entry, join, unpack = _vector_format(q)
    basis = []
    # Per column, the values each entry may take, last row first, since
    # product() steps its last factor fastest; tuples, which product()
    # takes without copying.
    values = [tuple(entry(r, d) for d in range(q)) for r in range(n)]
    factors = [
        [
            values[r] if rows >> r & 1 else (values[r][int(r == i)],)
            for r in reversed(range(n))
        ]
        for i, rows in enumerate(free)
    ]
    # The rows a column touches: for q = 2 the column itself, otherwise
    # the support of its digits.
    if q == 2:
        support = None
    else:
        units = [1 << r for r in range(n)]

        def support(col):
            return sum(compress(units, col))

    # The floors do not depend on the target, so one memo serves every
    # pass.
    for target in range(max(1, floor(full)), n + 1):
        # Without recursion, so n is not bounded by the interpreter's
        # recursion limit: each open depth above the current one keeps
        # its candidate iterator, the rows its prefix touches and its
        # prefix rank, the length the basis is cut back to when the
        # search returns there.
        stack = []
        depth, touched = 0, 0
        candidates = map(join, product(*factors[0]))
        while True:
            for col in candidates:
                v = reduce(basis, col)
                rank = len(basis) + 1 if v else len(basis)
                if rank <= target:
                    after = touched | (col if support is None else support(col))
                    low = floors.get(after)
                    if low is None:
                        low = floors[after] = floor(full ^ after)
                    if rank + low <= target:
                        cols[depth] = col
                        if depth + 1 == n:
                            return rank, tuple([unpack(c, n) for c in cols])
                        stack.append((candidates, touched, len(basis)))
                        if v:
                            basis.append(v)
                        depth, touched = depth + 1, after
                        candidates = map(join, product(*factors[depth]))
                        break
            else:
                if not stack:
                    break
                candidates, touched, rank = stack.pop()
                del basis[rank:]
                depth -= 1
    raise ValueError("floor exceeds the rank of every fill")
