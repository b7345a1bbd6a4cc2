"""Search kernel.

Hot primitives shared by the brute-force min-rank solver and the
exhaustive encoder searches.  Column vectors are passed around as base-q
integer codes: digit ``r`` of a code is the entry at (0-based) row ``r``,
with row 0 in the least significant position.  For q = 2 the routines run
on plain int bitmasks, for odd primes on digit sequences; results,
including enumeration order and tie-breaking, are the same for both.

Decodability has one test, an incremental echelon basis per receiver and
projection.  ``receiver_tables`` projects the candidate columns once per
search; ``decodable_encoders`` enumerates column sets depth-first on
those tables and skips every prefix that no completion can make
decodable, both for the encoders of a search and, in
``first_query_set``, for the query sets of one receiver.  A search sizes
each receiver's least query set with ``first_query_set`` and builds the
witness masks with ``min_query_sets`` only for the encoders it keeps.
``minrank_dfs`` fills fitting matrices column by column on the same
incremental basis.
"""

from __future__ import annotations

__all__ = [
    "decodable_encoders",
    "first_query_set",
    "min_query_sets",
    "minrank_dfs",
    "receiver_tables",
]


def decode_column(code: int, mn: int, q: int) -> tuple[int, ...]:
    """Expand a base-q column code into a tuple of mn digits."""
    digits = []
    for _ in range(mn):
        digits.append(code % q)
        code //= q
    return tuple(digits)


class _BitBasis:
    """Incremental GF(2) echelon basis on int bitmasks, keyed by highest
    set bit.  ``push`` returns a token, or None when the vector is already
    in the span; ``pop(token)`` undoes the latest push not yet undone."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, int] = {}

    def push(self, v: int):
        pivots = self.pivots
        while v:
            h = v.bit_length() - 1
            b = pivots.get(h)
            if b is None:
                pivots[h] = v
                return h
            v ^= b
        return None

    def pop(self, token) -> None:
        if token is not None:
            del self.pivots[token]


class _DigitBasis:
    """Incremental F_q echelon basis on digit sequences, same contract as
    ``_BitBasis``.  Every basis vector has pivot entry 1 and zeros at the
    pivots of the vectors pushed before it, so one pass in push order
    reduces a new vector."""

    __slots__ = ("q", "rows")

    def __init__(self, q: int):
        self.q = q
        self.rows = []  # (vector, pivot) in push order

    def push(self, vec):
        q = self.q
        for bvec, bp in self.rows:
            f = vec[bp]
            if f:
                vec = [(a - f * b) % q for a, b in zip(vec, bvec)]
        for piv, x in enumerate(vec):
            if x:
                if x != 1:
                    inv = pow(x, -1, q)
                    vec = [(y * inv) % q for y in vec]
                self.rows.append((vec, piv))
                return piv
        return None

    def pop(self, token) -> None:
        if token is not None:
            self.rows.pop()


def _new_basis(q: int):
    return _BitBasis() if q == 2 else _DigitBasis(q)


def _project_bits(code: int, keep_rows) -> int:
    v = 0
    for t, r in enumerate(keep_rows):
        if (code >> r) & 1:
            v |= 1 << t
    return v


def receiver_tables(codes, mn, q, rows):
    """Per receiver, (|demand rows|, proj_a, proj_b) over the candidate
    columns.

    codes: base-q codes of the candidate columns.  rows: per receiver,
    its (demand rows, side rows) from ``graphs.receiver_rows``, 0-based.
    proj_a[k] is column k with the receiver's side rows removed, proj_b[k]
    with its side and demand rows removed: int bitmasks for q = 2, digit
    tuples otherwise.  Receiver i decodes from a column set T iff
    rank(proj_a[T]) - rank(proj_b[T]) == |demand rows|.
    """
    digits = list(codes) if q == 2 else [decode_column(c, mn, q) for c in codes]
    tables = []
    for demand_rows, side_rows in rows:
        keep_a = [r for r in range(mn) if r not in side_rows]
        keep_b = [r for r in keep_a if r not in demand_rows]
        if q == 2:
            proj_a = [_project_bits(c, keep_a) for c in digits]
            proj_b = [_project_bits(c, keep_b) for c in digits]
        else:
            proj_a = [tuple(c[r] for r in keep_a) for c in digits]
            proj_b = [tuple(c[r] for r in keep_b) for c in digits]
        tables.append((len(demand_rows), proj_a, proj_b))
    return tables


def decodable_encoders(tables, candidates, size, q, repeat):
    """Yield the column sets from which every receiver of ``tables``
    decodes its demands.

    candidates: indices into the tables' columns; size >= 1.  Yields tuples
    of positions into ``candidates``, in lexicographic order:
    nondecreasing when ``repeat`` (the tuples of
    ``combinations_with_replacement(range(len(candidates)), size)``, the
    encoders of a search) and strictly increasing otherwise (those of
    ``combinations``, the query sets of one encoder), keeping only the
    tuples whose columns pass the test of ``receiver_tables``.

    Columns are chosen depth-first, each receiver keeping one incremental
    basis of its proj_a columns (A) and one of its proj_b columns (B).
    Its gap |demands| - (rank A - rank B) never rises as columns are
    added and falls by at most one per column, so a prefix leaving some
    gap above the number of columns still to choose has no decodable
    completion and is skipped.
    """
    receivers = [
        (proj_a, proj_b, _new_basis(q), _new_basis(q)) for _, proj_a, proj_b in tables
    ]
    gaps = [n_dem for n_dem, _, _ in tables]
    chosen = [0] * size
    n_cand = len(candidates)

    def extend(depth, start):
        left = size - depth - 1  # columns still to choose after this one
        for pos in range(start, n_cand if repeat else n_cand - left):
            k = candidates[pos]
            pushed = []
            viable = True
            for i, (proj_a, proj_b, basis_a, basis_b) in enumerate(receivers):
                ta = basis_a.push(proj_a[k])
                # B is a projection of A, so a column already in span A
                # is in span B too and leaves both ranks unchanged.
                tb = None if ta is None else basis_b.push(proj_b[k])
                pushed.append((ta, tb))
                if ta is not None and tb is None:
                    gaps[i] -= 1
                if gaps[i] > left:
                    viable = False
                    break
            if viable:
                chosen[depth] = pos
                if left:
                    yield from extend(depth + 1, pos if repeat else pos + 1)
                else:
                    yield tuple(chosen)
            for i, (ta, tb) in enumerate(pushed):
                _, _, basis_a, basis_b = receivers[i]
                basis_a.pop(ta)
                basis_b.pop(tb)
                if ta is not None and tb is None:
                    gaps[i] += 1

    yield from extend(0, 0)


def first_query_set(table, ks, q, max_size):
    """First query set in (size, lexicographic) order from which the
    receiver of ``table`` decodes, or None.

    table: one entry of ``receiver_tables``; ks: the encoder's columns,
    as indices into the table.  Returns a tuple of positions into ks of
    at most ``max_size`` columns, or None if every decoding query set is
    larger.  The answer depends only on the multiset of the receiver's
    proj_a columns, because proj_b is a projection of proj_a.
    """
    for size in range(table[0], min(max_size, len(ks)) + 1):
        first = next(decodable_encoders([table], ks, size, q, False), None)
        if first is not None:
            return first
    return None


def min_query_sets(tables, ks, q, max_size):
    """Smallest query set per receiver for one encoder, or None.

    tables: from ``receiver_tables``; ks: the encoder's columns, as
    indices into the tables.  max_size: upper bound on |R_i| (locality
    cap).

    Returns one bitmask per receiver (bit p = column ks[p] queried),
    choosing for each receiver its ``first_query_set``, or None if some
    receiver has no decodable subset within the cap.
    """
    out = []
    for table in tables:
        first = first_query_set(table, ks, q, max_size)
        if first is None:
            return None
        out.append(sum(1 << pos for pos in first))
    return tuple(out)


def minrank_dfs(n: int, q: int, free_rows):
    """Minimum rank over all matrices with unit diagonal and free entries
    confined to the given rows per column; everything else is zero.

    free_rows: per column i (0-based), sorted 0-based row indices that may
    take arbitrary values.  Columns are filled in ascending order, each
    column's free digits enumerated as an ascending base-q counter with
    the smallest free row in the least significant digit.  Branches whose
    partial column rank already reaches the best known rank are pruned,
    and the search ends at rank 1, the least a unit diagonal allows.

    Returns (minrank, witness column codes).
    """
    q_pows = [q**t for t in range(n + 1)]

    def column_code(i: int, counter: int) -> int:
        code = q_pows[i]  # unit diagonal
        v = counter
        for r in free_rows[i]:
            d = v % q
            v //= q
            if d:
                code += d * q_pows[r]
        return code

    best = n + 1
    best_cols: tuple[int, ...] = ()
    col_codes = [0] * n

    # An incremental basis, pushed and popped along the DFS, costs one
    # reduction per column instead of re-eliminating the whole prefix.
    basis = _new_basis(q)
    if q == 2:
        push = basis.push
    else:

        def push(code: int):
            return basis.push(decode_column(code, n, q))

    pop = basis.pop

    def dfs(depth: int, partial_rank: int):
        nonlocal best, best_cols
        if best <= 1:
            return
        if partial_rank >= best:
            return
        if depth == n:
            best = partial_rank
            best_cols = tuple(col_codes)
            return
        n_free = len(free_rows[depth])
        for counter in range(q**n_free):
            code = column_code(depth, counter)
            col_codes[depth] = code
            h = push(code)
            dfs(depth + 1, partial_rank + (0 if h is None else 1))
            pop(h)
            if best <= 1:
                return

    dfs(0, 0)
    return best, best_cols
