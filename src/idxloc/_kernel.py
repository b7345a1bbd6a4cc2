"""Search kernel.

Hot primitives shared by the brute-force min-rank solver and the
exhaustive encoder searches.  Column vectors are passed around as base-q
integer codes: digit ``r`` of a code is the entry at (0-based) row ``r``,
with row 0 in the least significant position.  For q = 2 the routines run
on plain int bitmasks; odd primes use digit lists and the elimination of
``linalg``.  Results, including enumeration order and tie-breaking, are
the same for both paths.

``decodable_encoders`` enumerates the encoders of a search depth-first
with one incremental echelon basis per receiver and projection, and skips
every column prefix that no completion can make decodable;
``min_query_sets`` then finds the query sets of each encoder it yields.
``minrank_dfs`` fills fitting matrices column by column on the same
incremental basis.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import _eliminate

__all__ = ["decodable_encoders", "min_query_sets", "minrank_dfs"]


def decode_column(code: int, mn: int, q: int) -> tuple[int, ...]:
    """Expand a base-q column code into a tuple of mn digits."""
    digits = []
    for _ in range(mn):
        digits.append(code % q)
        code //= q
    return tuple(digits)


def _rank_bits(vectors) -> int:
    # Greedy GF(2) elimination keyed by highest set bit; on int bitmasks
    # it is far faster than the digit-list elimination of linalg.
    pivots: dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            if h in pivots:
                v ^= pivots[h]
            else:
                pivots[h] = v
                rank += 1
                break
    return rank


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


class _ReceiverView:
    """Per-receiver projections used by the decodability test.

    Receiver i can decode from query set T iff
    rank(L_T restricted off its side rows)
      - rank(L_T restricted off side and demand rows) == |demands|.
    """

    __slots__ = ("n_dem", "proj_a", "proj_b", "q")

    def __init__(self, col_digits, mn, q, demand_rows, side_rows):
        side = set(side_rows)
        dem = set(demand_rows)
        keep_a = [r for r in range(mn) if r not in side]
        keep_b = [r for r in keep_a if r not in dem]
        self.n_dem = len(demand_rows)
        self.q = q
        if q == 2:
            self.proj_a = [_project_bits(c, keep_a) for c in col_digits]
            self.proj_b = [_project_bits(c, keep_b) for c in col_digits]
        else:
            self.proj_a = [tuple(c[r] for r in keep_a) for c in col_digits]
            self.proj_b = [tuple(c[r] for r in keep_b) for c in col_digits]

    def decodable(self, subset) -> bool:
        if self.q == 2:
            ra = _rank_bits([self.proj_a[k] for k in subset])
            rb = _rank_bits([self.proj_b[k] for k in subset])
        else:
            ra = len(_eliminate([self.proj_a[k] for k in subset], self.q))
            rb = len(_eliminate([self.proj_b[k] for k in subset], self.q))
        return ra - rb == self.n_dem


def decodable_encoders(codes, ell, mn, q, demands, side):
    """Yield the encoders from which every receiver decodes its demands.

    codes: base-q codes of the candidate columns; an encoder is a
    multiset of ell of them.  demands/side: per receiver, tuples of
    0-based row indices.  Yields exactly the tuples of
    ``combinations_with_replacement(codes, ell)`` on which the full
    column set passes the decodability test of ``min_query_sets``, in
    that order.

    Columns are chosen depth-first, each receiver keeping one incremental
    basis of the chosen columns off its side rows (A) and one off its
    side and demand rows (B).  Its gap |demands| - (rank A - rank B)
    never rises as columns are added and falls by at most one per column,
    so a prefix leaving some gap above the number of columns still to
    choose has no decodable completion and is skipped.
    """
    digits = list(codes) if q == 2 else [decode_column(c, mn, q) for c in codes]
    receivers = []
    for demand_rows, side_rows in zip(demands, side):
        view = _ReceiverView(digits, mn, q, demand_rows, side_rows)
        receivers.append((view.proj_a, view.proj_b, _new_basis(q), _new_basis(q)))
    gaps = [len(d) for d in demands]
    chosen = [0] * ell
    n_codes = len(codes)

    def extend(depth, start):
        left = ell - depth - 1  # columns still to choose after this one
        for k in range(start, n_codes):
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
                chosen[depth] = codes[k]
                if left:
                    yield from extend(depth + 1, k)
                else:
                    yield tuple(chosen)
            for i, (ta, tb) in enumerate(pushed):
                _, _, basis_a, basis_b = receivers[i]
                basis_a.pop(ta)
                basis_b.pop(tb)
                if ta is not None and tb is None:
                    gaps[i] += 1

    yield from extend(0, 0)


def min_query_sets(col_codes, mn, q, demands, side, max_size):
    """Smallest query set per receiver for one encoder, or None.

    col_codes: base-q codes of the encoder columns.
    demands/side: per receiver, tuples of 0-based row indices.
    max_size: upper bound on |R_i| (locality cap); the full column set is
    still used for the fast infeasibility test.

    Returns one bitmask per receiver (bit k = column k queried), choosing
    for each receiver the first feasible subset in (size, lexicographic)
    order, or None if some receiver has no feasible subset within the cap.
    """
    ell = len(col_codes)
    if q == 2:
        digits = list(col_codes)
    else:
        digits = [decode_column(c, mn, q) for c in col_codes]
    full = range(ell)
    out = []
    for demand_rows, side_rows in zip(demands, side):
        view = _ReceiverView(digits, mn, q, demand_rows, side_rows)
        if not view.decodable(full):
            return None
        found = None
        lo = len(demand_rows)
        for size in range(lo, min(max_size, ell) + 1):
            for subset in combinations(full, size):
                if view.decodable(subset):
                    found = sum(1 << k for k in subset)
                    break
            if found is not None:
                break
        if found is None:
            return None
        out.append(found)
    return tuple(out)


def minrank_dfs(n: int, q: int, free_rows, stop_at: int = 1):
    """Minimum rank over all matrices with unit diagonal and free entries
    confined to the given rows per column; everything else is zero.

    free_rows: per column i (0-based), sorted 0-based row indices that may
    take arbitrary values.  Columns are filled in ascending order, each
    column's free digits enumerated as an ascending base-q counter with
    the smallest free row in the least significant digit.  Branches whose
    partial column rank already reaches the best known rank are pruned.

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
        if best <= stop_at:
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
            if best <= stop_at:
                return

    dfs(0, 0)
    return best, best_cols
