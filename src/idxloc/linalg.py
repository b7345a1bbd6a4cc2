"""Exact dense linear algebra over prime fields F_q.

Matrices are immutable row-major tuples with entries in [0, q); matrix
coordinates are 0-based.  All operations are pure functions: inputs are
never mutated and results are fresh values, so everything here is safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Vector = tuple[int, ...]


# Field moduli must lie below this bound, so trial division takes a few
# milliseconds at most.
MODULUS_BOUND = 2**32


def is_prime(n: int) -> bool:
    """Trial-division primality test for n below MODULUS_BOUND; raises
    ValueError for a larger odd n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    if n >= MODULUS_BOUND:
        raise ValueError(f"field modulus must be below 2^32, got {n}")
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(q: int) -> None:
    if not isinstance(q, int) or not is_prime(q):
        raise ValueError(f"field modulus must be prime, got {q!r}")


@dataclass(frozen=True)
class FqMatrix:
    """Immutable dense matrix over F_q, stored row-major."""

    rows: int
    cols: int
    q: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        require_prime(self.q)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if self.entries and not (
            0 <= min(self.entries) and max(self.entries) < self.q
        ):
            raise ValueError(f"entries must lie in [0, {self.q})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], q: int) -> "FqMatrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        if any(len(r) != n_cols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(int(e) % q for r in rows for e in r)
        return cls(n_rows, n_cols, q, flat)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], n_rows: int, q: int) -> "FqMatrix":
        for c in columns:
            if len(c) != n_rows:
                raise ValueError("column length mismatch")
        flat = tuple(int(col[i]) % q for i in range(n_rows) for col in columns)
        return cls(n_rows, len(columns), q, flat)

    @classmethod
    def identity(cls, n: int, q: int) -> "FqMatrix":
        return cls(n, n, q, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return self.entries[j :: self.cols]

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def column_list(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def hstack(self, other: "FqMatrix") -> "FqMatrix":
        if other.rows != self.rows or other.q != self.q:
            raise ValueError("hstack requires matching row count and field")
        rows = [self.row(i) + other.row(i) for i in range(self.rows)]
        return FqMatrix(self.rows, self.cols + other.cols, self.q, tuple(x for r in rows for x in r))


def vector_matrix(x: Sequence[int], m: FqMatrix) -> Vector:
    """Row-vector-matrix product x^T m."""
    if len(x) != m.rows:
        raise ValueError("vector length mismatch")
    q = m.q
    out = [0] * m.cols
    for i, xi in enumerate(x):
        if xi % q == 0:
            continue
        base = i * m.cols
        for j in range(m.cols):
            out[j] += xi * m.entries[base + j]
    return tuple(v % q for v in out)


def _eliminate(rows: list, k: int, q: int) -> list[int]:
    """Gauss-Jordan elimination of rows in place, pivoting on the first k
    columns only; the later columns are carried along by the same row
    operations.  Returns the pivot column indices, ascending; each pivot
    row is scaled to a leading 1 and every other row is zero in that
    column."""
    n_rows = len(rows)
    pivots: list[int] = []
    row = 0
    for col in range(k):
        for r in range(row, n_rows):
            if rows[r][col]:
                break
        else:
            continue
        pivot = rows[r]
        rows[r] = rows[row]
        inv = pow(pivot[col], -1, q)
        if inv != 1:
            pivot = [(e * inv) % q for e in pivot]
        rows[row] = pivot
        for r in range(n_rows):
            f = rows[r][col]
            if f and r != row:
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], pivot)]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return pivots


def rref(m: FqMatrix) -> tuple[FqMatrix, tuple[int, ...]]:
    """Reduced row-echelon form of m, by Gauss-Jordan elimination.

    Returns the reduced matrix together with the pivot column indices
    (0-based, ascending).  The row space is preserved and the number of
    pivots equals the rank.
    """
    rows = m.row_list()
    pivots = _eliminate(rows, m.cols, m.q)
    flat = tuple(e for r in rows for e in r)
    return FqMatrix(m.rows, m.cols, m.q, flat), tuple(pivots)


def rank(m: FqMatrix) -> int:
    """Dimension of the column space (equals the row rank)."""
    return len(rref(m)[1])


def null_space_basis(m: FqMatrix) -> list[Vector]:
    """Basis of {x : m x = 0}, one vector per free column of the RREF.

    The basis vector for free column f has a 1 at position f; basis size
    is cols - rank(m).
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    q = m.q
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = [0] * m.cols
        vec[f] = 1
        for row_idx, pc in enumerate(pivots):
            vec[pc] = (-reduced.entry(row_idx, f)) % q
        basis.append(tuple(vec))
    return basis


def solve_each_in_span(
    generators: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
    q: int,
) -> list[Vector | None]:
    """Express each target as a linear combination of the generators.

    One elimination of [generators | targets] serves every target: it
    pivots only on generator columns, so the row operations, and with
    them each target's answer, do not depend on the other targets.  A
    target lies in the span iff it is zero in every row below the rank;
    its coefficients are then its entries in the pivot rows, and the free
    coefficients (those of generators in the span of earlier ones) are
    zero.  Returns one coefficient vector or None per target, in order.

    Raises ValueError if the vectors do not all share one length.
    """
    require_prime(q)
    lengths = {len(v) for v in (*generators, *targets)}
    if len(lengths) > 1:
        raise ValueError("generator/target dimension mismatch")
    rows = [[e % q for e in r] for r in zip(*generators, *targets)]
    g = len(generators)
    pivots = _eliminate(rows, g, q)
    below = rows[len(pivots) :]
    answers: list[Vector | None] = []
    for col in range(g, g + len(targets)):
        if any(r[col] for r in below):
            answers.append(None)
            continue
        coeffs = [0] * g
        for row_idx, pc in enumerate(pivots):
            coeffs[pc] = rows[row_idx][col]
        answers.append(tuple(coeffs))
    return answers


def unit_vector(n: int, position: int) -> Vector:
    """Standard basis vector with a 1 at the given 0-based position."""
    if not 0 <= position < n:
        raise ValueError("unit vector position out of range")
    return (0,) * position + (1,) + (0,) * (n - position - 1)
