"""Exact dense linear algebra over prime fields F_q.

Matrices are immutable row-major tuples with entries in [0, q); matrix
coordinates are 0-based.  All operations are pure functions: inputs are
never mutated and results are fresh values, so everything here is safe to
share across threads.

One column reduction, ``span_coordinates``, on the search kernel's
vectors (int bitmasks for q = 2, digit tuples otherwise) and with its
pivot rule, is the only elimination here: ``rank`` and
``null_space_basis`` call it, and so do decodability, query pruning,
support normalization and the converse checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from ._kernel import _bit_reduce, _digit_reduce

Vector = tuple[int, ...]

_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to 0 and 1


# Field moduli must lie below this bound, below which the Miller-Rabin
# bases of is_prime are exact.
MODULUS_BOUND = 2**32


def is_prime(n: int) -> bool:
    """Primality of n below MODULUS_BOUND, by Miller-Rabin with the bases
    2, 7 and 61, which is exact below 4,759,123,141; raises ValueError
    for a larger odd n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    if n >= MODULUS_BOUND:
        raise ValueError(f"field modulus must be below 2^32, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for a in (2, 7, 61):
        x = pow(a, (n - 1) >> s, n)
        if x in (0, 1, n - 1):  # 0: n is the base a itself
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
        flat = tuple([int(e) % q for r in rows for e in r])
        return cls(n_rows, n_cols, q, flat)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], n_rows: int, q: int) -> "FqMatrix":
        for c in columns:
            if len(c) != n_rows:
                raise ValueError("column length mismatch")
        flat = tuple([int(col[i]) % q for i in range(n_rows) for col in columns])
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
    return tuple([v % q for v in out])


def span_format(vectors: Sequence[Sequence[int]], q: int) -> list:
    """The vectors, with entries in [0, q), in the format of
    ``span_coordinates``: int bitmasks with entry t at bit t for q = 2,
    the digit sequences themselves otherwise."""
    if q != 2:
        return list(vectors)
    units = span_units(max(map(len, vectors), default=0), 2)
    return [sum(compress(units, v)) for v in vectors]


def span_units(n: int, q: int) -> list:
    """The n unit vectors of length n in the format of ``span_format``."""
    return [1 << t if q == 2 else unit_vector(n, t) for t in range(n)]


def span_coordinates(vectors: Sequence, g: int, n: int, q: int) -> list[Vector | None]:
    """Each vector's coordinates over the generators before it.

    vectors: length n, in the format of ``span_format``; the first g are
    the generators, the rest targets.  Per vector, a tuple of g
    coefficients that combine the generators to it, zero on each
    generator in the span of the ones before it and on each from this
    one on; or None if it lies outside the span of the generators before
    it (all g, for a target), as for the pivot columns of an RREF.

    One pass of the kernel's reduction per vector, against the generators
    with None so far.  Each vector is tagged past its n rows with a 1 in
    slot n + g - k for generator k and in slot n for a target: the first
    slot that the reduction can make nonzero, so it is never scaled.  A
    vector whose rows reduce to 0 has its coordinates in its other tag
    entries, negated.
    """
    basis: list = []
    coords: list[Vector | None] = []
    if q == 2:
        rows = (1 << n) - 1
        for j, v in enumerate(vectors):
            own = 1 << (n + g - j if j < g else n)
            v = _bit_reduce(basis, v | own)
            if v & rows:
                if j < g:
                    basis.append(v)
                coords.append(None)
            else:
                # The tag's bits, generator 0 first: the binary numeral's
                # digits after a leading 1 that pads it to g digits.
                tag = (v ^ own) >> n + 1 | 1 << g
                coords.append(tuple(bin(tag)[3:].encode().translate(_BITS)))
        return coords
    blank = [0] * (g + 1)
    for j, v in enumerate(vectors):
        tagged = [*v, *blank]
        tagged[n + g - j if j < g else n] = 1
        p, v = _digit_reduce(q, basis, tagged)
        if p < n:
            if j < g:
                basis.append((p, v))
            coords.append(None)
        else:
            c = [-x % q for x in v[:n:-1]]
            if j < g:
                c[j] = 0
            coords.append(tuple(c))
    return coords


def _column_coordinates(m: FqMatrix) -> list[Vector | None]:
    """``span_coordinates`` of m's columns, all of them generators."""
    return span_coordinates(span_format(m.column_list(), m.q), m.cols, m.rows, m.q)


def rank(m: FqMatrix) -> int:
    """Dimension of the column space (equals the row rank)."""
    return _column_coordinates(m).count(None)


def null_space_basis(m: FqMatrix) -> list[Vector]:
    """Basis of {x : m x = 0}, one vector per free column of the RREF.

    The basis vector for free column f has a 1 at position f; basis size
    is cols - rank(m).
    """
    q = m.q
    basis: list[Vector] = []
    for f, c in enumerate(_column_coordinates(m)):
        if c is not None:
            vec = [-x % q for x in c]
            vec[f] = 1
            basis.append(tuple(vec))
    return basis


def unit_vector(n: int, position: int) -> Vector:
    """Standard basis vector with a 1 at the given 0-based position."""
    if not 0 <= position < n:
        raise ValueError("unit vector position out of range")
    return (0,) * position + (1,) + (0,) * (n - position - 1)
