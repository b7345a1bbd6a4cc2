"""Field and matrix kernel, checked against enumeration oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idxloc.linalg import (
    MODULUS_BOUND,
    FqMatrix,
    is_prime,
    null_space_basis,
    rank,
    require_prime,
    span_coordinates,
    span_format,
    unit_vector,
)

from helpers import (
    _reference_coordinates,
    _reference_solve_each,
    oracle_null_space,
    oracle_rank,
    oracle_solve_in_span,
)


def _column_coordinates(m):
    """span_coordinates of m's columns, every one a generator."""
    return span_coordinates(span_format(m.column_list(), m.q), m.cols, m.rows, m.q)


def _target_coordinates(gens, targets, n, q):
    """Each target's coordinates over all the generators, all of length n,
    from one span_coordinates call."""
    vectors = span_format([*gens, *targets], q)
    return span_coordinates(vectors, len(gens), n, q)[len(gens):]


def test_prime_field_rejects_composites():
    require_prime(2)
    require_prime(13)
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            require_prime(bad)


def test_prime_field_bound():
    require_prime(4294967291)  # the largest prime below 2^32
    for big in (4294967311, 2**61 - 1):  # primes above it
        with pytest.raises(ValueError, match="below 2\\^32"):
            require_prime(big)


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    # A sieve below 200,000, then trial division on the largest moduli.
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]
    rng = random.Random(61)
    for n in [rng.randrange(2**31, MODULUS_BOUND) for _ in range(300)]:
        assert is_prime(n) == _trial_division(n), n
    # A strong pseudoprime to the bases 2, 3, 5 and 7, and the largest
    # prime and odd composite below the bound.
    assert not is_prime(3215031751)  # 151 * 751 * 28351
    assert is_prime(4294967291)
    assert not is_prime(4294967293)  # 9241 * 464773
    # The least composite that passes the bases 2, 7 and 61 lies above
    # the bound, which is refused.
    with pytest.raises(ValueError, match="below 2\\^32"):
        is_prime(4759123141)


def test_matrix_validation():
    with pytest.raises(ValueError):
        FqMatrix(2, 2, 4, (0, 1, 1, 0))  # composite modulus
    with pytest.raises(ValueError):
        FqMatrix(2, 2, 3, (0, 1, 1))  # wrong entry count
    with pytest.raises(ValueError):
        FqMatrix(1, 2, 3, (0, 3))  # entry out of range
    with pytest.raises(ValueError):
        FqMatrix(1, 2, 3, (-1, 0))  # negative entry
    assert FqMatrix(0, 0, 3, ()).entries == ()


def test_unit_vector():
    for n in range(1, 6):
        for position in range(n):
            assert unit_vector(n, position) == tuple(
                1 if i == position else 0 for i in range(n)
            )
        for position in (-1, n):
            with pytest.raises(ValueError, match="out of range"):
                unit_vector(n, position)
    with pytest.raises(ValueError, match="out of range"):
        unit_vector(0, 0)


def test_rank_identity():
    assert rank(FqMatrix.identity(3, 2)) == 3


def test_rank_duplicate_rows():
    assert rank(FqMatrix.from_rows([[1, 1], [1, 1]], 2)) == 1


def test_rank_cycle_encoder_rows():
    # Rows of the length-3 encoder for the 4-receiver cycle instance.
    m = FqMatrix.from_rows([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    assert oracle_rank(m) == 3
    assert rank(m) == 3


def test_rank_equals_transpose_rank():
    m = FqMatrix.from_rows([[1, 2, 0], [2, 4, 0]], 5)
    transpose = FqMatrix.from_rows(m.column_list(), m.q)
    assert rank(m) == rank(transpose) == 1


def test_column_out_of_range_raises():
    m = FqMatrix.from_rows([[1, 2, 0], [2, 4, 1]], 5)
    assert m.column(2) == (0, 1)
    for j in (-1, 3, 4):
        with pytest.raises(IndexError):
            m.column(j)
    with pytest.raises(IndexError):
        FqMatrix(2, 0, 5, ()).column(0)


def test_null_space_full_rank_is_empty():
    assert null_space_basis(FqMatrix.identity(3, 3)) == []


def test_null_space_two_equations():
    m = FqMatrix.from_rows([[1, 1, 0], [0, 1, 1]], 2)
    assert oracle_null_space(m) == {(0, 0, 0), (1, 1, 1)}
    assert null_space_basis(m) == [(1, 1, 1)]


def test_null_space_zero_matrix():
    basis = null_space_basis(FqMatrix(2, 2, 2, (0,) * 4))
    assert len(basis) == 2


def test_solve_in_span_standard_basis():
    gens = [unit_vector(3, i) for i in range(3)]
    assert _target_coordinates(gens, [(1, 0, 1)], 3, 2) == [(1, 0, 1)]


def test_solve_in_span_two_generators():
    gens = [(1, 1, 0), (0, 1, 1)]
    assert oracle_solve_in_span(gens, (1, 0, 1), 2) == (1, 1)
    assert _target_coordinates(gens, [(1, 0, 1)], 3, 2) == [(1, 1)]


def test_solve_in_span_absent():
    assert _target_coordinates([(1, 0, 0)], [(0, 1, 0)], 3, 2) == [None]


def test_solve_each_in_span_hand_example():
    # The second target repeats the first, out-of-span one: pivoting on
    # the first target's column would put the second in the span.
    gens = [(1, 0, 0), (2, 0, 0), (0, 1, 1)]
    targets = [(0, 1, 0), (0, 1, 0), (2, 1, 1), (0, 0, 0), (0, 2, 2)]
    answers = [None, None, (2, 0, 1), (0, 0, 0), (0, 0, 2)]
    assert _target_coordinates(gens, targets, 3, 3) == answers
    assert _reference_solve_each(gens, targets, 3) == answers


def test_solve_each_in_span_without_generators():
    assert _target_coordinates([], [(0, 0), (0, 1), (2, 0)], 2, 3) == [(), None, None]
    assert _target_coordinates([], [], 2, 2) == []


def test_rref_identity():
    m = FqMatrix.identity(4, 5)
    assert _column_coordinates(m) == _reference_coordinates(m) == [None] * 4


def test_rref_hand_example():
    # Column 0 is zero, so column 1 is the one pivot; column 0's
    # coordinate on it is its reduced entry, 0.
    m = FqMatrix.from_rows([[0, 1], [0, 2]], 3)
    assert _column_coordinates(m) == _reference_coordinates(m) == [(0, 0), None]


def test_rref_zero_matrix():
    m = FqMatrix(2, 3, 2, (0,) * 6)
    assert _column_coordinates(m) == _reference_coordinates(m) == [(0, 0, 0)] * 3


small_q = st.sampled_from([2, 3, 5])


@st.composite
def matrices(draw, max_dim=6):
    q = draw(small_q)
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return FqMatrix(rows, cols, q, tuple(entries))


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(null_space_basis(m)) == m.cols


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_null_space_vectors_annihilate(m):
    for b in null_space_basis(m):
        assert all(sum(a * c for a, c in zip(row, b)) % m.q == 0 for row in m.row_list())


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=4))
def test_rank_matches_span_counting_oracle(m):
    assert rank(m) == oracle_rank(m)


@st.composite
def span_instances(draw):
    q = draw(small_q)
    n = draw(st.integers(1, 5))
    n_gens = draw(st.integers(0, 4))
    gens = [
        tuple(draw(st.integers(0, q - 1)) for _ in range(n)) for _ in range(n_gens)
    ]
    target = tuple(draw(st.integers(0, q - 1)) for _ in range(n))
    return q, gens, target


@settings(max_examples=80, deadline=None)
@given(span_instances())
def test_solve_in_span_round_trip(instance):
    q, gens, target = instance
    (coeffs,) = _target_coordinates(gens, [target], len(target), q)
    if coeffs is None:
        assert oracle_solve_in_span(gens, target, q) is None
    else:
        combo = [0] * len(target)
        for c, gen in zip(coeffs, gens):
            for t in range(len(target)):
                combo[t] = (combo[t] + c * gen[t]) % q
        assert tuple(combo) == target


@st.composite
def multi_target_instances(draw):
    q, gens, target = draw(span_instances())
    n = len(target)
    targets = [target]
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [draw(st.integers(0, q - 1)) for _ in gens]
        in_span = tuple(sum(c * g[t] for c, g in zip(coeffs, gens)) % q for t in range(n))
        free = tuple(draw(st.integers(0, q - 1)) for _ in range(n))
        targets.append(draw(st.sampled_from([in_span, free, (0,) * n, target])))
    return q, gens, targets


@settings(max_examples=80, deadline=None)
@given(multi_target_instances())
def test_solve_each_in_span_answers_each_target_alone(instance):
    q, gens, targets = instance
    n = len(targets[0])
    answers = _target_coordinates(gens, targets, n, q)
    assert answers == _reference_solve_each(gens, targets, q)
    for target, coeffs in zip(targets, answers):
        assert [coeffs] == _target_coordinates(gens, [target], n, q)
        assert (coeffs is None) == (oracle_solve_in_span(gens, target, q) is None)
        if coeffs is not None:
            combo = tuple(
                sum(c * g[t] for c, g in zip(coeffs, gens)) % q
                for t in range(len(target))
            )
            assert combo == target


@settings(max_examples=100, deadline=None)
@given(matrices(max_dim=5), st.data())
def test_span_coordinates_contract(m, data):
    # The columns of m, the first g of them generators and the rest
    # targets, each with its coordinates over the generators before it.
    q, vectors = m.q, m.column_list()
    g = data.draw(st.integers(0, m.cols))
    coords = span_coordinates(span_format(vectors, q), g, m.rows, q)
    assert len(coords) == m.cols
    kept = [k for k in range(g) if coords[k] is None]
    for j, (v, c) in enumerate(zip(vectors, coords)):
        before = vectors[: min(j, g)]
        rank_before = oracle_rank(FqMatrix.from_rows(before, q))
        inside = oracle_rank(FqMatrix.from_rows(before + [v], q)) == rank_before
        assert (c is not None) == inside
        if c is None:
            continue
        assert len(c) == g
        assert all(x == 0 for k, x in enumerate(c) if k >= j or k not in kept)
        combo = tuple(
            sum(x * w[t] for x, w in zip(c, vectors)) % q for t in range(m.rows)
        )
        assert combo == v
