import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gorlin.linalg import (
    det_and_adjugate,
    kernel_basis,
    rank,
    rref,
)

from conftest import mat_mul
from oracles import det_and_adjugate_by_solve, rref_by_fractions, transpose


def F(rows):
    return [[Fraction(v) for v in row] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rand_matrix(rng, n, m, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(m)] for _ in range(n)]


def test_kernel_examples():
    kb = kernel_basis(F([[1, 1]]))
    assert len(kb) == 1 and kb[0][0] == -kb[0][1] != 0
    assert kernel_basis(identity(3)) == []
    kb = kernel_basis(F([[0, 0], [0, 0]]))
    assert len(kb) == 2


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, n, m, -2, 2)
        assert rank(a) + len(kernel_basis(a)) == m
        for v in kernel_basis(a):
            prod = [sum(a[i][j] * v[j] for j in range(m)) for i in range(n)]
            assert all(x == 0 for x in prod)


def test_det_examples():
    d, adj = det_and_adjugate(identity(3))
    assert d == 1 and adj == identity(3)
    d, adj = det_and_adjugate(F([[1, 2], [3, 4]]))
    assert d == -2
    assert adj == F([[4, -2], [-3, 1]])


def _cofactor_det(m):
    # textbook expansion along the first row, as an independent oracle
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


def test_det_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(15):
        a = rand_matrix(rng, 4, 4)
        assert det_and_adjugate(a)[0] == _cofactor_det(a)


def test_adjugate_identity_random():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, n)
        d, adj = det_and_adjugate(a)
        if d == 0:  # the last draw is singular
            assert adj is None
            continue
        target = [[d if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        assert mat_mul(a, adj) == target
        assert mat_mul(adj, a) == target


def test_adjugate_of_singular_matrix():
    a = F([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert det_and_adjugate(a) == (0, None)


def test_det_and_adjugate_of_empty_fractional_singular_and_swapped_matrices():
    assert det_and_adjugate([]) == (1, [])
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert det_and_adjugate([[half, third], [Fraction(1, 4), Fraction(1, 5)]]) == (
        Fraction(1, 60), [[Fraction(1, 5), -third], [Fraction(-1, 4), half]])
    # rank 1 and rank 0: fewer pivots than rows
    assert det_and_adjugate([[half, third], [Fraction(3, 2), 1]]) == (0, None)
    assert det_and_adjugate([[0, 0], [0, 0]]) == (0, None)
    # the first pivot is found below the diagonal, so the row swap flips the sign
    assert det_and_adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    with pytest.raises(ValueError):
        det_and_adjugate([[1, 2]])


def test_rref_and_transpose():
    a = F([[2, 4], [1, 2], [0, 1]])
    red, pivots = rref(a)
    assert pivots == [0, 1]
    assert rank(a) == rank(transpose(a)) == 2


# entries up to 2^80 in size, fractions, and many zeros, so that pivots are
# sought below the diagonal
ENTRY = st.one_of(
    st.integers(-2**80, 2**80),
    st.fractions(min_value=-2**80, max_value=2**80, max_denominator=2**20),
    st.sampled_from([0, 0, 0, 1, -1]),
)


@st.composite
def square_matrices(draw):
    """A square matrix with its rows permuted, and whether one row was made a combination of others."""
    n = draw(st.integers(1, 6))
    rows = [[Fraction(draw(ENTRY)) for _ in range(n)] for _ in range(n)]
    dependent = n > 1 and draw(st.booleans())
    if dependent:
        i, j, *rest = draw(st.permutations(range(n)))
        a, b = draw(ENTRY), draw(ENTRY)
        rows[i] = [a * x + (b * y if rest else 0) for x, y in zip(rows[j], rows[rest[0] if rest else j])]
    return [rows[k] for k in draw(st.permutations(range(n)))], dependent


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(square_matrices())
def test_integer_adjugate_matches_the_fraction_reference(case):
    m, dependent = case
    n = len(m)
    d, adj = det_and_adjugate(m)
    assert (d, adj) == det_and_adjugate_by_solve(m)
    rk = rank(m)
    # full rank is the admissibility test of random_invsys, as delta != 0 is that of delta_and_Q
    assert rk == len(rref(m)[1]) and (rk == n) == (d != 0)
    if dependent or d == 0:
        assert d == 0 and adj is None and rk < n
        return
    target = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    assert mat_mul(m, adj) == target == mat_mul(adj, m)
    if all(v.denominator == 1 for row in m for v in row):
        ints = [[int(v) for v in row] for row in m]
        d2, adj2 = det_and_adjugate(ints)
        assert type(d2) is int and all(type(v) is int for row in adj2 for v in row)
        assert (d2, adj2) == (d, adj)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 7).flatmap(lambda c: st.lists(st.lists(ENTRY, min_size=c, max_size=c), min_size=1, max_size=7)))
def test_integer_rank_matches_rref(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    assert rank(m) == len(rref(m)[1]) == rank(transpose(m))


def test_rref_updates_the_columns_left_of_a_later_pivot():
    # column 1 is not a pivot column but lies left of the pivot in column 2,
    # so the pivot row 0 must be rescaled there when column 2 is cleared
    assert rref(F([[2, 4, 1], [1, 2, 3]])) == (F([[1, 2, 0], [0, 0, 1]]), [0, 2])
    assert rref(F([[2, 4, 1, 1], [1, 2, 3, 1]])) == (
        [[1, 2, 0, Fraction(2, 5)], [0, 0, 1, Fraction(1, 5)]], [0, 2])


@st.composite
def rref_cases(draw):
    """A wide, square or tall matrix with combined, zeroed and permuted rows and zeroed columns."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = [[Fraction(draw(ENTRY)) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=3)):
        # row i becomes a combination of two other rows, so the rank drops
        j, k = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        a, b = Fraction(draw(ENTRY)), Fraction(draw(ENTRY))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [Fraction(0)] * ncols
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = Fraction(0)
    return [rows[k] for k in draw(st.permutations(range(nrows)))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rref_cases())
@example(F([[2, 4, 1], [1, 2, 3]]))
@example(F([[2, 4, 1, 1], [1, 2, 3, 1]]))
@example([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)], [Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)]])
@example(F([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 0, 0]]))       # wide, rank 1, a zero row
@example(F([[0, 1], [0, 2], [0, 3], [0, 2**80]]))              # tall, rank 1, a zero column
@example(F([[0, 0, 0], [2**80 + 1, 3, 0], [0, 0, 0], [2**80, 1, 0], [1, 2, 0]]))
def test_rref_and_kernel_match_the_fraction_reference(m):
    red, pivots = rref(m)
    assert (red, pivots) == rref_by_fractions(m)
    assert len(pivots) == rank(m)
    ncols = len(m[0])
    kb = kernel_basis(m)
    assert len(kb) == ncols - len(pivots)
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m for v in kb)
    assert rank(kb) == len(kb)
    if all(v.denominator == 1 for row in m for v in row):
        assert rref([[int(v) for v in row] for row in m]) == (red, pivots)
