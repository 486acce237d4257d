import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gorlin.linalg import (
    det_and_adjugate,
    det_bareiss,
    identity,
    kernel_basis,
    mat_mul,
    rank,
    rref,
    transpose,
)

from oracles import det_and_adjugate_by_solve


def F(rows):
    return [[Fraction(v) for v in row] for row in rows]


def rand_matrix(rng, n, m, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(m)] for _ in range(n)]


def test_kernel_examples():
    kb = kernel_basis(F([[1, 1]]))
    assert len(kb) == 1 and kb[0][0] == -kb[0][1] != 0
    assert kernel_basis(identity(3)) == []
    kb = kernel_basis(F([[0, 0], [0, 0]]))
    assert len(kb) == 2
    assert kernel_basis([], ncols=2) == identity(2)


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
        assert det_bareiss(a) == _cofactor_det(a)


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
    assert det_bareiss(m) == d
    rk = rank(m)
    assert rk == len(rref(m)[1])
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
