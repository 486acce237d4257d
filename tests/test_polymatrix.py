"""PolyMatrix: its sparse storage and its readers against a dense reference.

PolyMatrix keeps the nonzero entries of each row only, each as its term
dict, with no zero coefficient.  mul packs the
columns of the right factor into ints and is compared with a naive rational
product (oracles.naive_product), on wide, cancelling and large-coefficient
cases too; block, monomials, cleared and denominator_lcm with the same
facts read off the dense view (conftest.dense).
"""

from fractions import Fraction
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import Phase, given, settings, strategies as st

from gorlin import polymatrix
from gorlin.exactness import first_nonzero_product
from gorlin.hookbasis import BasisElement, OrderedBasis
from gorlin.polymatrix import PolyMatrix, denominator_lcm
from gorlin.polynomials import Terms

from conftest import dense, sparse
from oracles import Poly, naive_product

# no shrinking: a failing case is small already, and is reported at once
PRODUCTS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    phases=[p for p in Phase if p is not Phase.shrink])
BIG = 2**70
HUGE = 2**300


def basis(d: int, kinds: str) -> OrderedBasis:
    """A placeholder basis with one element per letter of kinds, "X" or "Y"."""
    unit = (0,) * d
    return OrderedBasis(d, 2, 1, tuple((1, BasisElement(k, 1, (i,), unit)) for i, k in enumerate(kinds)))


def matrix(d: int, cells: list[list[Terms]], row_kinds: str = "", col_kinds: str = "") -> PolyMatrix:
    """The PolyMatrix of a dense list of rows; the bases are placeholders of the given kinds."""
    return sparse(basis(d, row_kinds or "X" * len(cells)), basis(d, col_kinds or "X" * len(cells[0])), cells)


def stores_no_zero(mat) -> bool:
    return all(p and all(p.values()) for row in mat.entries for p in row.values())


def coefficients(bound: int = BIG):
    return st.one_of(
        st.integers(-bound, bound),
        st.fractions(min_value=-bound, max_value=bound, max_denominator=10**6),
    )


@st.composite
def dense_matrices(draw, d, nrows, ncols, bound=BIG):
    """A dense list of rows of term dicts of mixed degree: some entries, and some whole rows, zero."""
    mono = st.tuples(*[st.integers(0, 4)] * d)
    poly = st.dictionaries(mono, coefficients(bound), max_size=4).map(lambda terms: Poly(d, terms).terms)
    empty = st.just({})
    return [[draw(poly if draw(st.booleans()) else empty) for _ in range(ncols)]
            if draw(st.integers(0, 3)) else [{}] * ncols
            for _ in range(nrows)]


@st.composite
def products(draw):
    """Two compatible matrices, built with sparse or with set, one cell set to a zero ({})."""
    d = draw(st.integers(1, 4))
    n, k, p = (draw(st.integers(1, 4)) for _ in range(3))
    a = matrix(d, draw(dense_matrices(d, n, k)))
    cells = draw(dense_matrices(d, k, p))
    b = PolyMatrix(basis(d, "X" * k), basis(d, "X" * p), [{} for _ in range(k)])
    for i, row in enumerate(cells):
        for j, q in enumerate(row):
            b.set(i, j, q)
    a.set(draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1)), {})
    return a, b, cells


@PRODUCTS
@given(products())
def test_set_and_mul_store_no_zero(case):
    a, b, cells = case
    assert dense(b) == cells
    assert stores_no_zero(a) and stores_no_zero(b)
    assert all(p for row in a.mul(b) for p in row.values())


@PRODUCTS
@given(products())
def test_mul_equals_the_rational_product(case):
    a, b, _ = case
    assert a.mul(b) == naive_product(a, b)


@st.composite
def wide_products(draw):
    """a (n x k) and b (k x p) with up to 24 columns of coefficients up to 2^300, the chunk size in bits.

    Either factor may be zero, and rows and columns of b are often empty.
    When cancel is drawn, each column of b is q times a Koszul syzygy of two
    entries of row 0 of a, so every entry of that row of a b is a sum over t
    that cancels to zero.
    """
    d = draw(st.integers(1, 3))
    n, k, p = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 24))
    bound = draw(st.sampled_from([2**8, BIG, HUGE]))
    zero = [[{}] * p for _ in range(k)]
    cells_a = draw(dense_matrices(d, n, k, bound))
    cancel = k >= 2 and draw(st.booleans())
    if cancel:
        cells_b = zero
        q = st.dictionaries(st.tuples(*[st.integers(0, 2)] * d), coefficients(bound), max_size=2)
        for j in range(p):
            s, t = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            f = Poly(d, draw(q))
            cells_b[s][j], cells_b[t][j] = (f * Poly(d, cells_a[0][t])).terms, (-(f * Poly(d, cells_a[0][s]))).terms
    else:
        cells_b = draw(st.sampled_from([zero]) | dense_matrices(d, k, p, bound))
    bits = draw(st.sampled_from([1, 64, polymatrix.CHUNK_BITS]))
    return matrix(d, cells_a), matrix(d, cells_b), cancel, bits


@PRODUCTS
@given(wide_products())
def test_packed_columns_equal_the_rational_product(case):
    a, b, cancel, bits = case
    with patch.object(polymatrix, "CHUNK_BITS", bits):
        prod = a.mul(b)
    assert prod == naive_product(a, b)
    assert not cancel or prod[0] == {}


def test_an_output_coefficient_at_the_width_bound_is_decoded():
    # A = 3 and every L_j = 7, and the entries are 21, -21 and 21 = +-A L_j in slots of
    # w = 21.bit_length() + 1 = 6 bits of one int: a width without its + 1 reads 21 as -11,
    # and a decode without the signed borrow reads -21 as 43
    x1, x2 = (1, 0), (0, 1)
    a = matrix(2, [[{x1: 3}, {x1: 3}]])
    b = matrix(2, [[{x2: c} for c in (5, -5, 7)], [{x2: 2}, {x2: -2}, {}]])
    prod = a.mul(b)
    assert prod == [{0: {(1, 1): 21}, 1: {(1, 1): -21}, 2: {(1, 1): 21}}]
    assert prod == naive_product(a, b)


def test_a_product_wider_than_one_chunk_is_exact():
    # 300-bit coefficients give slots of over 600 bits, so 40 columns take several chunks
    x1, x2 = (1, 0), (0, 1)
    a = matrix(2, [[{x1: HUGE - 1, x2: -HUGE}, {x2: HUGE // 3}]])
    b = matrix(2, [[{x1: (-1) ** j * (HUGE - j)} for j in range(40)],
                   [{x1: j, x2: HUGE + j} if j else {x2: HUGE} for j in range(40)]])
    assert 40 * 600 > polymatrix.CHUNK_BITS
    assert a.mul(b) == naive_product(a, b)


@PRODUCTS
@given(st.data())
def test_readers_agree_with_the_dense_view(data):
    d = data.draw(st.integers(1, 3), label="d")
    row_kinds = data.draw(st.text("XY", min_size=1, max_size=4), label="row kinds")
    col_kinds = data.draw(st.text("XY", min_size=1, max_size=4), label="column kinds")
    cells = data.draw(dense_matrices(d, len(row_kinds), len(col_kinds)), label="entries")
    mat = matrix(d, cells, row_kinds, col_kinds)
    assert dense(mat) == cells and stores_no_zero(mat)
    for kind in "XY":
        rows = [i for i, k in enumerate(row_kinds) if k == kind]
        cols = [j for j, k in enumerate(col_kinds) if k == kind]
        blk = mat.block(kind)
        assert dense(blk) == [[cells[i][j] for j in cols] for i in rows]
        assert stores_no_zero(blk)
    terms = [(m, c) for row in cells for p in row for m, c in p.items()]
    scale = lcm(*(Fraction(c).denominator for _, c in terms))
    assert denominator_lcm(mat) == scale
    assert mat.monomials() == {m for m, _ in terms}
    cleared = mat.cleared(scale)
    assert dense(cleared) == [[Poly(d, p).scale(scale).terms for p in row] for row in cells] and stores_no_zero(cleared)
    assert all(type(c) is int for row in cleared.entries for p in row.values() for c in p.values())
    assert (cleared is mat) == (scale == 1)


def test_cleared_refuses_a_scale_that_leaves_a_fraction():
    x1, x2 = (1, 0), (0, 1)
    mat = matrix(2, [[{x1: 3}, {x2: Fraction(1, 6)}]])
    for scale in (1, 2, 4):
        with pytest.raises(AssertionError, match="scale .* leaves a fraction in entry \\(0, 1\\)"):
            mat.cleared(scale)
    assert dense(mat.cleared(12)) == [[{x1: 36}, {x2: 2}]]


def test_mul_with_large_fractional_coefficients_is_exact():
    x1, x2 = (1, 0), (0, 1)
    c = Fraction(3 * 2**65 + 1, 7)
    a = matrix(2, [[{x1: c, x2: Fraction(-5, 11)}, {x2: 2**66}]])
    b = matrix(2, [[{x1: Fraction(1, 3)}], [{(1, 1): Fraction(2, 9)}]])
    assert denominator_lcm(a) == 77 and denominator_lcm(b) == 9
    got = a.mul(b)
    assert got == naive_product(a, b)
    assert got[0][0] == {(2, 0): c / 3, (1, 1): Fraction(-5, 33), (1, 2): Fraction(2**67, 9)}


def test_mul_cancels_to_zero_and_the_witness_is_the_first_nonzero_entry():
    x1, x2, x3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    a = matrix(3, [[{x1: 1}, {x2: 1}], [{x1: 1}, {x1: 1}]])
    b = matrix(3, [[{x2: Fraction(1, 2)}, {x3: 1}],
                   [{x1: Fraction(-1, 2)}, {}]])
    prod = a.mul(b)
    assert prod == naive_product(a, b)
    assert 0 not in prod[0]
    assert first_nonzero_product({1: a, 2: b}) == (1, 0, 1, {(1, 0, 1): 1})


def test_the_product_witness_is_the_lowest_column_not_the_first_inserted():
    # row 0 of a b meets column 1 through t = 0 before column 0 through t = 1,
    # so its dict holds column 1 first
    x1, x2 = (1, 0), (0, 1)
    a = matrix(2, [[{x1: 1}, {x2: 1}]])
    b = matrix(2, [[{}, {x1: 1}], [{x2: 1}, {}]])
    prod = a.mul(b)
    assert list(prod[0]) == [1, 0]
    assert first_nonzero_product({1: a, 2: b}) == (1, 0, 0, {(0, 2): 1})


def test_entry_and_set():
    x = {(1, 0): 1}
    mat = matrix(2, [[{}, x]])
    assert mat.entries == [{1: x}]
    assert mat.entry(0, 0) == {} and mat.entry(0, 1) is x
    mat.set(0, 0, x)
    mat.set(0, 1, {})
    assert mat.entries == [{0: x}]
    assert mat.mod_x1().entries == [{}]
    assert list(matrix(2, [[x, x], [x, {}]]).nonzero()) == [(0, 0, x), (0, 1, x), (1, 0, x)]
    y = {(1, 0): 2, (0, 1): Fraction(1, 3)}
    assert matrix(2, [[y, x]]).mod_x1().entries == [{0: {(0, 1): Fraction(1, 3)}}]
