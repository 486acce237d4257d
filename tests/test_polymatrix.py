"""PolyMatrix: its sparse storage and its readers against a dense reference.

PolyMatrix keeps the nonzero entries of each row only.  mul works on packed
integer terms and is compared with a naive rational product; block,
max_degree, packed_rows and denominator_lcm with the same facts read off the
dense view (conftest.dense).
"""

from fractions import Fraction
from math import lcm

from hypothesis import Phase, given, settings, strategies as st

from gorlin.exactness import first_nonzero_product
from gorlin.hookbasis import BasisElement, OrderedBasis
from gorlin.polymatrix import PolyMatrix, denominator_lcm, pack
from gorlin.polynomials import Poly

from conftest import dense, sparse

# no shrinking: a failing case is small already, and is reported at once
PRODUCTS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    phases=[p for p in Phase if p is not Phase.shrink])
BIG = 2**70


def basis(d: int, kinds: str) -> OrderedBasis:
    """A placeholder basis with one element per letter of kinds, "X" or "Y"."""
    unit = (0,) * d
    return OrderedBasis(d, 2, 1, tuple((1, BasisElement(k, 1, (i,), unit)) for i, k in enumerate(kinds)))


def matrix(d: int, cells: list[list[Poly]], row_kinds: str = "", col_kinds: str = "") -> PolyMatrix:
    """The PolyMatrix of a dense list of rows; the bases are placeholders of the given kinds."""
    return sparse(basis(d, row_kinds or "X" * len(cells)), basis(d, col_kinds or "X" * len(cells[0])), cells)


def naive_product(a: PolyMatrix, b: PolyMatrix) -> list[dict[int, Poly]]:
    """sum_t a[i][t] * b[t][j] with Poly arithmetic over Fractions, nonzero entries only."""
    (n, k), (_, p) = a.shape, b.shape
    out = []
    for i in range(n):
        row = {}
        for j in range(p):
            acc = Poly.zero(a.d)
            for t in range(k):
                acc = acc + a.entry(i, t) * b.entry(t, j)
            if acc:
                row[j] = acc
        out.append(row)
    return out


def stores_no_zero(mat) -> bool:
    return all(p for row in mat.entries for p in row.values())


coefficients = st.one_of(
    st.integers(-BIG, BIG),
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10**6),
)


@st.composite
def dense_matrices(draw, d, nrows, ncols):
    """A dense list of rows of sparse polynomials: some entries, and some whole rows, zero."""
    mono = st.tuples(*[st.integers(0, 4)] * d)
    poly = st.dictionaries(mono, coefficients, max_size=4).map(lambda terms: Poly(d, terms))
    empty = st.just(Poly.zero(d))
    return [[draw(poly if draw(st.booleans()) else empty) for _ in range(ncols)]
            if draw(st.integers(0, 3)) else [Poly.zero(d)] * ncols
            for _ in range(nrows)]


@st.composite
def products(draw):
    """Two compatible matrices, built with sparse or with set, one cell set to a zero Poly."""
    d = draw(st.integers(1, 4))
    n, k, p = (draw(st.integers(1, 4)) for _ in range(3))
    a = matrix(d, draw(dense_matrices(d, n, k)))
    cells = draw(dense_matrices(d, k, p))
    b = PolyMatrix(basis(d, "X" * k), basis(d, "X" * p), [{} for _ in range(k)])
    for i, row in enumerate(cells):
        for j, q in enumerate(row):
            b.set(i, j, q)
    a.set(draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1)), Poly(d))
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
    terms = [(m, c) for row in cells for p in row for m, c in p.terms.items()]
    assert mat.max_degree() == max((sum(m) for m, _ in terms), default=0)
    scale = lcm(*(Fraction(c).denominator for _, c in terms))
    assert denominator_lcm(mat) == scale
    base = mat.max_degree() + 1
    packed = {(i, j): sorted(t) for i, row in enumerate(mat.packed_rows(scale, base)) for j, t in row}
    assert packed == {(i, j): sorted((pack(m, base), int(c * scale)) for m, c in p.terms.items())
                      for i, row in enumerate(cells) for j, p in enumerate(row) if p}


def test_mul_with_large_fractional_coefficients_is_exact():
    x1, x2 = (1, 0), (0, 1)
    c = Fraction(3 * 2**65 + 1, 7)
    a = matrix(2, [[Poly(2, {x1: c, x2: Fraction(-5, 11)}), Poly(2, {x2: 2**66})]])
    b = matrix(2, [[Poly(2, {x1: Fraction(1, 3)})], [Poly(2, {(1, 1): Fraction(2, 9)})]])
    assert denominator_lcm(a) == 77 and denominator_lcm(b) == 9
    got = a.mul(b)
    assert got == naive_product(a, b)
    assert got[0][0] == Poly(2, {(2, 0): c / 3, (1, 1): Fraction(-5, 33), (1, 2): Fraction(2**67, 9)})


def test_mul_cancels_to_zero_and_the_witness_is_the_first_nonzero_entry():
    x1, x2, x3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    a = matrix(3, [[Poly.monomial(x1), Poly.monomial(x2)], [Poly.monomial(x1), Poly.monomial(x1)]])
    b = matrix(3, [[Poly.monomial(x2, Fraction(1, 2)), Poly.monomial(x3)],
                   [Poly.monomial(x1, Fraction(-1, 2)), Poly.zero(3)]])
    prod = a.mul(b)
    assert prod == naive_product(a, b)
    assert 0 not in prod[0]
    assert first_nonzero_product({1: a, 2: b}) == (1, 0, 1, Poly.monomial((1, 0, 1)))


def test_the_product_witness_is_the_lowest_column_not_the_first_inserted():
    # row 0 of a b meets column 1 through t = 0 before column 0 through t = 1,
    # so its dict holds column 1 first
    x1, x2 = (1, 0), (0, 1)
    a = matrix(2, [[Poly.monomial(x1), Poly.monomial(x2)]])
    b = matrix(2, [[Poly.zero(2), Poly.monomial(x1)], [Poly.monomial(x2), Poly.zero(2)]])
    prod = a.mul(b)
    assert list(prod[0]) == [1, 0]
    assert first_nonzero_product({1: a, 2: b}) == (1, 0, 0, Poly.monomial((0, 2)))


def test_entry_and_set():
    x = Poly.monomial((1, 0))
    mat = matrix(2, [[Poly.zero(2), x]])
    assert mat.entries == [{1: x}]
    assert mat.entry(0, 0) == Poly.zero(2) and mat.entry(0, 1) is x
    mat.set(0, 0, x)
    mat.set(0, 1, x - x)
    assert mat.entries == [{0: x}]
    assert mat.mod_x1().entries == [{}]
    assert list(matrix(2, [[x, x], [x, Poly.zero(2)]]).nonzero()) == [(0, 0, x), (0, 1, x), (1, 0, x)]
