"""PolyMatrix.mul, which works on packed integer terms, against a naive rational product."""

from fractions import Fraction

from hypothesis import Phase, given, settings, strategies as st

from gorlin.exactness import first_nonzero_product
from gorlin.hookbasis import OrderedBasis
from gorlin.polymatrix import PolyMatrix, denominator_lcm
from gorlin.polynomials import Poly

# no shrinking: a failing product is small already, and is reported at once
PRODUCTS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    phases=[p for p in Phase if p is not Phase.shrink])
BIG = 2**70


def matrix(d: int, entries: list[list[Poly]]) -> PolyMatrix:
    """A PolyMatrix with placeholder bases; mul reads only their lengths and d."""
    def basis(k):
        return OrderedBasis(d, 2, 1, ((1, None),) * k)

    return PolyMatrix(basis(len(entries)), basis(len(entries[0])), entries)


def naive_product(a: PolyMatrix, b: PolyMatrix) -> list[list[Poly]]:
    """sum_t a[i][t] * b[t][j] with Poly arithmetic over Fractions."""
    (n, k), (_, p) = a.shape, b.shape
    out = [[Poly.zero(a.d) for _ in range(p)] for _ in range(n)]
    for i in range(n):
        for j in range(p):
            for t in range(k):
                out[i][j] = out[i][j] + a.entries[i][t] * b.entries[t][j]
    return out


coefficients = st.one_of(
    st.integers(-BIG, BIG),
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10**6),
)


@st.composite
def products(draw):
    """Two compatible matrices of sparse polynomials, some entries zero."""
    d = draw(st.integers(1, 4))
    n, k, p = (draw(st.integers(1, 4)) for _ in range(3))
    mono = st.tuples(*[st.integers(0, 4)] * d)
    poly = st.dictionaries(mono, coefficients, max_size=4).map(lambda terms: Poly(d, terms))

    def entries(rows, cols):
        return [[draw(poly) for _ in range(cols)] for _ in range(rows)]

    return matrix(d, entries(n, k)), matrix(d, entries(k, p))


@PRODUCTS
@given(products())
def test_mul_equals_the_rational_product(case):
    a, b = case
    assert a.mul(b) == naive_product(a, b)


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
    assert prod[0][0].is_zero()
    assert first_nonzero_product({1: a, 2: b}) == (1, 0, 1, Poly.monomial((1, 0, 1)))
