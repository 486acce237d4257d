import random
from fractions import Fraction

import pytest

from gorlin.differentials import build_resolution, skeleton_rows
from gorlin.invsys import ann_degree, random_invsys
from gorlin.polynomials import clear_denominators, poly_str

from conftest import EXTRA, constant, constant_term, extra_phi, is_homogeneous
from oracles import Poly, matrix_form, plus


def x(i, d=3):
    return Poly.monomial(tuple(1 if k == i - 1 else 0 for k in range(d)))


def rand_poly(rng, d=3, terms=4, deg=3):
    p = Poly.zero(d)
    for _ in range(terms):
        m = [0] * d
        for _ in range(rng.randint(0, deg)):
            m[rng.randrange(d)] += 1
        p.add_term(tuple(m), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return p


def test_product_example():
    p = (x(1) + x(2)) * (x(1) - x(2))
    assert p == Poly(3, {(2, 0, 0): 1, (0, 2, 0): -1})


def test_clear_denominators_gives_ints_with_and_without_fractions():
    assert clear_denominators(iter([3, -2, 0])) == (1, [3, -2, 0])
    assert clear_denominators([1, Fraction(1, 2), Fraction(-2, 3)]) == (6, [6, 3, -4])
    scale, ints = clear_denominators([Fraction(4), 5])
    assert (scale, ints) == (1, [4, 5]) and all(type(v) is int for v in ints)
    assert clear_denominators([]) == (1, [])


def test_cancellation_gives_empty_terms():
    rng = random.Random(3)
    p = rand_poly(rng)
    z = p + p.scale(-1)
    assert z.is_zero() and z.terms == {}


def test_subs_x1_zero():
    d = 3
    delta = Fraction(5)
    p = Poly(d, {(0, 1, 0): delta, (1, 1, 0): -3})
    assert p.subs_x1_zero() == Poly(d, {(0, 1, 0): delta})


def test_ring_axioms_on_random_samples():
    rng = random.Random(11)
    for _ in range(25):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p - p == Poly.zero(3)


def test_homogeneity_and_degree():
    p = Poly(3, {(1, 1, 0): 2, (0, 0, 2): -1})
    assert is_homogeneous(p.terms) and p.degree() == 2
    q = p + constant(3, 1)
    assert not is_homogeneous(q.terms)
    assert constant_term(q.terms) == 1
    assert Poly.zero(3).degree() == -1


M = (1, 0, 2)


def test_poly_str_deterministic():
    terms = {(0, 0, 2): Fraction(-1), (2, 0, 0): Fraction(3, 2), (0, 1, 1): 1}
    assert poly_str(terms) == "3/2*x1^2 + x2*x3 - x3^2"
    assert poly_str({}) == "0" and poly_str(Poly.zero(3).terms) == "0"


def test_int_and_fraction_coefficients_agree():
    # the int and the Fraction form of one number: equal term dicts, equal polynomials, one text
    ints = {M: 3, (0, 0, 3): -1}
    fracs = {M: Fraction(3), (0, 0, 3): Fraction(-1)}
    assert ints == fracs and hash(frozenset(ints.items())) == hash(frozenset(fracs.items()))
    assert poly_str(ints) == poly_str(fracs) == "3*x1*x3^2 - x3^3"
    # Poly stores both as ints; a Poly given the Fraction form directly compares and hashes as one
    raw = Poly(3)
    raw.terms = fracs
    for other in (Poly(3, fracs), raw):
        assert Poly(3, ints) == other and hash(Poly(3, ints)) == hash(other)


def test_a_float_coefficient_is_refused():
    with pytest.raises(TypeError):
        Poly(3, {M: 0.5})
    with pytest.raises(TypeError):
        Poly(3, {M: 1}).add_term(M, 0.5)
    with pytest.raises(TypeError):
        Poly(3, {M: 1}).scale(2.0)


def test_an_integral_coefficient_is_stored_as_an_int():
    assert type(Poly(3, {M: Fraction(4, 2)}).terms[M]) is int
    assert Poly(3, {M: Fraction(4, 2)}).terms[M] == 2
    p = Poly(3, {M: Fraction(1, 2)})
    assert type(p.terms[M]) is Fraction
    total = p + Poly(3, {M: Fraction(1, 2)})
    assert type(total.terms[M]) is int and total.terms[M] == 1
    p.add_term(M, Fraction(3, 2))
    assert type(p.terms[M]) is int and p.terms[M] == 2
    assert type(Poly(3, {M: Fraction(1, 3)}).scale(6).terms[M]) is int
    assert type(Poly(3, {M: 3}).scale(Fraction(1, 3)).terms[M]) is int
    assert type(Poly.monomial(M, Fraction(5)).terms[M]) is int
    assert type(constant_term(constant(3, Fraction(-7, 7)).terms)) is int


def producer_coefficients(res, bump):
    """Every coefficient written by each producer of term dicts, by producer, for the resolution res.

    No producer is normalised after it writes, so each must write the form
    of polynomials.Terms itself: Resolution.terms for every r, the skeleton
    tables written out by skeleton_rows with scale 1 (the signs of
    canonical_skeleton), PolyMatrix.mul on b_1 b_2 with bump x_d added to
    entry (0, 0) of b_2 (so that the product is not zero), and ann_degree.
    """
    d, n = res.d, res.n
    form = matrix_form(res)
    b1, b2 = form.matrix(1), form.matrix(2)
    b2.set(0, 0, plus(b2.entry(0, 0), (0,) * (d - 1) + (1,), bump))
    rows = {
        "Resolution.terms": [row for r in range(1, d + 1) for row in res.terms(r)],
        "skeleton_rows": [row for r in range(1, d + 1) for row in skeleton_rows(d, n, r, 1)],
        "PolyMatrix.mul": b1.mul(b2),
        "ann_degree": [dict(enumerate(ann_degree(res.phi, n)))],
    }
    return {name: [c for row in rs for p in row.values() for c in p.values()] for name, rs in rows.items()}


def in_form(c) -> bool:
    """c is a nonzero int, or a Fraction that is not integral."""
    return c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator != 1))


def test_every_coefficient_of_an_integer_system_is_an_int():
    for name, coeffs in producer_coefficients(build_resolution(random_invsys(4, 4, 0)), 3).items():
        assert coeffs and all(map(in_form, coeffs)), name
        # a kernel basis vector has a pivot entry 1, so the annihilator of an integer system has fractions
        assert name == "ann_degree" or all(type(c) is int for c in coeffs), name


def test_the_large_rational_system_keeps_its_fractions():
    for name, coeffs in producer_coefficients(build_resolution(extra_phi(EXTRA[1])), Fraction(2, 3)).items():
        assert coeffs and all(map(in_form, coeffs)), name
        assert name == "skeleton_rows" or any(type(c) is Fraction for c in coeffs), name
