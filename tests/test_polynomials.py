import random
from fractions import Fraction

import pytest

from gorlin.differentials import build_resolution
from gorlin.invsys import random_invsys
from gorlin.polynomials import Poly, poly_str

from conftest import EXTRA, constant, constant_term, extra_phi, is_homogeneous


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
    assert is_homogeneous(p) and p.degree() == 2
    q = p + constant(3, 1)
    assert not is_homogeneous(q)
    assert constant_term(q) == 1
    assert Poly.zero(3).degree() == -1


def test_poly_str_deterministic():
    p = Poly(3, {(0, 0, 2): Fraction(-1), (2, 0, 0): Fraction(3, 2), (0, 1, 1): 1})
    assert poly_str(p) == "3/2*x1^2 + x2*x3 - x3^2"
    assert poly_str(Poly.zero(3)) == "0"


M = (1, 0, 2)


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
    assert type(constant_term(constant(3, Fraction(-7, 7)))) is int


def test_int_and_fraction_coefficients_agree():
    ints = Poly(3, {M: 3, (0, 0, 3): -1})
    fracs = Poly(3, {M: Fraction(3), (0, 0, 3): Fraction(-1)})
    # Poly stores both as ints; bypass the constructor to compare the two forms
    raw = Poly(3)
    raw.terms = {M: Fraction(3), (0, 0, 3): Fraction(-1)}
    for other in (fracs, raw):
        assert ints == other and hash(ints) == hash(other) and poly_str(ints) == poly_str(other)


def test_every_coefficient_of_an_integer_system_is_an_int():
    res = build_resolution(random_invsys(4, 4, 0))
    assert all(type(c) is int for mat in res.matrices for row in mat.entries for p in row.values()
               for c in p.terms.values())


def test_the_large_rational_system_keeps_its_fractions():
    res = build_resolution(extra_phi(EXTRA[1]))
    coeffs = [c for mat in res.matrices for row in mat.entries for p in row.values() for c in p.terms.values()]
    assert any(type(c) is Fraction for c in coeffs)
    assert all(type(c) is int or c.denominator != 1 for c in coeffs)
