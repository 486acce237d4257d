"""Sparse multivariate polynomials over Q as term dicts, with exact coefficients.

A polynomial in x1..xd is its term dict (Terms): a map from a monomial to
its coefficient, with no zero coefficient stored, so the empty dict is the
zero polynomial.  A coefficient is an int when it is integral and a
Fraction only otherwise, so a polynomial with integer coefficients is
compared and multiplied in int arithmetic.  Each producer of a term dict
keeps this form itself (exact, over); nothing normalises a dict after it is
made.  The two forms of one number are equal and print the same
(str(3) == str(Fraction(3))), so the choice never shows in an output.  A
float is refused: it is not exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational

from .monomials import Mono, mono_str, sort_key

Scalar = Fraction | int
Terms = dict[Mono, Scalar]


def exact(c: Scalar) -> Scalar:
    """c as an int when it is integral, else as a Fraction; anything but a rational is a TypeError."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if not isinstance(c, Rational):
            raise TypeError(f"a polynomial coefficient is an int or a Fraction, not {type(c).__name__}")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def over(num: int, den: int) -> Scalar:
    """num / den for ints: the int quotient when den divides num, else a Fraction."""
    if den == 1:
        return num
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def poly_str(terms: Terms, var: str = "x") -> str:
    """Deterministic readable form, e.g. 'x2^2 - x1^2'; var names the variables."""
    if not terms:
        return "0"
    parts: list[str] = []
    for m, c in sorted(terms.items(), key=lambda t: sort_key(t[0])):
        ms = mono_str(m, var)
        if ms == "1":
            body = str(c) if c > 0 else str(-c)
        elif abs(c) == 1:
            body = ms
        else:
            body = f"{abs(c)}*{ms}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def clear_denominators(values) -> tuple[int, list[int]]:
    """(L, [L * v for v in values]) for L the lcm of the denominators; the list holds ints.

    The values are ints or Fractions (an int has denominator 1).
    """
    values = list(values)
    if all(type(v) is int for v in values):
        return 1, values
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]
