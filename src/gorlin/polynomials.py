"""Sparse multivariate polynomials over Q with exact coefficients.

A coefficient is stored as an int when it is integral and as a Fraction
only otherwise, so a polynomial with integer coefficients is added,
scaled and compared in int arithmetic.  The two forms of one number are
equal, hash equal and print the same (str(3) == str(Fraction(3))), so the
choice never shows in an output.  A float is refused: it is not exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational

from .monomials import Mono, mono_str, mul, sort_key

Scalar = Fraction | int


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


class Poly:
    """Polynomial in x1..xd as a map monomial -> nonzero coefficient (an int or a Fraction)."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[Mono, Scalar] | None = None):
        self.d = d
        self.terms: dict[Mono, Scalar] = {}
        if terms:
            for m, c in terms.items():
                c = exact(c)
                if c:
                    self.terms[m] = c

    @staticmethod
    def zero(d: int) -> "Poly":
        return Poly(d)

    @staticmethod
    def monomial(m: Mono, coeff: Scalar = 1) -> "Poly":
        return Poly(len(m), {m: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def add_term(self, m: Mono, c: Scalar) -> None:
        """In-place accumulation; zero results are pruned."""
        v = self.terms.get(m, 0) + exact(c)
        if v:
            self.terms[m] = exact(v)
        else:
            self.terms.pop(m, None)

    def __add__(self, other: "Poly") -> "Poly":
        out = Poly(self.d, dict(self.terms))
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        out = Poly(self.d, dict(self.terms))
        for m, c in other.terms.items():
            out.add_term(m, -c)
        return out

    def __neg__(self) -> "Poly":
        return Poly(self.d, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Scalar) -> "Poly":
        c = exact(c)
        if not c:
            return Poly.zero(self.d)
        return Poly(self.d, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = Poly.zero(self.d)
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    out.add_term(mul(m1, m2), c1 * c2)
            return out
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        return max((sum(m) for m in self.terms), default=-1)

    def subs_x1_zero(self) -> "Poly":
        """Reduction mod x1: drop every term divisible by x1."""
        return Poly(self.d, {m: c for m, c in self.terms.items() if m[0] == 0})

    def sorted_terms(self) -> list[tuple[Mono, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: sort_key(t[0]))

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)})"


def poly_str(p: Poly, var: str = "x") -> str:
    """Deterministic readable form, e.g. 'x2^2 - x1^2'; var names the variables."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for m, c in p.sorted_terms():
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


def coeff_rows(polys, monos) -> list[list[Scalar]]:
    """The coefficient vector of each polynomial over the monomials monos, one row each."""
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in polys:
        row = [0] * len(monos)
        for m, c in p.terms.items():
            row[index[m]] = c
        rows.append(row)
    return rows


def clear_denominators(values) -> tuple[int, list[int]]:
    """(L, [L * v for v in values]) for L the lcm of the denominators; the list holds ints.

    The values are ints or Fractions (an int has denominator 1).
    """
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]
