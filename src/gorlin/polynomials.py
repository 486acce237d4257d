"""Sparse multivariate polynomials over Q with exact coefficients."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .monomials import Mono, mono_str, mul, sort_key, unit

Scalar = Fraction | int


class Poly:
    """Polynomial in x1..xd as a map monomial -> nonzero rational coefficient."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[Mono, Fraction] | None = None):
        self.d = d
        self.terms: dict[Mono, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    # a Fraction is immutable, so one passed in is kept, not copied
                    self.terms[m] = c if type(c) is Fraction else Fraction(c)

    @staticmethod
    def zero(d: int) -> "Poly":
        return Poly(d)

    @staticmethod
    def monomial(m: Mono, coeff: Scalar = 1) -> "Poly":
        return Poly(len(m), {m: Fraction(coeff)})

    @staticmethod
    def constant(d: int, coeff: Scalar) -> "Poly":
        return Poly(d, {unit(d): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, m: Mono) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def add_term(self, m: Mono, c: Scalar) -> None:
        """In-place accumulation; zero results are pruned."""
        v = self.terms.get(m, Fraction(0)) + c
        if v:
            self.terms[m] = v
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
        c = Fraction(c)
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

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def constant_term(self) -> Fraction:
        return self.terms.get(unit(self.d), Fraction(0))

    def subs_x1_zero(self) -> "Poly":
        """Reduction mod x1: drop every term divisible by x1."""
        return Poly(self.d, {m: c for m, c in self.terms.items() if m[0] == 0})

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
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


def coeff_rows(polys, monos) -> list[list[Fraction]]:
    """The coefficient vector of each polynomial over the monomials monos, one row each."""
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(monos)
        for m, c in p.terms.items():
            row[index[m]] = c
        rows.append(row)
    return rows


def clear_denominators(values) -> tuple[int, list[int]]:
    """(L, [L * v for v in values]) for L the lcm of the denominators; the list holds ints."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]
