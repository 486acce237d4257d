"""Macaulay inverse systems, contraction, and catalecticant data (T, delta, Q).

An inverse system phi of socle degree 2n-2 in d variables is stored as a map
from degree-(2n-2) monomials to rational coefficients t_m.  Dual-space
elements sum c_m * m^* are plain dicts monomial -> Fraction; the module
action is the coefficient-free divisibility rule x^a(m^*) = (m/x^a)^*.

A system is admissible when its middle catalecticant T is invertible
(delta = det T != 0).  delta_and_Q decides this by one determinant and
refuses the rest; admissibility alone fixes the Hilbert function, which is
compressed (hilbert_function).

The catalecticant data are kept in integers.  With L the lcm of the
denominators of phi (integer_coeffs), t' = L t and T' = L T are integer,
and delta = det T' / L^N and Q = adj T' / L^(N-1) for N = dim S_{n-1}.
contract_poly is the rational reference for the annihilation test that
verification makes in these integers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import linalg
from .monomials import (
    Mono,
    degree,
    div,
    divides,
    monomials_of_degree,
    mul,
    sort_key,
)
from .polynomials import Poly, clear_denominators

Dual = dict[Mono, Fraction]

RANDOM_TRIES = 64  # draws of random_invsys before it gives up


class InadmissibleSystemError(ValueError):
    """Raised when an operation needs an invertible middle catalecticant (delta != 0)."""


def _parse_rational(m, c) -> Fraction:
    """A coefficient from a JSON document: a JSON integer or a rational string such as "-3/7"."""
    if isinstance(c, bool) or not isinstance(c, (int, str)):
        raise ValueError(f"coefficient of {m} is {c!r}; give a JSON integer or a rational string")
    try:
        return Fraction(c)
    except ZeroDivisionError:
        raise ValueError(f"coefficient of {m} is {c!r}, which has denominator 0") from None


@dataclass(frozen=True)
class InverseSystem:
    """Homogeneous inverse system of degree 2n-2 in d variables."""

    d: int
    n: int
    coeffs: dict[Mono, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if type(self.d) is not int or type(self.n) is not int:
            raise ValueError(f"d and n must be ints, got {self.d!r} and {self.n!r}")
        if self.d < 3:
            raise ValueError(f"d must be at least 3, got {self.d}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        clean: dict[Mono, Fraction] = {}
        for m, c in self.coeffs.items():
            m = tuple(m)
            # a monomial has nonnegative int exponents, so (3, -1, 0) is not a degree-2 monomial
            if len(m) != self.d or any(type(e) is not int or e < 0 for e in m) or degree(m) != 2 * self.n - 2:
                raise ValueError(f"coefficient key {m} is not a degree-{2 * self.n - 2} monomial in {self.d} variables")
            if type(c) is not int and not isinstance(c, Fraction):
                raise TypeError(f"coefficient of {m} must be an int or a Fraction, got {c!r}")
            c = Fraction(c)
            if c:
                clean[m] = c
        object.__setattr__(self, "coeffs", clean)

    @property
    def socle_degree(self) -> int:
        return 2 * self.n - 2

    def t(self, m: Mono) -> Fraction:
        """The coefficient t_m = phi(m^*)."""
        return self.coeffs.get(m, Fraction(0))


def contract(m: Mono, nu: Dual) -> Dual:
    """Module action of the monomial m on a dual element (degree drops by deg m)."""
    out: Dual = {}
    for key, c in nu.items():
        if divides(m, key):
            q = div(key, m)
            v = out.get(q, Fraction(0)) + c
            if v:
                out[q] = v
            else:
                out.pop(q, None)
    return out


def contract_poly(g: Poly, nu: Dual) -> Dual:
    """Linear extension of contract to a polynomial g."""
    out: Dual = {}
    for m, c in g.terms.items():
        for key, v in contract(m, nu).items():
            w = out.get(key, Fraction(0)) + c * v
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


def integer_coeffs(phi: InverseSystem) -> tuple[int, dict[Mono, int]]:
    """(L, t') with L the lcm of the denominators of phi and t'_m = L * t_m, all integers."""
    scale, ints = clear_denominators(phi.coeffs.values())
    return scale, dict(zip(phi.coeffs, ints))


def catalecticant_matrix(phi: InverseSystem, j: int) -> linalg.Matrix:
    """Pairing matrix (t_{m_row * m_col}) with rows of degree j, columns of degree 2n-2-j."""
    if not 0 <= j <= phi.socle_degree:
        raise ValueError(f"degree {j} out of range 0..{phi.socle_degree}")
    rows = monomials_of_degree(phi.d, j)
    cols = monomials_of_degree(phi.d, phi.socle_degree - j)
    return [[phi.t(mul(mr, mc)) for mc in cols] for mr in rows]


@dataclass(frozen=True)
class Catalecticant:
    """The middle catalecticant in integers: T' = L T, its determinant and adjugate.

    scale is L (integer_coeffs), T the integer matrix T', det = det T' != 0 and
    adj = adj T'.  The catalecticant of phi has determinant delta = det / L^N
    and adjugate Q = adj / L^(N-1), N = len(monos).
    """

    phi: InverseSystem
    monos: tuple[Mono, ...]
    scale: int
    T: list[list[int]]
    det: int
    adj: list[list[int]]
    index: dict[Mono, int]

    @property
    def delta(self) -> Fraction:
        return Fraction(self.det, self.scale ** len(self.monos))


def delta_and_Q(phi: InverseSystem) -> Catalecticant:
    """det T' and adj T' for the degree-(n-1) catalecticant T' = L T of L phi.

    This is the admissibility gate: det T' = 0 raises InadmissibleSystemError
    after the one determinant, with no adjugate computed.
    """
    monos = monomials_of_degree(phi.d, phi.n - 1)
    scale, t = integer_coeffs(phi)
    T = [[t.get(mul(a, b), 0) for b in monos] for a in monos]
    det, adj = linalg.det_and_adjugate(T)
    if adj is None:
        raise InadmissibleSystemError(
            "inverse system is inadmissible: the middle catalecticant has determinant 0, "
            "so the quotient algebra has no Gorenstein-linear minimal resolution "
            "(equivalently, the degree-(n-1) pairing is degenerate)"
        )
    index = {m: i for i, m in enumerate(monos)}
    return Catalecticant(phi=phi, monos=monos, scale=scale, T=T, det=det, adj=adj, index=index)


def ann_degree(phi: InverseSystem, j: int) -> list[Poly]:
    """Exact basis of {g in S_j : g(phi) = 0}, via the kernel of the degree-j pairing."""
    if j < 0:
        raise ValueError("negative degree")
    monos = monomials_of_degree(phi.d, j)
    if j > phi.socle_degree:
        return [Poly.monomial(m) for m in monos]
    mat = linalg.transpose(catalecticant_matrix(phi, j))
    vecs = linalg.kernel_basis(mat, ncols=len(monos))
    out = []
    for v in vecs:
        out.append(Poly(phi.d, {m: c for m, c in zip(monos, v) if c}))
    return out


def hilbert_function(phi: InverseSystem) -> list[int]:
    """dim (S/ann(phi))_j for j = 0..2n-2: the compressed values dim S_min(j, 2n-2-j).

    delta = 0 raises; it is tested as a rank deficit of the middle
    catalecticant T = Cat_{n-1}, which is square.  Once ker T = 0:

    * for e <= n-1, a g in ann(phi)_e gives x1^(n-1-e) g in ann(phi)_{n-1} = ker T = 0,
      so g = 0 and the value is dim S_e;
    * Cat_{2n-2-e} is the transpose of Cat_e, so the values are symmetric.

    (Iarrobino and Kanev, "Power Sums, Gorenstein Algebras, and
    Determinantal Loci", 1999.)  hf_value ranks any one catalecticant and
    stays the reference.
    """
    d, top = phi.d, phi.socle_degree
    hf = [comb(min(j, top - j) + d - 1, d - 1) for j in range(top + 1)]
    if hf_value(phi, phi.n - 1) != hf[phi.n - 1]:
        raise InadmissibleSystemError("hilbert_function needs delta != 0")
    return hf


def hf_value(phi: InverseSystem, e: int) -> int:
    """dim (S/ann(phi))_e for any e >= 0 (zero beyond the socle degree)."""
    if e < 0 or e > phi.socle_degree:
        return 0
    return linalg.rank(catalecticant_matrix(phi, e))


def sum_of_powers(d: int, n: int = 2) -> InverseSystem:
    """The inverse system sum_i (x_i^{2n-2})^*; its catalecticant is the identity when n = 2."""
    coeffs: dict[Mono, Fraction] = {}
    for i in range(1, d + 1):
        m = tuple((2 * n - 2) if k == i - 1 else 0 for k in range(d))
        coeffs[m] = Fraction(1)
    return InverseSystem(d, n, coeffs)


def random_invsys(d: int, n: int, seed: int, coeff_bound: int = 5) -> InverseSystem:
    """Deterministic pseudo-random admissible inverse system with integer coefficients.

    Retries with a counter mixed into the stream until delta != 0 (one
    determinant per draw); raises InadmissibleSystemError after RANDOM_TRIES
    draws (e.g. bound 0).
    """
    monos = monomials_of_degree(d, 2 * n - 2)
    for attempt in range(RANDOM_TRIES):
        rng = random.Random(seed * 1_000_003 + attempt)
        coeffs = {m: Fraction(rng.randint(-coeff_bound, coeff_bound)) for m in monos}
        phi = InverseSystem(d, n, coeffs)
        if linalg.det_bareiss(catalecticant_matrix(phi, n - 1)) != 0:
            return phi
    raise InadmissibleSystemError(
        f"could not find an admissible inverse system for d={d}, n={n}, "
        f"seed={seed}, bound={coeff_bound} after {RANDOM_TRIES} tries"
    )


def to_json_dict(phi: InverseSystem) -> dict:
    items = sorted(phi.coeffs.items(), key=lambda t: sort_key(t[0]))
    return {
        "d": phi.d,
        "n": phi.n,
        "coefficients": [[list(m), str(c)] for m, c in items],
    }


def from_json_dict(data: dict) -> InverseSystem:
    """The inverse system of a JSON document, with one exact coefficient per monomial, else a ValueError."""
    try:
        coeffs = {}
        for m, c in data["coefficients"]:
            if tuple(m) in coeffs:
                raise ValueError(f"monomial {m} is listed twice")
            coeffs[tuple(m)] = _parse_rational(m, c)
        return InverseSystem(data["d"], data["n"], coeffs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed inverse-system document: {exc}") from exc


def save_invsys(phi: InverseSystem, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(phi), fh, indent=1)
        fh.write("\n")


def load_invsys(path: str) -> InverseSystem:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed inverse-system file {path}: {exc}") from exc
    return from_json_dict(data)
