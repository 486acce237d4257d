"""Macaulay inverse systems, contraction, and catalecticant data (T, delta, Q).

An inverse system phi of socle degree 2n-2 in d variables is stored as a map
from degree-(2n-2) monomials to rational coefficients t_m.  Dual-space
elements sum c_m * m^* are plain dicts monomial -> Fraction; the module
action is the coefficient-free divisibility rule x^a(m^*) = (m/x^a)^*.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .monomials import (
    Mono,
    degree,
    div,
    divides,
    monomials_of_degree,
    mul,
    mul_var,
    sort_key,
    var_divides,
)
from .polynomials import Poly

Dual = dict[Mono, Fraction]


class InadmissibleSystemError(ValueError):
    """Raised when an operation needs an invertible middle catalecticant (delta != 0)."""


def _parse_rational(s: str) -> Fraction:
    return Fraction(s)


@dataclass(frozen=True)
class InverseSystem:
    """Homogeneous inverse system of degree 2n-2 in d variables."""

    d: int
    n: int
    coeffs: dict[Mono, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 3:
            raise ValueError(f"d must be at least 3, got {self.d}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        clean: dict[Mono, Fraction] = {}
        for m, c in self.coeffs.items():
            m = tuple(m)
            if len(m) != self.d or degree(m) != 2 * self.n - 2:
                raise ValueError(f"coefficient key {m} is not a degree-{2 * self.n - 2} monomial in {self.d} variables")
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

    def dual_element(self) -> Dual:
        return dict(self.coeffs)

    def swap_variables(self, i: int, j: int) -> "InverseSystem":
        """The inverse system with x_i and x_j interchanged."""
        a, b = i - 1, j - 1

        def sw(m: Mono) -> Mono:
            e = list(m)
            e[a], e[b] = e[b], e[a]
            return tuple(e)

        return InverseSystem(self.d, self.n, {sw(m): c for m, c in self.coeffs.items()})


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


def catalecticant_matrix(phi: InverseSystem, j: int) -> linalg.Matrix:
    """Pairing matrix (t_{m_row * m_col}) with rows of degree j, columns of degree 2n-2-j."""
    if not 0 <= j <= phi.socle_degree:
        raise ValueError(f"degree {j} out of range 0..{phi.socle_degree}")
    rows = monomials_of_degree(phi.d, j)
    cols = monomials_of_degree(phi.d, phi.socle_degree - j)
    return [[phi.t(mul(mr, mc)) for mc in cols] for mr in rows]


@dataclass(frozen=True)
class Catalecticant:
    """The middle catalecticant T with its determinant delta and adjugate Q."""

    phi: InverseSystem
    monos: tuple[Mono, ...]
    T: linalg.Matrix
    delta: Fraction
    Q: linalg.Matrix
    index: dict[Mono, int]

    @property
    def admissible(self) -> bool:
        return self.delta != 0

    def q_entry(self, m1: Mono, m2: Mono) -> Fraction:
        return self.Q[self.index[m1]][self.index[m2]]


def delta_and_Q(phi: InverseSystem) -> Catalecticant:
    """delta = det T and Q = adjugate(T) for the degree-(n-1) catalecticant."""
    monos = monomials_of_degree(phi.d, phi.n - 1)
    T = catalecticant_matrix(phi, phi.n - 1)
    delta, Q = linalg.det_and_adjugate(T)
    index = {m: i for i, m in enumerate(monos)}
    return Catalecticant(phi=phi, monos=monos, T=T, delta=delta, Q=Q, index=index)


def q_of(cat: Catalecticant, nu: Dual) -> Poly:
    """q(nu) = sum_{m1} Q_{m1,m2} m1 extended linearly over nu = sum c_{m2} m2^*."""
    d = cat.phi.d
    out = Poly.zero(d)
    for m2, c in nu.items():
        if degree(m2) != cat.phi.n - 1:
            raise ValueError("q is defined on dual elements of degree n-1")
        j = cat.index[m2]
        for i, m1 in enumerate(cat.monos):
            v = cat.Q[i][j]
            if v:
                out.add_term(m1, c * v)
    return out


def tilde_contract(phi: InverseSystem, m: Mono) -> Dual:
    """Contraction of the degree-(2n-1) lift of phi by a monomial free of x1.

    m(lift) = sum_{m2} t_{m*m2} (x1*m2)^*; the lift is characterized by
    x1(lift) = phi and mu(lift) = 0 for mu in the last d-1 variables of full degree.
    """
    if var_divides(1, m):
        raise ValueError("tilde contraction is only defined for monomials free of x1")
    r = degree(m)
    if r > phi.socle_degree:
        return {}
    out: Dual = {}
    for m2 in monomials_of_degree(phi.d, phi.socle_degree - r):
        c = phi.t(mul(m, m2))
        if c:
            out[mul_var(m2, 1)] = c
    return out


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
    """dim (S/ann(phi))_j for j = 0..2n-2, as catalecticant ranks.

    Only meaningful for admissible systems; delta = 0 raises.  The middle
    catalecticant is square, so delta != 0 exactly when its rank is full.
    """
    hf = [hf_value(phi, j) for j in range(phi.socle_degree + 1)]
    if hf[phi.n - 1] != len(monomials_of_degree(phi.d, phi.n - 1)):
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


def random_invsys(d: int, n: int, seed: int, coeff_bound: int = 5, max_tries: int = 64) -> InverseSystem:
    """Deterministic pseudo-random admissible inverse system with integer coefficients.

    Retries with a counter mixed into the stream until delta != 0; raises
    InadmissibleSystemError when the retry budget is exhausted (e.g. bound 0).
    """
    monos = monomials_of_degree(d, 2 * n - 2)
    for attempt in range(max_tries):
        rng = random.Random(seed * 1_000_003 + attempt)
        coeffs = {m: Fraction(rng.randint(-coeff_bound, coeff_bound)) for m in monos}
        phi = InverseSystem(d, n, coeffs)
        if delta_and_Q(phi).admissible:
            return phi
    raise InadmissibleSystemError(
        f"could not find an admissible inverse system for d={d}, n={n}, "
        f"seed={seed}, bound={coeff_bound} after {max_tries} tries"
    )


def to_json_dict(phi: InverseSystem) -> dict:
    items = sorted(phi.coeffs.items(), key=lambda t: sort_key(t[0]))
    return {
        "d": phi.d,
        "n": phi.n,
        "coefficients": [[list(m), str(c)] for m, c in items],
    }


def from_json_dict(data: dict) -> InverseSystem:
    try:
        d = int(data["d"])
        n = int(data["n"])
        coeffs = {tuple(int(e) for e in m): _parse_rational(c) for m, c in data["coefficients"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed inverse-system document: {exc}") from exc
    return InverseSystem(d, n, coeffs)


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
