"""Macaulay inverse systems and their catalecticant data (T, delta, Q).

An inverse system phi of socle degree 2n-2 in d variables is stored as a map
from degree-(2n-2) monomials to rational coefficients t_m.

A system is admissible when its middle catalecticant T is invertible
(delta = det T != 0).  delta_and_Q decides this by one determinant and
refuses the rest; admissibility alone fixes the Hilbert function, which is
compressed (hilbert_function).

The catalecticant data are kept in integers.  With L the lcm of the
denominators of phi (InverseSystem.scale), each catalecticant L Cat_j is an
integer table, built once per system and degree (InverseSystem.catalecticant)
and read by every fact about phi: the Hilbert function (ranks), the
annihilator (kernels, as the rref of L M is that of M), and delta, Q and the
build's sums, which the record Catalecticant holds as integer numerators
over one denominator (its docstring states the convention).
"""

from __future__ import annotations

import json
import random
from collections.abc import Mapping
from fractions import Fraction
from math import comb
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from . import linalg
from .monomials import Mono, degree, monomial_index, monomials_of_degree, mul_var, sort_key
from .polymatrix import pack
from .polynomials import Terms, clear_denominators, exact
from .record import Record

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


class InverseSystem(Record):
    """Homogeneous inverse system of degree 2n-2 in d variables.

    Every attribute is read-only and coeffs a read-only view, so the integer
    tables cached on the system (catalecticant) and the ranks kept of them
    (hf_value) cannot go stale.  scale is L, the lcm of the denominators.
    Two systems are equal when d, n and coeffs are.
    """

    __slots__ = ("d", "n", "coeffs", "scale", "_packed", "_tables", "_ranks")

    def __init__(self, d: int, n: int, coeffs: Mapping[Mono, Fraction] | None = None):
        if type(d) is not int or type(n) is not int:
            raise ValueError(f"d and n must be ints, got {d!r} and {n!r}")
        if d < 3:
            raise ValueError(f"d must be at least 3, got {d}")
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        clean: dict[Mono, Fraction] = {}
        for m, c in (coeffs or {}).items():
            m = tuple(m)
            # a monomial has nonnegative int exponents, so (3, -1, 0) is not a degree-2 monomial
            if len(m) != d or any(type(e) is not int or e < 0 for e in m) or degree(m) != 2 * n - 2:
                raise ValueError(f"coefficient key {m} is not a degree-{2 * n - 2} monomial in {d} variables")
            if type(c) is not int and not isinstance(c, Fraction):
                raise TypeError(f"coefficient of {m} must be an int or a Fraction, got {c!r}")
            c = Fraction(c)
            if c:
                clean[m] = c
        scale, ints = clear_denominators(clean.values())
        # _packed: L t_m by pack(m, 2n-1), a base above every exponent; _tables: the tables built from it by
        # degree; _ranks: the rank of L Cat_j by j, once it is known
        self._set(d=d, n=n, coeffs=MappingProxyType(clean), scale=scale,
                  _packed={pack(m, 2 * n - 1): v for m, v in zip(clean, ints)}, _tables={}, _ranks={})

    def __eq__(self, other) -> bool:
        if type(other) is not InverseSystem:
            return NotImplemented
        return (self.d, self.n, self.coeffs) == (other.d, other.n, other.coeffs)

    def __repr__(self) -> str:
        return f"InverseSystem(d={self.d}, n={self.n}, coeffs={dict(self.coeffs)!r})"

    def __reduce__(self):
        # a mappingproxy does not pickle; the tables are rebuilt on demand
        return InverseSystem, (self.d, self.n, dict(self.coeffs))

    @property
    def socle_degree(self) -> int:
        return 2 * self.n - 2

    def catalecticant(self, j: int) -> list[list[int]]:
        """L Cat_j, the pairing matrix (L t_{m_row * m_col}) with rows of degree j and columns of degree 2n-2-j.

        The integer table is built once per degree from the packed
        coefficients, where a product of monomials is one int addition.
        Every reader shares it, so none may alter it.
        """
        table = self._tables.get(j)
        if table is None:
            if not 0 <= j <= self.socle_degree:
                raise ValueError(f"degree {j} out of range 0..{self.socle_degree}")
            rows, cols = ([pack(m, 2 * self.n - 1) for m in monomials_of_degree(self.d, k)]
                          for k in (j, self.socle_degree - j))
            table = self._tables[j] = [[self._packed.get(r + c, 0) for c in cols] for r in rows]
        return table


class Catalecticant(NamedTuple):
    """The middle catalecticant in integers, and the coefficient sums of a build over it.

    scale is L (InverseSystem.scale), T the table T' = L Cat_{n-1}
    (InverseSystem.catalecticant), det = det T' != 0 and adj = adj T'.  The
    catalecticant of phi has determinant delta = det / L^N and adjugate
    Q = adj / L^(N-1), N = len(monos).

    Every value a build reads is an int numerator over the one denominator
    denom = L^(N+1): with t' = L t, the numerators of delta and of Q are
    L det and L^2 adj (q, by index), and each sum of t' times numerators,
    divided by L, is again a numerator (exactly, as L divides it): the sums
    tq and W (sums).  The sums are built on request, so a bare
    delta_and_Q builds none.
    """

    phi: InverseSystem
    monos: tuple[Mono, ...]
    scale: int
    T: list[list[int]]
    det: int
    adj: list[list[int]]
    index: dict[Mono, int]
    q: list[list[int]]  # L^2 adj, the numerators of Q

    @property
    def delta(self) -> Fraction:
        return Fraction(self.det, self.scale ** len(self.monos))

    @property
    def denom(self) -> int:
        return self.scale ** (len(self.monos) + 1)

    def sums(self, us: tuple[Mono, ...]) -> tuple[list[list[int]], list[list[int]]]:
        """(tq, W) over the monomials us of degree n: tq[s][i] = tq(us[s], monos[i]), W[s][t] = W(us[s], us[t]).

        With m, m1, m2 of degree n-2, tq(u, w) is the sum of t_{u*m} Q[w, x1*m],
        and W(u, v) the double sum of Q[x1*m1, x1*m2] t_{u*m2} t_{v*m1}, that
        is the sum of t_{v*m} tq(u, x1*m).  Each is a dot product of int rows:
        t'_{u*m} is row u of L Cat_n.  W is symmetric, so one half of it is
        summed and the other mirrored.
        """
        phi, scale = self.phi, self.scale
        cat_n, index_n = phi.catalecticant(phi.n), monomial_index(phi.d, phi.n)
        x1 = [self.index[mul_var(m, 1)] for m in monomials_of_degree(phi.d, phi.n - 2)]
        a = [cat_n[index_n[u]] for u in us]
        qx = [[row[k] for k in x1] for row in self.q]
        tq = [[sum(map(mul, au, row)) // scale for row in qx] for au in a]
        tqx = [[row[k] for k in x1] for row in tq]
        half = [[sum(map(mul, a[t], tqx[s])) // scale for t in range(s + 1)] for s in range(len(us))]
        return tq, [row + [half[t][s] for t in range(s + 1, len(us))] for s, row in enumerate(half)]


def delta_and_Q(phi: InverseSystem) -> Catalecticant:
    """det T' and adj T' for the degree-(n-1) catalecticant T' = L T of L phi.

    This is the admissibility gate: det T' = 0 raises InadmissibleSystemError
    after the one elimination, which finds fewer pivots than rows and no
    adjugate.
    """
    monos = monomials_of_degree(phi.d, phi.n - 1)
    T = phi.catalecticant(phi.n - 1)
    det, adj = linalg.det_and_adjugate(T)
    if adj is None:
        raise InadmissibleSystemError(
            "inverse system is inadmissible: the middle catalecticant has determinant 0, "
            "so the quotient algebra has no Gorenstein-linear minimal resolution "
            "(equivalently, the degree-(n-1) pairing is degenerate)"
        )
    # det != 0: T has full rank, which hf_value(phi, n - 1) reads
    phi._ranks[phi.n - 1] = len(monos)
    return Catalecticant(phi, monos, phi.scale, T, det, adj, monomial_index(phi.d, phi.n - 1),
                         [[phi.scale**2 * v for v in row] for row in adj])


def ann_degree(phi: InverseSystem, j: int) -> list[Terms]:
    """Exact basis of {g in S_j : g(phi) = 0}: the kernel of Cat_{2n-2-j}, the transpose of the degree-j pairing."""
    if j < 0:
        raise ValueError("negative degree")
    monos = monomials_of_degree(phi.d, j)
    if j > phi.socle_degree:
        return [{m: 1} for m in monos]
    vecs = linalg.kernel_basis(phi.catalecticant(phi.socle_degree - j))
    return [{m: exact(c) for m, c in zip(monos, v) if c} for v in vecs]


def hilbert_function(phi: InverseSystem) -> list[int]:
    """dim (S/ann(phi))_j for j = 0..2n-2: the compressed values dim S_min(j, 2n-2-j).

    delta = 0 raises; it is tested as a rank deficit of the middle
    catalecticant T = Cat_{n-1}, which is square.  Once ker T = 0:

    * for e <= n-1, a g in ann(phi)_e gives x1^(n-1-e) g in ann(phi)_{n-1} = ker T = 0,
      so g = 0 and the value is dim S_e;
    * Cat_{2n-2-e} is the transpose of Cat_e, so the values are symmetric.

    (Iarrobino and Kanev, "Power Sums, Gorenstein Algebras, and
    Determinantal Loci", 1999.)  hf_value ranks any one catalecticant and
    stays the reference; the rank of T is kept from delta_and_Q or
    random_invsys when either has proved delta != 0 for this system.
    """
    d, top = phi.d, phi.socle_degree
    hf = [comb(min(j, top - j) + d - 1, d - 1) for j in range(top + 1)]
    if hf_value(phi, phi.n - 1) != hf[phi.n - 1]:
        raise InadmissibleSystemError("hilbert_function needs delta != 0")
    return hf


def hf_value(phi: InverseSystem, e: int) -> int:
    """dim (S/ann(phi))_e for any e >= 0 (zero beyond the socle degree), the rank of L Cat_e, kept on phi."""
    if e < 0 or e > phi.socle_degree:
        return 0
    rank = phi._ranks.get(e)
    if rank is None:
        rank = phi._ranks[e] = linalg.rank(phi.catalecticant(e))
    return rank


def sum_of_powers(d: int, n: int = 2) -> InverseSystem:
    """The inverse system sum_i (x_i^{2n-2})^*; its catalecticant is the identity when n = 2."""
    coeffs: dict[Mono, Fraction] = {}
    for i in range(1, d + 1):
        m = tuple((2 * n - 2) if k == i - 1 else 0 for k in range(d))
        coeffs[m] = Fraction(1)
    return InverseSystem(d, n, coeffs)


def random_invsys(d: int, n: int, seed: int, coeff_bound: int = 5) -> InverseSystem:
    """Deterministic pseudo-random admissible inverse system with integer coefficients.

    Retries with a counter mixed into the stream until delta != 0, that is
    until L Cat_{n-1} has full rank (one elimination per draw, the test of
    hilbert_function, which reads the rank kept on the system); raises
    InadmissibleSystemError after RANDOM_TRIES draws (e.g. bound 0).
    """
    monos = monomials_of_degree(d, 2 * n - 2)
    full = comb(n - 1 + d - 1, d - 1)  # dim S_{n-1}
    for attempt in range(RANDOM_TRIES):
        rng = random.Random(seed * 1_000_003 + attempt)
        coeffs = {m: Fraction(rng.randint(-coeff_bound, coeff_bound)) for m in monos}
        phi = InverseSystem(d, n, coeffs)
        if hf_value(phi, n - 1) == full:
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
