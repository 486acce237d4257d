"""Standard bases of the free modules in the resolution, and their combinatorics.

The free module in homological degree r (1 <= r <= d-1) has a basis of two
kinds of elements indexed by a strictly increasing list a_1 < ... < a_r in
[2, d] and a monomial m in x2..xd:

  X(r; a; m): deg m = n, and [2, least(m)] is contained in {a_1..a_r};
  Y(r; a; m): deg m = n-1, and a_1 <= least(m).

Degree 0 has the single generator Y0, degree d the single generator Xd.
This module provides enumeration, rank formulas, the straightening of
elementary wedge generators into the standard Y elements, the Koszul
contraction of the Y elements and the strand blocks, the perfect-pairing
duality between bases, and the self-dual family of ordered bases that every
resolution is built in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .monomials import (
    Mono,
    div_var,
    least,
    monomials_of_degree,
    mul_var,
    unit,
    var_divides,
)


def gamma_of(a: tuple[int, ...]) -> int:
    """Largest g with [2, g] contained in the index list a (g = 1 when 2 is absent)."""
    g = 1
    for i, ai in enumerate(a):
        if ai == i + 2:
            g = ai
        else:
            break
    return g


class BasisElement(NamedTuple):
    """One standard basis element of the free module in homological degree r.

    A tuple, hashed and compared in C.  It is not checked when it is made:
    the bases are formed only by enumerate_basis and duality_basis, and
    differentials.canonical_skeleton refuses any target outside them.
    """

    kind: str  # "X" or "Y"
    r: int
    a: tuple[int, ...]
    m: Mono

    @property
    def d(self) -> int:
        return len(self.m)

    def text(self) -> str:
        idx = ",".join(str(x) for x in self.a)
        return f"{self.kind}({self.r}; {idx}; {list(self.m)})"

    def __repr__(self) -> str:
        return self.text()


def y0(d: int) -> BasisElement:
    return BasisElement("Y", 0, (), unit(d))


def xd(d: int) -> BasisElement:
    return BasisElement("X", d, tuple(range(2, d + 1)), unit(d))


Signed = tuple[int, BasisElement]


@dataclass(frozen=True)
class OrderedBasis:
    """An ordered, signed basis of the free module in homological degree r."""

    d: int
    n: int
    r: int
    elements: tuple[Signed, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def labels(self) -> list[str]:
        return [(e.text() if s > 0 else f"-{e.text()}") for s, e in self.elements]

    def position(self) -> dict[BasisElement, tuple[int, int]]:
        """Map element -> (index, sign)."""
        return {e: (i, s) for i, (s, e) in enumerate(self.elements)}

    def part(self, kind: str) -> "OrderedBasis":
        """The signed elements of one kind, "X" or "Y", in their order."""
        return OrderedBasis(self.d, self.n, self.r, tuple((s, e) for s, e in self.elements if e.kind == kind))


def rank_formulas(d: int, n: int, r: int) -> tuple[int, int, int]:
    """(k_r, l_r, beta_r): ranks of the X block, the Y block, and their sum."""
    if not 1 <= r <= d - 1:
        raise ValueError(f"r={r} out of range 1..{d - 1}")
    k = comb(d + n - 2, r - 1) * comb(d + n - r - 2, n - 1)
    ell = comb(d + n - 2, r - 1 + n) * comb(r + n - 2, r - 1)
    beta_num = (2 * n + d - 2) * comb(n + d - 2, r - 1) * comb(n + d - r - 2, n - 1)
    beta, rem = divmod(beta_num, n + r - 1)
    assert rem == 0 and beta == k + ell
    return k, ell, beta


def least_range(kind: str, a: tuple[int, ...], d: int) -> range:
    """The values of least(m) that the standard elements of one kind and index list allow (module docstring)."""
    return range(2, gamma_of(a) + 1) if kind == "X" else range(a[0], d + 1)


def is_standard(e: BasisElement, n: int) -> bool:
    """Whether e is an element of enumerate_basis(e.d, n, e.r): its shape, and least(m) in least_range."""
    (kind, r, a, m), d = e, e.d
    if r in (0, d):
        return e in (y0(d), xd(d))
    return (kind in ("X", "Y") and 0 < r == len(a) < d and 1 < a[0] and a[-1] <= d and a == tuple(sorted(set(a)))
            and not m[0] and min(m) >= 0 and sum(m) == n - (kind == "Y") and least(m) in least_range(kind, a, d))


@lru_cache(maxsize=None)
def enumerate_basis(d: int, n: int, r: int) -> OrderedBasis:
    """The standard basis, X block then Y block, each ordered by index list then monomial."""
    if not 0 <= r <= d:
        raise ValueError(f"r={r} out of range 0..{d}")
    if r == 0:
        return OrderedBasis(d, n, 0, ((1, y0(d)),))
    if r == d:
        return OrderedBasis(d, n, d, ((1, xd(d)),))
    elems: list[Signed] = [(1, BasisElement(kind, r, a, m)) for kind, deg in (("X", n), ("Y", n - 1))
                           for a in combinations(range(2, d + 1), r) for ok in [least_range(kind, a, d)]
                           for m in monomials_of_degree(d, deg, ok.start) if least(m) in ok]
    assert len(elems) == rank_formulas(d, n, r)[2]
    return OrderedBasis(d, n, r, tuple(elems))


def expand_kappa(c: tuple[int, ...], m: Mono) -> list[tuple[int, BasisElement]]:
    """Straighten kappa(x_{c_1}^..^x_{c_s} (x) m) into standard Y elements."""
    s = len(c)
    lm = least(m)
    if c[0] <= lm:
        return [(1, BasisElement("Y", s, c, m))]
    out: list[tuple[int, BasisElement]] = []
    m_red = div_var(m, lm)
    for k in range(1, s + 1):
        new_a = (lm,) + c[:k - 1] + c[k:]
        new_m = mul_var(m_red, c[k - 1])
        out.append(((-1) ** (k + 1), BasisElement("Y", s, new_a, new_m)))
    return out


def kos_expansion(elt: BasisElement) -> dict[BasisElement, dict[int, int]]:
    """The Koszul contraction of a Y element, straightened into standard Y elements, by variable.

    This is the monomial strand L of the skeleton of the resolution (without
    the determinant factor); the sign normalization is (-1)^j on the j-th
    wedge slot.  Every target maps v = a_j to the nonzero c of its term c x_v.
    The dual strand on the X elements is the pairing transpose of L
    (differentials.canonical_skeleton), so no X element is straightened.
    """
    out: dict[BasisElement, dict[int, int]] = {}
    for j in range(1, elt.r + 1):
        aj = elt.a[j - 1]
        rest = elt.a[:j - 1] + elt.a[j:]
        sign = (-1) ** j
        for coeff, target in expand_kappa(rest, elt.m):
            terms = out.setdefault(target, {})
            c = terms.get(aj, 0) + sign * coeff
            if c:
                terms[aj] = c
            else:
                del terms[aj]
    return {t: terms for t, terms in out.items() if terms}


def skeleton_kos_blocks(mat):
    """(K block, L block) of one skeleton matrix: its X x X and Y x Y blocks.

    For the map out of position r of differentials.canonical_skeleton(d, n),
    in the self-dual bases and without the delta factor, these are the dual
    strand K and the monomial strand L.  K is empty at r = 1 and L at r = d.
    """
    return mat.block("X"), mat.block("Y")


def wedge_sign(seq: tuple[int, ...]) -> int:
    """Sign of the permutation sorting seq ascending; 0 when seq has repeats."""
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def pp_value(e1: BasisElement, e2: BasisElement) -> int:
    """Coefficient of the top generator in the perfect pairing of e1 (x) e2.

    e1 lives in homological degree r, e2 in degree d - r.
    """
    d = e1.d
    if e1.r + e2.r != d:
        raise ValueError(f"pairing needs complementary degrees, got {e1.r} and {e2.r}")
    if e1.r == 0 or e1.r == d:
        return 1
    if e1.kind == e2.kind:
        return 0
    if e1.kind == "Y":
        y, x, flip_sign = e1, e2, 1
        seq = y.a[1:] + x.a
    else:
        x, y, flip_sign = e1, e2, (-1) ** e1.r
        seq = x.a + y.a[1:]
    if not var_divides(y.a[0], x.m) or div_var(x.m, y.a[0]) != y.m:
        return 0
    return flip_sign * wedge_sign(seq)


@lru_cache(maxsize=None)
def pp_dual_element(e: BasisElement) -> tuple[int, BasisElement]:
    """The unique signed partner f with pp(e (x) f) = +1 (the top generator), found once per element."""
    d = e.d
    if e.r == 0:
        return 1, xd(d)
    if e.r == d:
        return 1, y0(d)
    if e.kind == "Y":
        tail = tuple(sorted(set(range(2, d + 1)) - set(e.a[1:])))
        partner = BasisElement("X", d - e.r, tail, mul_var(e.m, e.a[0]))
    else:
        head = least(e.m)
        tail = tuple(sorted(set(range(2, d + 1)) - set(e.a)))
        partner = BasisElement("Y", d - e.r, tuple(sorted((head,) + tail)), div_var(e.m, head))
    v = pp_value(e, partner)
    assert v in (1, -1)
    return v, partner


@lru_cache(maxsize=None)
def pairing(basis: OrderedBasis, dual: OrderedBasis) -> tuple[tuple[int, int], ...]:
    """The pairing of basis with the complementary dual, as (partner index, sign) per element.

    In these bases the pairing is a signed permutation: each element pairs to
    its pp_dual_element partner and to no other element.  It is kept by the
    two bases, which a resolution and its skeleton share.  Past the middle it
    is the inverse of the one of dual, as pp(f (x) e) = (-1)^(r(d-r)) pp(e (x) f).
    """
    if 2 * basis.r > basis.d:
        inverse = {j: (i, (-1) ** (basis.r * dual.r) * s) for i, (j, s) in enumerate(pairing(dual, basis))}
        return tuple(inverse[j] for j in range(len(basis)))
    pos = dual.position()
    out = []
    for s, e in basis:
        v, partner = pp_dual_element(e)
        j, s2 = pos[partner]
        out.append((j, s * s2 * v))
    return tuple(out)


def pp_dual_basis(basis: OrderedBasis) -> OrderedBasis:
    """The ordered signed basis of the complementary module dual to the given one."""
    out: list[Signed] = []
    for s, e in basis.elements:
        v, partner = pp_dual_element(e)
        out.append((s * v, partner))
    return OrderedBasis(basis.d, basis.n, basis.d - basis.r, tuple(out))


@lru_cache(maxsize=None)
def duality_basis(d: int, n: int, r: int) -> OrderedBasis:
    """Self-dual family of ordered bases: raw below the middle, pairing-dual above.

    For even d the middle basis keeps its X block in the raw order and
    completes the Y block as the pairing-dual of that X block.  The pairing
    matrix P_k of positions k and d-k is then the identity for odd d.  For
    even d, P_{d/2} is a signed swap of the X and Y blocks and P_k = -I for
    odd k > d/2; every other P_k is the identity.
    """
    if not 0 <= r <= d:
        raise ValueError(f"r={r} out of range 0..{d}")
    if 2 * r < d:
        return enumerate_basis(d, n, r)
    if 2 * r > d:
        out = pp_dual_basis(duality_basis(d, n, d - r))
    else:
        xs = enumerate_basis(d, n, r).part("X")
        out = OrderedBasis(d, n, r, xs.elements + pp_dual_basis(xs).elements)
    # the partners are the standard basis, checked with no second enumeration
    size = rank_formulas(d, n, r)[2] if r < d else 1
    assert len({e for _, e in out}) == len(out) == size and all(is_standard(e, n) for _, e in out), (d, n, r)
    return out
