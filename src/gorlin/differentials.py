"""Construction of the resolution matrices from an admissible inverse system.

invsys.delta_and_Q is the admissibility gate: every build starts there, and
an inverse system with delta = 0 is refused before any matrix is written.

Every differential is the lift b_r = delta * S_r + x1 * C_r of its skeleton
S_r = canonical_skeleton(d, n)[r - 1]: the Koszul strands on x2..xd, which
depend on (d, n) alone and are written once, there.  The inverse system
enters only through the cofactor C_r of x1, a constant matrix for
2 <= r <= d-1 and of degree n-1 for r = 1 and r = d.

One writer, br_column, writes each column of an interior cofactor C_r
directly in the standard basis elements using the closed-form coefficient
sums in t and Q; it serves the X and the Y generators, which differ only in
two coefficient forms.  b1_column writes the cofactor of b_1.  All matrices
are written in one basis family, the self-dual bases of
hookbasis.duality_basis, in which the pairing between complementary
positions is a signed permutation.  B and its skeleton are self-dual, so
only C_1..C_h, h = (d+1)//2, are written; each later map is paired from
its partner (paired, pair_upper_half).

The cofactors are Z-linear in the coefficient sums Q, tq and W
(BuildContext), and which sums meet in which entry depends on (d, n) alone.
So the writers run once per (d, n), on a PlanContext that names each sum by
a key index.  A writer's coefficient is a signed key, +k or -k; it writes
each term of C_r once, as a list of (coefficient, key index) pairs, and
_record signs the terms by the bases.  build_plan keeps the result: every
term of C_1..C_h as an integer combination of the keys, in the cell format
that _evaluate reads.  A build fills one value per key from the numeric
BuildContext and evaluates the plan into the constants of C_2..C_h and the
forms of C_1.  It returns the lift (Lift): delta, canonical_skeleton(d, n)
and those cofactors, frozen.  No matrix is written then: Resolution builds
each on request, the lower half as delta S_r beside x1 C_r and the upper
half paired, and a Session reads S and C from the lift itself.  So the
skeleton, the x1 split and the pairing rule hold by construction, except
that the pairing rule of the middle map of odd d, which pairs with itself,
is a fact of the cofactor br_column writes there.
Every coefficient is an integer numerator over one power of the lcm L of
phi's denominators; _evaluate divides it out when it writes the term, so
a coefficient is an int whenever it is integral (always, for phi with
integer coefficients: L = 1) and a Fraction only otherwise.  A sum that is
zero for this phi leaves no term, and an entry left with no term is not
stored (PolyMatrix keeps the nonzero entries only).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul as times
from typing import Any, Callable

from .hookbasis import BasisElement, OrderedBasis, duality_basis, gamma_of, kos_expansion, pairing, y0
from .invsys import Catalecticant, InverseSystem, delta_and_Q, integer_coeffs
from .monomials import (
    Mono,
    div_var,
    monomials_of_degree,
    mul,
    mul_var,
    unit,
    var_divides,
)
from .polymatrix import PolyMatrix
from .polynomials import Poly, Scalar, exact, over


class BuildContext:
    """Shared catalecticant data and the coefficient sums of one build, in integers.

    Every coefficient is carried as an int numerator over the one
    denominator D = L^(N+1) (denom), where L is the lcm of phi's denominators
    and N = dim S_{n-1}: with t' = L t, Q = adj T' / L^(N-1) and
    delta = det T' / L^N (invsys.Catalecticant), the numerators of Q and
    delta are L^2 adj T' and L det T', and each sum of t' times numerators
    over D, divided by L, is again a numerator over D.  The coefficient
    itself is formed once, when _evaluate writes the entry.

    The sums over the monomials m of degree n-2 are dot products of int rows
    built once per phi: A[u] = [t'_{u*m}] for u of degree n, QX[w] =
    [Q[w, x1*m]] for each w of degree n-1 by its catalecticant index, and,
    on first use, TQX[u] = [tq(u, x1*m)].
    """

    def __init__(self, phi: InverseSystem, cat: Catalecticant):
        self.d, self.n = phi.d, phi.n
        nm2 = monomials_of_degree(phi.d, phi.n - 2)
        self.scale, self.t = integer_coeffs(phi)
        self.index = cat.index
        self.denom = self.scale ** (len(cat.monos) + 1)
        self.delta = self.scale * cat.det
        self.q = [[self.scale**2 * v for v in row] for row in cat.adj]
        t = self.t
        self._a = {u: [t.get(mul(u, m), 0) for m in nm2] for u in monomials_of_degree(phi.d, phi.n)}
        x1 = [cat.index[mul_var(m, 1)] for m in nm2]
        self._qx = [[row[k] for k in x1] for row in self.q]
        self._qx1 = [self._qx[k] for k in x1]
        self._tqx: dict[Mono, list[int]] = {}

    def Q(self, m1: Mono, m2: Mono) -> int:
        return self.q[self.index[m1]][self.index[m2]]

    def tq(self, u: Mono, w: Mono) -> int:
        """sum over m of degree n-2 of t_{u*m} * Q[w, x1*m]  (u deg n, w deg n-1)."""
        return sum(map(times, self._a[u], self._qx[self.index[w]])) // self.scale

    def W(self, u: Mono, v: Mono) -> int:
        """double sum of Q[x1*m1, x1*m2] t_{u*m2} t_{v*m1} over degree-(n-2) pairs.

        The inner sum over m2 is tq(u, x1*m1), the row TQX[u].
        """
        row = self._tqx.get(u)
        if row is None:
            a = self._a[u]
            row = self._tqx[u] = [sum(map(times, a, qx)) // self.scale for qx in self._qx1]
        return sum(map(times, self._a[v], row)) // self.scale


class PlanContext:
    """The coefficient sums of a BuildContext as formal keys: the context the column writers run on.

    Q, tq and W return the index of the key (name, u, v), interned in keys
    from index 1 on; Q and W are symmetric, so their two arguments are
    keyed in sorted order.  A writer's coefficient is a signed key: k or -k
    for plus or minus the sum of key k, 0 for none.  Signed keys are negated
    and multiplied by signs, never added: _pairs writes a difference of two.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        self.nm1_all = monomials_of_degree(d, n - 1)
        self.keys: list[tuple[str, Mono, Mono]] = []
        self._index: dict[tuple[str, Mono, Mono], int] = {}

    def _key(self, key: tuple[str, Mono, Mono]) -> int:
        k = self._index.get(key)
        if k is None:
            self.keys.append(key)
            k = self._index[key] = len(self.keys)
        return k

    def Q(self, m1: Mono, m2: Mono) -> int:
        return self._key(("Q", m1, m2) if m1 <= m2 else ("Q", m2, m1))

    def tq(self, u: Mono, w: Mono) -> int:
        return self._key(("tq", u, w))

    def W(self, u: Mono, v: Mono) -> int:
        return self._key(("W", u, v) if u <= v else ("W", v, u))


# an integer combination of keys, as (coefficient, key index) pairs: the cell format of a Plan
Pairs = tuple[tuple[int, int], ...]
# (target, m, pairs): the term of monomial m of the cofactor entry at target, with coefficient pairs
Contribution = tuple[BasisElement, Mono, Pairs]


def _pairs(sign: int, plus: int, minus: int = 0) -> Pairs:
    """sign * (plus - minus) as pairs, for signed keys plus != minus (0 for none)."""
    if plus == -minus:
        sign, minus = 2 * sign, 0
    out = ((sign, plus) if plus > 0 else (-sign, -plus),) if plus else ()
    if minus:
        out += ((-sign, minus) if minus > 0 else (sign, -minus),)
    return out


def b1_column(ctx: PlanContext, elt: BasisElement) -> list[Contribution]:
    """The x1 cofactor of the degree-n generator of the ideal attached to a degree-1 basis element.

    On an X element X(1; a; m) it is the sum of Q(m1, m/x_a) m1, on a Y
    element Y(1; a; m) minus the sum of tq(m x_a, m2) m2, over the monomials
    of degree n-1.
    """
    y = y0(ctx.d)
    if elt.kind == "X":
        w = div_var(elt.m, elt.a[0])
        return [(y, m1, ((1, ctx.Q(m1, w)),)) for m1 in ctx.nm1_all]
    u = mul_var(elt.m, elt.a[0])
    return [(y, m2, ((-1, ctx.tq(u, m2)),)) for m2 in ctx.nm1_all]


def br_column(ctx: PlanContext, r: int, elt: BasisElement) -> list[Contribution]:
    """Column of the interior cofactor C_r on an X or Y generator, in the standard basis.

    The two kinds share every block and differ only in the coefficient forms
    of the X targets, eta(s, u), and of the Y targets, kappa(u, s):

      X generator:  eta(s, u) = [x_s | m] tq(u, m/x_s),  kappa(u, s) = [x_s | m] Q(u, m/x_s);
      Y generator:  eta(s, u) = -W(m*x_s, u),            kappa(u, s) = -tq(m*x_s, u).

    The first Y block is empty on an X generator, whose index list starts
    with a_1 = 2.  Every target is written in one place, as
    sign * (plus - minus) with plus and minus signed keys or 0.
    """
    if not 2 <= r <= ctx.d - 1 or elt.r != r:
        raise ValueError(f"invalid generator for degree {r}: {elt}")
    d, n = ctx.d, ctx.n
    a, m = elt.a, elt.m
    g = gamma_of(a)
    a1, a2 = a[0], a[1]
    one = unit(d)
    out: list[Contribution] = []
    if elt.kind == "X":
        quot = {s: div_var(m, s) for s in range(2, d + 1) if var_divides(s, m)}

        def eta(s: int, u: Mono) -> int:
            return ctx.tq(u, quot[s]) if s in quot else 0

        def kappa(u: Mono, s: int) -> int:
            return ctx.Q(u, quot[s]) if s in quot else 0
    else:
        prod = {s: mul_var(m, s) for s in range(2, d + 1)}

        def eta(s: int, u: Mono) -> int:
            return -ctx.W(prod[s], u)

        def kappa(u: Mono, s: int) -> int:
            return -ctx.tq(prod[s], u)

    def emit(kind: str, rest: tuple[int, ...], mono: Mono, sign: int, plus: int, minus: int = 0) -> None:
        if plus != minus:
            # the target as the plain tuple of its fields, which hashes and compares as the BasisElement
            out.append(((kind, r - 1, rest, mono), one, _pairs(sign, plus, minus)))

    # X targets
    for ell in range(2, g + 1):
        for k in range(ell, r + 1):
            ak = a[k - 1]
            rest = a[:k - 1] + a[k:]
            for m2 in monomials_of_degree(d, n - 1, low_var=ell):
                u = mul_var(m2, ell)
                emit("X", rest, u, (-1) ** k, eta(ak, u), eta(ell, mul_var(m2, ak)))
    for j in range(g, r + 1):
        for k in range(j + 1, r + 1):
            aj, ak = a[j - 1], a[k - 1]
            rest = a[:g - 1] + (g + 1,) + tuple(x for x in a[g - 1:] if x != aj and x != ak)
            for m2 in monomials_of_degree(d, n - 1, low_var=g + 1):
                emit("X", rest, mul_var(m2, g + 1), (-1) ** (g + j + k),
                     eta(ak, mul_var(m2, aj)), eta(aj, mul_var(m2, ak)))

    # Y targets
    for ell in range(2, a1):
        for j in range(1, r + 1):
            for k in range(j + 1, r + 1):
                aj, ak = a[j - 1], a[k - 1]
                rest = (ell,) + tuple(x for x in a if x != aj and x != ak)
                for m1 in monomials_of_degree(d, n - 1, low_var=ell):
                    emit("Y", rest, m1, (-1) ** (j + k),
                         kappa(div_var(mul_var(m1, ell), ak), aj) if var_divides(ak, m1) else 0,
                         kappa(div_var(mul_var(m1, ell), aj), ak) if var_divides(aj, m1) else 0)
    for k in range(2, r + 1):
        ak = a[k - 1]
        rest = a[:k - 1] + a[k:]
        for m1 in monomials_of_degree(d, n - 1, low_var=a1):
            emit("Y", rest, m1, (-1) ** k, kappa(m1, ak),
                 kappa(div_var(mul_var(m1, a1), ak), a1) if var_divides(ak, m1) else 0)
    for ell in range(a1 + 1, a2):
        for k in range(2, r + 1):
            ak = a[k - 1]
            rest = (ell,) + a[1:k - 1] + a[k:]
            for m1 in monomials_of_degree(d, n - 1, low_var=ell):
                if var_divides(ak, m1):
                    emit("Y", rest, m1, (-1) ** (k + 1), kappa(div_var(mul_var(m1, ell), ak), a1))
    for m1 in monomials_of_degree(d, n - 1, low_var=a2):
        emit("Y", a[1:], m1, -1, kappa(m1, a1))
    return out


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def twist_list(d: int, n: int) -> tuple[int, ...]:
    return (0,) + tuple(n + r - 1 for r in range(1, d)) + (2 * n + d - 2,)


def _assemble(rows: OrderedBasis, cols: OrderedBasis, expansions) -> PolyMatrix:
    """The matrix whose column j is expansions[j], signed by the bases.

    expansions[j] maps a target element to the int coefficients of the
    entry's terms.  A target outside the row basis is a KeyError.
    """
    pos = rows.position()
    mat = PolyMatrix(rows, cols, [{} for _ in rows])
    for j, (csign, _) in enumerate(cols.elements):
        for target, terms in expansions[j].items():
            i, rsign = pos[target]
            s = csign * rsign
            mat.set(i, j, Poly(rows.d, {m: s * c for m, c in terms.items()}))
    return mat


# the rows of a map: row i maps a column j to the value of the nonzero entry (i, j)
Rows = list[dict[int, Any]]


def paired(bases: tuple[OrderedBasis, ...], k: int, rows: Rows, signed: Callable[[Any, int], Any]) -> Rows:
    """The rows of map k of a self-dual complex, k > (d+1)//2, from the rows of map d + 1 - k.

    By b_{r+1}^T P_r = (-1)^r P_{r+1} b_{d-r}, P_k the signed permutation
    pairing(bases[k], bases[d-k]), entry (ii, kk) of b_{d-r} is (-1)^r s t
    times entry (i, jj) of b_{r+1}, where P_r pairs i with kk by the sign s
    and P_{r+1} pairs jj with ii by t.  signed(v, e) is a new value, v
    times the sign e.  For odd d the middle map pairs with itself, and no
    map is written from it.
    """
    r = len(bases) - 1 - k
    rows_p, cols_p = pairing(bases[r], bases[k]), pairing(bases[r + 1], bases[k - 1])
    out: Rows = [{} for _ in bases[k - 1]]
    for i, row in enumerate(rows):
        kk, s = rows_p[i]
        s *= (-1) ** r
        for jj, v in row.items():
            ii, t = cols_p[jj]
            out[ii][kk] = signed(v, s * t)
    return out


def pair_upper_half(bases: tuple[OrderedBasis, ...], lower: list[Rows], signed) -> list[Rows]:
    """lower = the rows of b_1..b_h, h = (d+1)//2, followed by those of b_{h+1}..b_d (paired)."""
    d = len(bases) - 1
    return lower + [paired(bases, k, lower[d - k], signed) for k in range(len(lower) + 1, d + 1)]


def signed_terms(terms: dict[Mono, Scalar], e: int) -> dict[Mono, Scalar]:
    """The terms of a polynomial times the sign e, a new dict."""
    return dict(terms) if e > 0 else {m: -c for m, c in terms.items()}


def _polys(d: int, rows: Rows) -> list[dict[int, Poly]]:
    """Rows of term dicts as rows of Poly; each Poly takes its dict as it is, with no coefficient checked again."""
    new = Poly.__new__
    out = []
    for row in rows:
        prow = {}
        for j, terms in row.items():
            p = prow[j] = new(Poly)
            p.d, p.terms = d, terms
        out.append(prow)
    return out


@dataclass(frozen=True)
class Lift:
    """B as the lift of its skeleton: b_r = delta S_r + x1 C_r for r <= h = (d+1)//2, the later maps paired.

    skeleton is canonical_skeleton(d, n), S_r = skeleton[r - 1], and
    cofactors[r - 1] is C_r by rows (Rows): at r = 1 a column j maps to the
    terms {m: c} of its cofactor, of degree n-1, and inside to its constant
    c.  No term of S_r has x1, so the two parts share no monomial.  terms
    writes new dicts, and cofactor hands out C_r itself up to h, for
    reading; nothing alters the lift.
    """

    delta: Scalar
    bases: tuple[OrderedBasis, ...]
    skeleton: tuple[PolyMatrix, ...]
    cofactors: tuple[Rows, ...]

    def terms(self, r: int) -> Rows:
        """The entries of b_r as term dicts."""
        d, h = len(self.bases) - 1, len(self.cofactors)
        if r > h:
            return paired(self.bases, r, self.terms(d + 1 - r), signed_terms)
        delta = self.delta
        rows = [{j: {m: c * delta for m, c in p.terms.items()} for j, p in row.items()}
                for row in self.skeleton[r - 1].entries]
        if r == 1:
            for row, crow in zip(rows, self.cofactors[0]):
                for j, cof in crow.items():
                    # (m[0] + 1,) + m[1:] is x1 * m
                    row.setdefault(j, {}).update({(m[0] + 1,) + m[1:]: c for m, c in cof.items()})
        else:
            x1 = (1,) + (0,) * (d - 1)
            for row, crow in zip(rows, self.cofactors[r - 1]):
                for j, c in crow.items():
                    row.setdefault(j, {})[x1] = c
        return rows

    def cofactor(self, r: int) -> Rows:
        """C_r for 2 <= r <= d-1, by rows; past h paired from C_{d+1-r}, as b_r is from b_{d+1-r}."""
        if r <= len(self.cofactors):
            return self.cofactors[r - 1]
        return paired(self.bases, r, self.cofactors[len(self.bases) - 1 - r], lambda c, e: c * e)

    def monomials(self, r: int) -> set[Mono]:
        """The distinct monomials of b_r: those of S_r, and x1 times those of C_r (C_{d+1-r} past h)."""
        out = self.skeleton[r - 1].monomials()
        r = min(r, len(self.bases) - r)
        if r == 1:
            out.update((m[0] + 1,) + m[1:] for row in self.cofactors[0] for cof in row.values() for m in cof)
        elif any(self.cofactors[r - 1]):
            out.add((1,) + (0,) * (len(self.bases) - 2))
        return out


class BuiltMatrix(PolyMatrix):
    """A matrix built from a lift, new on each request: set refuses, as it would alter only this copy."""

    def set(self, i: int, j: int, p: Poly) -> None:
        raise TypeError("a matrix built from a lift is read-only; alter a Resolution.from_matrices copy")


@dataclass
class Resolution:
    """The resolution of phi in its self-dual bases, bases[k] at position k, with its twists.

    build_resolution gives the lift form: lift is the Lift it wrote, and
    each matrix is built from it on request, a new BuiltMatrix on every
    call, so nothing done to a matrix handed out alters the resolution, its
    dumps or the facts a Session proves from the lift.  from_matrices gives
    the matrix form: lift is None and the matrices are kept as given, for a
    caller to alter; a Session proves every fact on them, the full route.
    """

    phi: InverseSystem
    delta: Fraction
    bases: tuple[OrderedBasis, ...]
    twists: tuple[int, ...]
    lift: Lift | None = None
    stored: tuple[PolyMatrix, ...] = ()

    @classmethod
    def from_matrices(cls, phi: InverseSystem, delta: Fraction, bases: tuple[OrderedBasis, ...],
                      matrices, twists: tuple[int, ...]) -> "Resolution":
        """The matrix form with b_r = matrices[r - 1], each kept as a mutable PolyMatrix on its rows."""
        return cls(phi, delta, bases, twists, stored=tuple(PolyMatrix(m.rows, m.cols, m.entries) for m in matrices))

    @property
    def d(self) -> int:
        return self.phi.d

    @property
    def n(self) -> int:
        return self.phi.n

    @property
    def matrices(self) -> tuple[PolyMatrix, ...]:
        """b_1..b_d; in lift form new matrices, the lower half built once and the upper half paired from it."""
        if self.lift is None:
            return self.stored
        lower = [self.lift.terms(r) for r in range(1, len(self.lift.cofactors) + 1)]
        return tuple(self._built(r, rows) for r, rows in
                     enumerate(pair_upper_half(self.bases, lower, signed_terms), 1))

    def matrix(self, r: int) -> PolyMatrix:
        """The matrix of the differential out of homological degree r (1-based)."""
        if self.lift is None:
            return self.stored[r - 1]
        return self._built(r, self.lift.terms(r))

    def _built(self, r: int, rows: Rows) -> BuiltMatrix:
        return BuiltMatrix(self.bases[r - 1], self.bases[r], _polys(self.d, rows))

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)

    def __repr__(self) -> str:
        return f"Resolution(d={self.d}, n={self.n}, delta={self.delta}, betti={self.betti})"


# (i, j, m, pairs): the term of monomial m of entry (i, j) of a cofactor, with its coefficient pairs
Cell = tuple[int, int, Mono, Pairs]


@dataclass(frozen=True)
class Plan:
    """The cofactors C_1..C_h of one (d, n), h = (d+1)//2, as integer combinations of keys.

    keys[k - 1] is the key (name, u, v) whose value is ctx.name(u, v) on a
    BuildContext.  cells[r - 1] lists the terms (i, j, m, pairs) of C_r,
    signed by the bases: m has degree n-1 at r = 1 and is 1 inside.  The
    other part of b_r, delta S_r, is canonical_skeleton's.  Every part is a
    tuple of ints and tuples, which the garbage collector can stop
    tracking, so the plan is not traversed again at each collection of the
    process.
    """

    keys: tuple[tuple[str, Mono, Mono], ...]
    cells: tuple[tuple[Cell, ...], ...]


def _record(rows: OrderedBasis, cols: OrderedBasis, cofactors) -> tuple[Cell, ...]:
    """The cells of the cofactor C whose column j is the sum of cofactors[j], signed by the bases.

    cofactors[j] lists the contributions of column j, signed as written.  A
    writer reaches each term once and sums its keys itself (_pairs), so a
    term is placed, not added to.  A target outside the row basis is a
    KeyError.
    """
    pos = rows.position()
    out: list[Cell] = []
    for j, ((csign, _), col) in enumerate(zip(cols, cofactors)):
        for target, m, pairs in col:
            i, rsign = pos[target]
            out.append((i, j, m, pairs if csign == rsign else tuple([(-c, k) for c, k in pairs])))
    return tuple(out)


@lru_cache(maxsize=None)
def build_plan(d: int, n: int) -> Plan:
    """The plan of C_1..C_h at (d, n), h = (d+1)//2.

    b1_column and br_column run once, on a PlanContext; the plan is then
    evaluated for each inverse system (_evaluate).
    """
    ctx = PlanContext(d, n)
    bases = [duality_basis(d, n, r) for r in range(d + 1)]
    cells = []
    for r in range(1, (d + 1) // 2 + 1):
        # written column by column as _record places them, so no column outlives its placing
        columns = (b1_column(ctx, e) if r == 1 else br_column(ctx, r, e) for _, e in bases[r])
        cells.append(_record(bases[r - 1], bases[r], columns))
    return Plan(tuple(ctx.keys), tuple(cells))


def _evaluate(plan: Plan, ctx: BuildContext, bases: tuple[OrderedBasis, ...]) -> tuple[Rows, ...]:
    """The cofactors of the plan for the inverse system of ctx, by rows as Lift keeps them.

    Each key is evaluated once; a term whose numerator is zero is dropped,
    and a nonzero numerator is divided by ctx.denom (polynomials.over).
    """
    # key index 0 is no key (PlanContext)
    values = [0] + [getattr(ctx, name)(u, v) for name, u, v in plan.keys]
    denom = ctx.denom
    out = []
    for r, cells in enumerate(plan.cells, 1):
        rows: Rows = [{} for _ in bases[r - 1]]
        for i, j, m, lin in cells:
            num = 0
            for c, k in lin:
                num += c * values[k]
            if num:
                # over gives an int when it is integral, as Poly stores it
                if r == 1:
                    rows[i].setdefault(j, {})[m] = over(num, denom)
                else:
                    rows[i][j] = over(num, denom)
        out.append(rows)
    return tuple(out)


def build_resolution(phi: InverseSystem, ordering: str = "selfdual") -> Resolution:
    """The resolution of phi in lift form, from the closed-form column formulas, in the self-dual bases.

    ordering names the basis family; "selfdual" (duality_basis) is the only one.
    """
    if ordering != "selfdual":
        raise ValueError(f"unknown ordering {ordering!r}; the only basis family is 'selfdual'")
    cat = delta_and_Q(phi)
    d, n = phi.d, phi.n
    bases = tuple(duality_basis(d, n, r) for r in range(d + 1))
    cofactors = _evaluate(build_plan(d, n), BuildContext(phi, cat), bases)
    lift = Lift(exact(cat.delta), bases, canonical_skeleton(d, n), cofactors)
    return Resolution(phi, cat.delta, bases, twist_list(d, n), lift=lift)


@lru_cache(maxsize=None)
def canonical_skeleton(d: int, n: int) -> tuple[PolyMatrix, ...]:
    """The skeleton B/x1 B without its delta factor: the maps out of positions 1..d.

    It depends on (d, n) alone.  It is the only place where the entries of
    the two Koszul strands on x2..xd are written: the monomial strand L on
    the Y elements and the dual strand K on the X elements, with no entry
    between the two kinds.  Built in the self-dual bases of every
    resolution: the maps out of positions 1..(d+1)//2 are written here and
    the later ones paired (pair_upper_half); Lift reads them as S_r.
    """
    bases = tuple(duality_basis(d, n, r) for r in range(d + 1))
    lower = []
    for r in range(1, (d + 1) // 2 + 1):
        if r == 1:
            expans = [{y0(d): {mul_var(e.m, e.a[0]): 1}} if e.kind == "Y" else {} for _, e in bases[1]]
        else:
            expans = [{t: p.terms for t, p in kos_expansion(e).items()} for _, e in bases[r]]
        lower.append(_assemble(bases[r - 1], bases[r], expans))
    upper = pair_upper_half(bases, [[{j: p.terms for j, p in row.items()} for row in m.entries] for m in lower],
                            signed_terms)[len(lower):]
    return tuple(lower) + tuple(PolyMatrix(bases[k - 1], bases[k], _polys(d, rows))
                                for k, rows in enumerate(upper, len(lower) + 1))
