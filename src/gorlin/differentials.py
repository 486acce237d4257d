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
positions is a signed permutation.  B and its skeleton are self-dual, and
paired applies the pairing rule in one place: every map is its own written
entries beside the pairing transpose of its partner's.  The skeleton
writes the strand L and takes K from it; only C_1..C_h, h = (d+1)//2, are
written, and each later cofactor is the transpose of its partner's.  For
odd d the middle map b_h is its own partner: one side of its diagonal is
written, and its transpose is the other.

The cofactors are Z-linear in the coefficient sums Q, tq and W
(invsys.Catalecticant), and which sums meet in which entry depends on
(d, n) alone.  So the writers run once per (d, n), on a PlanContext that
names each sum by a key index.  A writer's coefficient is a signed key, +k
or -k, and it writes each term of C_r once, as sign * (plus - minus) on two
signed keys; _record signs the terms by the bases.  build_plan keeps the
result: every term of C_1..C_h in that one form, the cell that _evaluate
reads.  A build fills one value per key from the Catalecticant record that
delta_and_Q returns and evaluates the plan into the constants of C_2..C_h
and the forms of C_1.  It returns phi,
delta and those cofactors as one frozen record (Resolution); the rest is a
fact of (d, n).  No matrix is written then: Resolution builds each on
request as delta S_r beside x1 C_r, and a Session reads S and C from the
record.  So the skeleton, the x1 split and the pairing rule on every map
hold by construction.
Every key's value is an integer numerator over the one denominator of the
record (Catalecticant states the convention); _evaluate divides it out
when it writes the term, so a coefficient is an int whenever it is
integral (always, for phi with integer coefficients) and a Fraction only
otherwise.  A sum that is zero for this phi leaves no term, and an entry
left with no term is not stored (PolyMatrix keeps the nonzero entries only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul as times
from typing import Any, Callable, Iterator

from .hookbasis import BasisElement, OrderedBasis, duality_basis, gamma_of, kos_expansion, pairing, y0
from .invsys import Catalecticant, InverseSystem, delta_and_Q
from .monomials import Mono, div_var, monomials_of_degree, mul_var, unit, var_divides
from .polymatrix import PolyMatrix
from .polynomials import Scalar, Terms, exact, over


class PlanContext:
    """The coefficient sums of a Catalecticant as formal keys: the context the column writers run on.

    Q, tq and W return the index of the key (name, u, v), interned in keys
    from index 1 on; Q and W are symmetric, so their two arguments are
    keyed in sorted order.  A writer's coefficient is a signed key: k or -k
    for plus or minus the sum of key k, 0 for none.  Signed keys are negated,
    never added: a term is sign * (plus - minus), and _evaluate reads it so.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        self.nm1_all = monomials_of_degree(d, n - 1)
        # tables of (d, n) for the monomials m of degree n-1 in x2..xd, which br_column reads in place of
        # multiplying again in every column: low[l] those in x_l..x_d, multiples[m][s] = m x_s, and
        # swap[m][l][s] = m x_l / x_s when x_s divides m, else None
        self.low = {ell: monomials_of_degree(d, n - 1, low_var=ell) for ell in range(2, d + 1)}
        self.multiples = {m: (None,) + tuple(mul_var(m, s) for s in range(1, d + 1)) for m in self.low[2]}
        self.swap = {m: [[div_var(up[ell], s) if ell > 1 and s > 1 and m[s - 1] else None for s in range(d + 1)]
                         for ell in range(d + 1)] for m, up in self.multiples.items()}
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


# (target, m, sign, plus, minus): the term sign * (plus - minus) of monomial m of the cofactor entry at
# target, plus and minus signed keys (0 for none) with plus != minus, and sign 1 or -1
Contribution = tuple[BasisElement, Mono, int, int, int]


def b1_column(ctx: PlanContext, elt: BasisElement) -> list[Contribution]:
    """The x1 cofactor of the degree-n generator of the ideal attached to a degree-1 basis element.

    On an X element X(1; a; m) it is the sum of Q(m1, m/x_a) m1, on a Y
    element Y(1; a; m) minus the sum of tq(m x_a, m2) m2, over the monomials
    of degree n-1.
    """
    y = y0(ctx.d)
    if elt.kind == "X":
        w = div_var(elt.m, elt.a[0])
        return [(y, m1, 1, ctx.Q(m1, w), 0) for m1 in ctx.nm1_all]
    u = mul_var(elt.m, elt.a[0])
    return [(y, m2, -1, ctx.tq(u, m2), 0) for m2 in ctx.nm1_all]


def br_column(ctx: PlanContext, r: int, elt: BasisElement, rows: dict[BasisElement, int] | None = None,
              j: int = 0) -> list[Contribution]:
    """Column of the interior cofactor C_r on an X or Y generator, in the standard basis.

    The two kinds share every block and differ only in the coefficient forms
    of the X targets, eta(s, u), and of the Y targets, kappa(u, s):

      X generator:  eta(s, u) = [x_s | m] tq(u, m/x_s),  kappa(u, s) = [x_s | m] Q(u, m/x_s);
      Y generator:  eta(s, u) = -W(m*x_s, u),            kappa(u, s) = -tq(m*x_s, u).

    The first Y block is empty on an X generator, whose index list starts
    with a_1 = 2.  Every target is written in one place, as
    sign * (plus - minus) with plus and minus signed keys or 0; a block
    whose forms are all zero on this generator is passed over.  When rows
    is given, the generator is column j and rows maps each row element to
    its position: only the targets at positions up to j are written, one
    side of the diagonal (build_plan).  The targets of each innermost loop
    come in the order of the rows, so the first one past j ends the loop,
    before any key of its coefficient is named.
    """
    if not 2 <= r <= ctx.d - 1 or elt.r != r:
        raise ValueError(f"invalid generator for degree {r}: {elt}")
    d = ctx.d
    a, m = elt.a, elt.m
    g = gamma_of(a)
    a1, a2 = a[0], a[1]
    one = unit(d)
    multiples, low, swap = ctx.multiples, ctx.low, ctx.swap
    out: list[Contribution] = []
    if elt.kind == "X":
        quot = {s: div_var(m, s) for s in range(2, d + 1) if var_divides(s, m)}
        live = quot.keys()  # the s whose forms are not zero

        def eta(s: int, u: Mono) -> int:
            return ctx.tq(u, quot[s]) if s in quot else 0

        def kappa(u: Mono, s: int) -> int:
            return ctx.Q(u, quot[s]) if s in quot else 0
    else:
        prod = multiples[m]
        live = range(2, d + 1)

        def eta(s: int, u: Mono) -> int:
            return -ctx.W(prod[s], u)

        def kappa(u: Mono, s: int) -> int:
            return -ctx.tq(prod[s], u)

    def emit(target: tuple, sign: int, plus: int, minus: int = 0) -> None:
        if plus != minus:
            out.append((target, one, sign, plus, minus))

    # a target is the plain tuple of its fields, which hashes and compares as the BasisElement
    # X targets
    for ell in range(2, g + 1):
        for k in range(ell, r + 1):
            ak = a[k - 1]
            if ak not in live and ell not in live:
                continue
            rest, sign = a[:k - 1] + a[k:], (-1) ** k
            for m2 in low[ell]:
                up = multiples[m2]
                t = ("X", r - 1, rest, up[ell])
                if rows is not None and rows[t] > j:
                    break
                emit(t, sign, eta(ak, up[ell]), eta(ell, up[ak]))
    for jj in range(g, r + 1):
        for k in range(jj + 1, r + 1):
            aj, ak = a[jj - 1], a[k - 1]
            if aj not in live and ak not in live:
                continue
            rest = a[:g - 1] + (g + 1,) + tuple(x for x in a[g - 1:] if x != aj and x != ak)
            sign = (-1) ** (g + jj + k)
            for m2 in low[g + 1]:
                up = multiples[m2]
                t = ("X", r - 1, rest, up[g + 1])
                if rows is not None and rows[t] > j:
                    break
                emit(t, sign, eta(ak, up[aj]), eta(aj, up[ak]))
    if rows is not None and elt.kind == "Y":
        # the middle map: column j pairs with row j, an X element, and every Y row lies after the X rows
        return out

    # Y targets; swap[m1][l][s] is m1 x_l / x_s when x_s divides m1
    for ell in range(2, a1):
        for jj in range(1, r + 1):
            for k in range(jj + 1, r + 1):
                aj, ak = a[jj - 1], a[k - 1]
                rest = (ell,) + tuple(x for x in a if x != aj and x != ak)
                sign = (-1) ** (jj + k)
                for m1 in low[ell]:
                    t = ("Y", r - 1, rest, m1)
                    if rows is not None and rows[t] > j:
                        break
                    sw = swap[m1][ell]
                    emit(t, sign, kappa(sw[ak], aj) if sw[ak] else 0, kappa(sw[aj], ak) if sw[aj] else 0)
    for k in range(2, r + 1):
        ak = a[k - 1]
        if ak not in live and a1 not in live:
            continue
        rest, sign = a[:k - 1] + a[k:], (-1) ** k
        for m1 in low[a1]:
            t = ("Y", r - 1, rest, m1)
            if rows is not None and rows[t] > j:
                break
            sw = swap[m1][a1][ak]
            emit(t, sign, kappa(m1, ak), kappa(sw, a1) if sw else 0)
    if a1 not in live:
        return out
    for ell in range(a1 + 1, a2):
        for k in range(2, r + 1):
            ak = a[k - 1]
            rest, sign = (ell,) + a[1:k - 1] + a[k:], (-1) ** (k + 1)
            for m1 in low[ell]:
                sw = swap[m1][ell][ak]
                if sw:
                    t = ("Y", r - 1, rest, m1)
                    if rows is not None and rows[t] > j:
                        break
                    emit(t, sign, kappa(sw, a1))
    for m1 in low[a2]:
        t = ("Y", r - 1, a[1:], m1)
        if rows is not None and rows[t] > j:
            break
        emit(t, -1, kappa(m1, a1))
    return out


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def twist_list(d: int, n: int) -> tuple[int, ...]:
    return (0,) + tuple(n + r - 1 for r in range(1, d)) + (2 * n + d - 2,)


# the rows of a map: row i maps a column j to the value of the nonzero entry (i, j)
Rows = list[dict[int, Any]]


def _assemble(rows: OrderedBasis, cols: OrderedBasis, expansions) -> Rows:
    """The rows of the matrix whose column j is expansions[j], signed by the bases.

    expansions[j] maps a target element to the int coefficients of the
    entry's terms, a dict that the rows take over.  A target outside the row
    basis is a KeyError.
    """
    pos = rows.position()
    out: Rows = [{} for _ in rows]
    for j, (csign, _) in enumerate(cols.elements):
        for target, terms in expansions[j].items():
            i, rsign = pos[target]
            out[i][j] = terms if csign == rsign else signed_terms(terms, -1)
    return out


def paired(bases: tuple[OrderedBasis, ...], k: int, rows: Rows, signed: Callable[[Any, int], Any]) -> Rows:
    """The pairing transpose that map k of a self-dual complex takes from rows, the written entries of map d + 1 - k.

    By b_{r+1}^T P_r = (-1)^r P_{r+1} b_{d-r}, P_k the signed permutation
    pairing(bases[k], bases[d-k]), entry (ii, kk) of b_{d-r} is (-1)^r s t
    times entry (i, jj) of b_{r+1}, where P_r pairs i with kk by the sign s
    and P_{r+1} pairs jj with ii by t.  signed(v, e) is a new value, v
    times the sign e.  This is the one place the rule is applied: every map
    is its own written entries beside the pairing transpose of its
    partner's, for any k.  The skeleton writes L and takes K from here;
    a cofactor past the middle is the transpose of its partner; and the
    middle map of odd d, k = d + 1 - k, is its own partner: P_{h-1} is the
    identity in the self-dual bases, so its transpose is its mirror,
    (-1)^(h-1) times entry (i, j) at (j, i).
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


def signed_terms(terms: Terms, e: int) -> Terms:
    """The terms of a polynomial times the sign e, a new dict."""
    return dict(terms) if e > 0 else {m: -c for m, c in terms.items()}


@lru_cache(maxsize=None)
def self_dual_bases(d: int, n: int) -> tuple[OrderedBasis, ...]:
    """The self-dual bases of positions 0..d (hookbasis.duality_basis): a fact of (d, n), built once."""
    return tuple(duality_basis(d, n, r) for r in range(d + 1))


@dataclass(frozen=True)
class Resolution:
    """The resolution of phi as the lift of its skeleton: b_r = delta S_r + x1 C_r for every r.

    A build decides phi, delta and the cofactors, and nothing else: the
    bases, the twists and the skeleton S_r = skeleton[r - 1] are those of
    (d, n) (self_dual_bases, twist_list, canonical_skeleton).  delta is an
    int when it is integral.  cofactors[r - 1] is C_r by rows (Rows) for
    r <= h = (d+1)//2: at r = 1 a column j maps to the terms {m: c} of its
    cofactor, of degree n-1, and inside to its constant c.  For odd d the
    middle C_h is whole, its own pairing transpose (paired, in _evaluate).
    Past h, C_r is the pairing transpose of C_{d+1-r} (cofactor), as S_r
    holds that of its partner's L block.  No term of S_r has x1, so the two
    parts share no monomial.  Every row terms yields and every matrix are
    built new on each request, and cofactor hands out C_r itself up to h, for reading; so
    nothing done to a matrix handed out alters the resolution, its dumps or
    the facts a Session proves from it.
    """

    phi: InverseSystem
    delta: Scalar
    cofactors: tuple[Rows, ...]

    @property
    def d(self) -> int:
        return self.phi.d

    @property
    def n(self) -> int:
        return self.phi.n

    @property
    def bases(self) -> tuple[OrderedBasis, ...]:
        return self_dual_bases(self.d, self.n)

    @property
    def twists(self) -> tuple[int, ...]:
        return twist_list(self.d, self.n)

    @property
    def skeleton(self) -> tuple[PolyMatrix, ...]:
        return canonical_skeleton(self.d, self.n)

    def terms(self, r: int) -> Iterator[dict[int, Terms]]:
        """The rows of b_r = delta S_r + x1 C_r, one new row of term dicts at a time; with delta = 0 S_r leaves no term.

        C_r past the middle is paired once, before the first row.
        """
        d, delta = self.d, self.delta
        forms = r in (1, d)
        x1 = (1,) + (0,) * (d - 1)
        for srow, crow in zip(self.skeleton[r - 1].entries, self.cofactor(r)):
            row = {j: {m: c * delta for m, c in p.items()} for j, p in srow.items()} if delta else {}
            for j, cof in crow.items():
                if forms:
                    # (m[0] + 1,) + m[1:] is x1 * m
                    row.setdefault(j, {}).update({(m[0] + 1,) + m[1:]: c for m, c in cof.items()})
                else:
                    row.setdefault(j, {})[x1] = cof
            yield row

    def cofactor(self, r: int) -> Rows:
        """C_r by rows; past h the pairing transpose of C_{d+1-r}: forms at r = d, constants inside."""
        if r <= len(self.cofactors):
            return self.cofactors[r - 1]
        d = self.d
        return paired(self.bases, r, self.cofactors[d - r], signed_terms if r == d else times)

    def monomials(self, r: int) -> set[Mono]:
        """The distinct monomials of b_r: those of delta S_r and x1 times those of C_r or C_{d+1-r}."""
        d = self.d
        out = set(skeleton_monomials(d, self.n)[r - 1]) if self.delta else set()
        r = min(r, d + 1 - r)
        if r == 1:
            out.update((m[0] + 1,) + m[1:] for row in self.cofactors[0] for cof in row.values() for m in cof)
        elif any(self.cofactors[r - 1]):
            out.add((1,) + (0,) * (d - 1))
        return out

    def matrix(self, r: int) -> PolyMatrix:
        """The matrix of the differential out of homological degree r (1-based), built new from the lift."""
        bases = self.bases
        return PolyMatrix(bases[r - 1], bases[r], list(self.terms(r)))

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)

    def __repr__(self) -> str:
        return f"Resolution(d={self.d}, n={self.n}, delta={self.delta}, betti={self.betti})"


# (i, j, m, sign, plus, minus): the term sign * (plus - minus) of monomial m of entry (i, j) of a cofactor
Cell = tuple[int, int, Mono, int, int, int]


@dataclass(frozen=True)
class Plan:
    """The cofactors C_1..C_h of one (d, n), h = (d+1)//2, as signed sums of keys.

    keys[k - 1] is the key (name, u, v) whose value is cat.name(u, v) on a
    Catalecticant.  cells[r - 1] lists the terms (i, j, m, sign, plus, minus)
    of C_r, signed by the bases (_record): m has degree n-1 at r = 1 and is
    1 inside.  For odd d the middle map b_h pairs with itself, and
    cells[h - 1] holds only its cells with i <= j; _evaluate adds its
    pairing transpose (paired).  The other part of b_r, delta S_r, is
    canonical_skeleton's.  Every part is a tuple of ints and tuples, which
    the garbage collector can stop tracking, so the plan is not traversed
    again at each collection of the process.
    """

    keys: tuple[tuple[str, Mono, Mono], ...]
    cells: tuple[tuple[Cell, ...], ...]


def _record(rows: OrderedBasis, cols: OrderedBasis, cofactors) -> tuple[Cell, ...]:
    """The cells of the cofactor C whose column j is the sum of cofactors[j], signed by the bases.

    cofactors[j] lists the contributions of column j, signed as written.  A
    writer reaches each term once as sign * (plus - minus), so a term is
    placed, not added to: its signed keys are kept and its sign is
    multiplied by the two basis signs.  A target outside the row basis is a
    KeyError.
    """
    pos = rows.position()
    out: list[Cell] = []
    for j, ((csign, _), col) in enumerate(zip(cols, cofactors)):
        for target, m, sign, plus, minus in col:
            i, rsign = pos[target]
            out.append((i, j, m, sign * csign * rsign, plus, minus))
    return tuple(out)


@lru_cache(maxsize=None)
def build_plan(d: int, n: int) -> Plan:
    """The plan of C_1..C_h at (d, n), h = (d+1)//2.

    b1_column and br_column run once, on a PlanContext; the plan is then
    evaluated for each inverse system (_evaluate).  For odd d, br_column
    writes the self-paired middle map C_h on one side of its diagonal only,
    and _evaluate adds the other by the pairing rule; a diagonal cell
    written where the map is antisymmetric is a defect of the writer and
    raises ValueError.
    """
    ctx = PlanContext(d, n)
    bases = self_dual_bases(d, n)
    h = (d + 1) // 2
    cells = []
    for r in range(1, h + 1):
        # written column by column as _record places them, so no column outlives its placing
        if r == 1:
            columns = (b1_column(ctx, e) for _, e in bases[1])
        elif d % 2 and r == h:
            rows = {e: i for i, (_, e) in enumerate(bases[r - 1])}
            columns = (br_column(ctx, r, e, rows, j) for j, (_, e) in enumerate(bases[r]))
        else:
            columns = (br_column(ctx, r, e) for _, e in bases[r])
        cells.append(_record(bases[r - 1], bases[r], columns))
    if d % 2 and h % 2 == 0 and any(cell[0] == cell[1] for cell in cells[-1]):
        raise ValueError(f"the writer put a diagonal cell on the antisymmetric middle map b_{h} at d={d}, n={n}")
    return Plan(tuple(ctx.keys), tuple(cells))


def _evaluate(plan: Plan, cat: Catalecticant, bases: tuple[OrderedBasis, ...]) -> tuple[Rows, ...]:
    """The cofactors of the plan for the inverse system of cat, by rows as Resolution keeps them.

    Each key is evaluated once, into one list indexed by signed key:
    values[-k] is -values[k] and values[0] is 0, so a cell's numerator is
    sign * (values[plus] - values[minus]), which doubles the sum of key k
    when plus = -minus = k.  A term whose numerator is zero is dropped, and
    a nonzero numerator is divided by cat.denom (polynomials.over).  The
    middle map C_h of odd d is completed by its own pairing transpose
    (paired), which fills the side the plan does not hold; on the diagonal
    of a symmetric C_h the two sides agree.
    """
    values = [getattr(cat, name)(u, v) for name, u, v in plan.keys]
    values = [0] + values + [-v for v in reversed(values)]
    denom = cat.denom
    out = []
    for r, cells in enumerate(plan.cells, 1):
        rows: Rows = [{} for _ in bases[r - 1]]
        for i, j, m, sign, plus, minus in cells:
            num = sign * (values[plus] - values[minus])
            if num:
                # over gives an int when it is integral, the form of every coefficient (polynomials)
                if r == 1:
                    rows[i].setdefault(j, {})[m] = over(num, denom)
                else:
                    rows[i][j] = over(num, denom)
        out.append(rows)
    if len(bases) % 2 == 0:
        # d is odd: the last map written, C_h, is its own partner
        for row, other in zip(out[-1], paired(bases, len(out), out[-1], times)):
            row.update(other)
    return tuple(out)


def build_resolution(phi: InverseSystem, ordering: str = "selfdual") -> Resolution:
    """The resolution of phi in lift form, from the closed-form column formulas, in the self-dual bases.

    ordering names the basis family; "selfdual" (duality_basis) is the only one.
    """
    if ordering != "selfdual":
        raise ValueError(f"unknown ordering {ordering!r}; the only basis family is 'selfdual'")
    cat = delta_and_Q(phi)
    cofactors = _evaluate(build_plan(phi.d, phi.n), cat, self_dual_bases(phi.d, phi.n))
    return Resolution(phi, exact(cat.delta), cofactors)


@lru_cache(maxsize=None)
def canonical_skeleton(d: int, n: int) -> tuple[PolyMatrix, ...]:
    """The skeleton B/x1 B without its delta factor: the maps out of positions 1..d.

    It depends on (d, n) alone.  It is the only place where the entries of
    the two Koszul strands on x2..xd are written, in the self-dual bases of
    every resolution; Resolution reads its maps as S_r.  The monomial strand L is
    written on the Y columns of every position: at r = 1 each Y column's
    monomial of degree n at Y0, and past it the Koszul contraction
    (kos_expansion).  The dual strand K on the X elements is the pairing
    transpose of L (paired): S_k is L_k beside the transpose of
    L_{d+1-k}.  So K_1 = 0, S_d = K_d, and the self-paired middle map of
    odd d is L_h beside its own transpose; no entry joins the two kinds.
    """
    bases = self_dual_bases(d, n)
    expansions = [[{y0(d): {mul_var(e.m, e.a[0]): 1}} if e.kind == "Y" else {} for _, e in bases[1]]]
    expansions += [[kos_expansion(e) if e.kind == "Y" else {} for _, e in bases[r]] for r in range(2, d + 1)]
    strand = [_assemble(bases[r - 1], bases[r], expans) for r, expans in enumerate(expansions, 1)]
    out = []
    for k in range(1, d + 1):
        # new rows: L_k is also the partner that map d + 1 - k is paired from
        rows = [{**own, **dual} for own, dual in zip(strand[k - 1], paired(bases, k, strand[d - k], signed_terms))]
        out.append(PolyMatrix(bases[k - 1], bases[k], rows))
    return tuple(out)


@lru_cache(maxsize=None)
def skeleton_monomials(d: int, n: int) -> tuple[frozenset[Mono], ...]:
    """The distinct monomials of each map of canonical_skeleton(d, n), by r - 1: a fact of (d, n), read once."""
    return tuple(frozenset(mat.monomials()) for mat in canonical_skeleton(d, n))
