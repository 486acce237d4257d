"""Construction of the resolution matrices from an admissible inverse system.

invsys.delta_and_Q is the admissibility gate: every build starts there, and
an inverse system with delta = 0 is refused before any matrix is written.
A Resolution refuses delta = 0 as well, so every record holds delta != 0.

Every differential is the lift b_r = delta * S_r + x1 * C_r of its skeleton
S_r, map r of canonical_skeleton(d, n): the Koszul strands on x2..xd, which
depend on (d, n) alone and are written once, there, as index tables.  The
inverse system enters only through the cofactor C_r of x1, a constant matrix
for 2 <= r <= d-1 and of degree n-1 for r = 1 and r = d.  All matrices are
written in one basis family, the self-dual bases of hookbasis.duality_basis,
in which the pairing between complementary positions is a signed
permutation, and paired applies the pairing rule in one place.  The skeleton
writes the strand L and takes K from it, and a cofactor past the middle,
h = (d+1)//2, is the pairing transpose of its partner's.

As the paper says, B amounts to a minimal generating set of the ideal and
the x1 coefficients of the interior maps, and those coefficients are forced
by B being a complex.  So a build writes C_1 alone and reads the rest out:

* C_1 is the x1 cofactor of the generators of ann(phi)_n: on X(1; 2; m)
  the sum of Q(m1, m/x2) m1, on Y(1; a; m) minus the sum of
  tq(m x_a, m2) m2, over the monomials of degree n-1 (the sums of the
  Catalecticant record).
* C_2 comes out of b_1 b_2 = x1 N, N = b_1 C_2 + delta C_1 S_2, as
  S_1 S_2 = 0.  N = 0, and its part free of x1 fixes the Y rows of C_2,
  since S_1 has the distinct monomials of degree n in x2..xd on its Y
  columns; its part in x1, multiplied by the invertible Cat_{n-1}, fixes
  the X rows at the coordinates free of x1 (_first_cofactors).
* Each C_{r+1}, 2 <= r < h, comes out of the part of b_r b_{r+1} linear
  in x1, LP(r): S_r C_{r+1} + C_r S_{r+1} = 0.  Every column of S_r has a
  private entry +-x_v, one no other column has in its row, so the x_v
  coefficient of LP(r) there gives a row of C_{r+1} from one row of C_r
  (read_out).  For odd d this yields the middle map C_h whole, which is
  its own partner; a Session compares it with its pairing transpose
  (exactness.Session.duality_failure).

Each readout solves an equation that B satisfies, with a unique solution,
so it is B's cofactor.  verify multiplies out b_1 b_2 and proves each
LP(r), 2 <= r <= d // 2, by its readout (exactness.Session.complex_failure),
at r = h of even d against the pairing transpose of C_h.  The tables that
the readouts read (readout_tables) are facts of (d, n), built once.

A build returns phi, delta and C_1..C_h as one frozen record (Resolution);
the rest is a fact of (d, n).  No matrix is written then: Resolution
builds each on request as delta S_r beside x1 C_r, and a Session reads S
and C from the record.  So the skeleton, the x1 split and the pairing rule
on every map but the middle one of odd d hold by construction.  Every
value is computed as an integer numerator over the one denominator of the
record (Catalecticant states the convention) and divided once at the end,
so a coefficient is an int whenever it is integral (always, for phi with
integer coefficients) and a Fraction only otherwise.  An entry that is
zero is not stored (PolyMatrix keeps the nonzero entries only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter, mul as times
from typing import Any, Callable, Iterator, NamedTuple

from .hookbasis import OrderedBasis, duality_basis, kos_expansion, pairing
from .invsys import Catalecticant, InverseSystem, delta_and_Q
from .monomials import Mono, div_var, monomial_index, monomials_of_degree, mul_var, unit
from .polymatrix import PolyMatrix
from .polynomials import Scalar, Terms, exact, over


def twist_list(d: int, n: int) -> tuple[int, ...]:
    return (0,) + tuple(n + r - 1 for r in range(1, d)) + (2 * n + d - 2,)


# the rows of a map: row i maps a column j to the value of the nonzero entry (i, j)
Rows = list[dict[int, Any]]


def paired(bases: tuple[OrderedBasis, ...], k: int, rows: Rows, signed: Callable[[Any, int], Any]) -> Rows:
    """The pairing transpose that map k of a self-dual complex takes from rows, the written entries of map d + 1 - k.

    By b_{r+1}^T P_r = (-1)^r P_{r+1} b_{d-r}, P_k the signed permutation
    pairing(bases[k], bases[d-k]), entry (ii, kk) of b_{d-r} is (-1)^r s t
    times entry (i, jj) of b_{r+1}, where P_r pairs i with kk by the sign s
    and P_{r+1} pairs jj with ii by t.  signed(v, e) is v times the sign e.
    This is the one place the rule is applied, for any k.  The skeleton
    writes L and takes K from here; a cofactor past the middle is the
    transpose of its partner; and the middle map of odd d,
    k = d + 1 - k, is its own partner: P_{h-1} is the identity in the
    self-dual bases, so its transpose is its mirror, (-1)^(h-1) times entry
    (i, j) at (j, i), which the middle cofactor must equal.
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
    bases, the twists and the skeleton S_r are those of (d, n)
    (self_dual_bases, twist_list, skeleton_rows).  delta is an int when it
    is integral, and never 0: delta_and_Q refuses such a phi first, so
    __post_init__ refuses delta = 0 as a defect (ValueError).
    cofactors[r - 1] is C_r by rows (Rows) for r <= h = (d+1)//2: at r = 1
    a column j maps to the terms {m: c} of its cofactor, of degree n-1, and
    inside to its constant c.  For odd d the middle C_h is whole, and a
    Session compares it with its own pairing transpose
    (exactness.Session.duality_failure).  Past h, C_r is the pairing
    transpose of C_{d+1-r} (cofactor), as S_r holds that of its partner's L
    block.  No term of S_r has x1, so the two parts share no monomial.
    Every row terms yields and every matrix are built new on each request,
    and cofactor hands out C_r itself up to h, for reading; so nothing done
    to a matrix handed out alters the resolution, its dumps or the facts a
    Session proves from it.
    """

    phi: InverseSystem
    delta: Scalar
    cofactors: tuple[Rows, ...]

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("a resolution needs delta != 0, which delta_and_Q proves before every build")

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

    def terms(self, r: int) -> Iterator[dict[int, Terms]]:
        """The rows of b_r = delta S_r + x1 C_r, one new row of term dicts at a time.

        C_r past the middle is paired once, before the first row.
        """
        d, delta = self.d, self.delta
        forms = r in (1, d)
        x1 = (1,) + (0,) * (d - 1)
        for row, crow in zip(skeleton_rows(d, self.n, r, delta), self.cofactor(r)):
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
        d, skel = self.d, canonical_skeleton(self.d, self.n)
        out = set(skel.u) if r in (1, d) else {mul_var(unit(d), v) for v in set(map(itemgetter(2), skel.inner[r - 2]))}
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


# the cofactors by their int numerators over the one denominator of the record (Catalecticant)
Numerators = list[dict[int, int]]


@dataclass(frozen=True)
class ReadoutTables:
    """The index tables of (d, n) that a build reads its cofactors with (build_resolution); none holds a value of phi.

    Positions are those of the self-dual bases, C_r maps position r to r - 1,
    and S_r is map r of canonical_skeleton(d, n), read off its triples.  w
    runs over the monomials of degree n-1 in x2..xd, by their index in
    monomials_of_degree(d, n-1), and u[t] is the monomial of S_1 on its Y
    column t, t = 0, 1, ... in column order.

    * first[l] is (i, t) for column l of b_1: X(1; 2; x2 w), i the index of
      w and t = -1, or the Y column of u[t] and i = -1.
    * low lists the indices of the w.
    * gather[v] picks, for each row of C_2, the entry of a source vector
      over the w, the u[t] and a 0 (_first_cofactors) that it reads at x_v.
    * s2[j] lists (l, v, s) for every term s x_v of column j of S_2, in row l.
    * interior[r - 2], 2 <= r <= d // 2, is (pivots, xrows): pivots[k] is
      (i, v, s) for a private entry s x_v of column k of S_r (no other
      column of S_r has x_v in row i), and xrows[v][l] lists (j, c) for the
      terms c x_v of row l of S_{r+1}.  A build reads with those of r < h.
    """

    u: tuple[Mono, ...]
    first: tuple[tuple[int, int], ...]
    low: tuple[int, ...]
    gather: dict[int, Callable]
    s2: tuple[tuple[tuple[int, int, int], ...], ...]
    interior: tuple[tuple[tuple[tuple[int, int, int], ...], dict[int, tuple]], ...]


@lru_cache(maxsize=None)
def readout_tables(d: int, n: int) -> ReadoutTables:
    """The tables of (d, n) that build_resolution reads the cofactors with, built once.

    A column of S_r, 2 <= r <= d // 2, with no private entry of coefficient +-1
    leaves C_{r+1} unread, a defect of the skeleton: ValueError, which the
    CLI reports as an internal error.
    """
    bases, skel = self_dual_bases(d, n), canonical_skeleton(d, n)
    index, u = monomial_index(d, n - 1), skel.u
    t_of = {m: t for t, m in enumerate(u)}
    low = monomials_of_degree(d, n - 1, low_var=2)
    w_at, zero = {w: i for i, w in enumerate(low)}, len(low) + len(u)
    first = tuple((index[div_var(el.m, 2)], -1) if el.kind == "X" else (-1, t_of[mul_var(el.m, el.a[0])])
                  for _, el in bases[1])
    monos, gather = monomials_of_degree(d, n - 1), {}
    for v in range(2, d + 1):
        # an X row of w reads the u[t] = w x_v, a Y row of u the w = u / x_v, or 0 when x_v does not divide u
        picks = [len(low) + t_of[mul_var(monos[i], v)] if t < 0 else w_at[div_var(u[t], v)] if u[t][v - 1] else zero
                 for i, t in first]
        gather[v] = itemgetter(*picks)
    s2: list[list[tuple[int, int, int]]] = [[] for _ in bases[2]]
    for i, j, v, c in skel.inner[0]:
        s2[j].append((i, v, c))
    interior = []
    for r in range(2, d // 2 + 1):
        seen: dict[tuple[int, int], list] = {}
        for i, j, v, c in skel.inner[r - 2]:
            seen.setdefault((i, v), []).append((j, c))
        pivots: list = [None] * len(bases[r])
        for (i, v), cols in seen.items():
            if len(cols) == 1 and cols[0][1] in (1, -1) and pivots[cols[0][0]] is None:
                pivots[cols[0][0]] = (i, v, cols[0][1])
        if None in pivots:
            raise ValueError(f"column {pivots.index(None)} of S_{r} has no private entry at d={d}, n={n}")
        xrows: dict[int, list[list]] = {v: [[] for _ in bases[r]] for v in range(2, d + 1)}
        for i, j, v, c in skel.inner[r - 1]:
            xrows[v][i].append((j, c))
        interior.append((tuple(pivots), {v: tuple(map(tuple, rows)) for v, rows in xrows.items()}))
    return ReadoutTables(u, first, tuple(index[w] for w in low), gather, tuple(map(tuple, s2)), tuple(interior))


def _first_cofactors(cat: Catalecticant, tabs: ReadoutTables) -> tuple[list[list[int]], Numerators]:
    """The numerators of C_1 by column, over the monomials of degree n-1 (Catalecticant.monos), and of C_2 by row.

    The column of X(1; 2; x2 w) is Q e_w, the sum of Q(m1, w) m1, and that of
    the Y column of u = m x_a is minus the sum of tq(u, m2) m2.  At
    position 1 the bases are the standard ones, of sign 1, and S_1 is u on
    the Y column of u.

    C_2 comes out of N = b_1 C_2 + delta C_1 S_2 = 0, as b_1 b_2 = x1 N.
    Write C_1 = C_1^0 + x1 C_1', C_1^0 free of x1.  The part of N free of x1
    is delta (S_1 C_2 + C_1^0 S_2): so the row of C_2 on the Y column of u
    is minus the u coefficient of C_1^0 S_2.  The rest of N is
    x1 (C_1 C_2 + delta F), F = C_1' S_2.  Times T = Cat_{n-1}, a Y column of
    C_1 vanishes at every w free of x1 (T tq(u, .) is delta times
    t_{u w / x1}), and an X column Q e_w is delta e_w: so the row of C_2 on
    X(1; 2; x2 w) is -(T F)[w].  (T x_v C_1')[w] is the row w x_v of Cat_n
    against C_1', which is tq(w x_v, w') on the X column of w' and
    -W(u, w x_v) on the Y column of u.  The source vector of a column of
    C_1 holds minus its C_1^0 at the w and minus these at the u[t].
    """
    tq, W = cat.sums(tabs.u)
    c1, sources = [], []
    for i, t in tabs.first:
        col, tail = (cat.q[i], [-row[i] for row in tq]) if t < 0 else ([-c for c in tq[t]], W[t])
        c1.append(col)
        sources.append([-col[w] for w in tabs.low] + tail + [0])
    rows: Numerators = [{} for _ in c1]
    for j, ((l, v, s), *rest) in enumerate(tabs.s2):
        acc = [s * g for g in tabs.gather[v](sources[l])]
        for l, v, s in rest:
            acc = [c + s * g for c, g in zip(acc, tabs.gather[v](sources[l]))]
        for k, c in enumerate(acc):
            if c:
                rows[k][j] = c
    return c1, rows


def read_out(rows: Numerators, pivots, xrows) -> Numerators:
    """C_{r+1} by rows from C_r, by LP(r): S_r C_{r+1} + C_r S_{r+1} = 0.

    Take the x_v coefficient of LP(r) at row i for a private entry
    (i, v, s) of column k of S_r: s times row k of C_{r+1} plus row i of C_r
    times the x_v coefficients of S_{r+1}.  With s = +-1, row k is -s times
    that product, signed additions of C_r, linear: it reads values as it reads numerators.
    """
    out: Numerators = []
    for i, v, s in pivots:
        acc: dict[int, int] = {}
        xv = xrows[v]
        for l, c in rows[i].items():
            for j, e in xv[l]:
                acc[j] = acc.get(j, 0) + e * c
        out.append({j: -s * c for j, c in acc.items() if c})
    return out


def build_resolution(phi: InverseSystem, ordering: str = "selfdual") -> Resolution:
    """The resolution of phi in lift form, in the self-dual bases: C_1 from its closed form, the rest read out.

    C_1 is written from the sums Q and tq of the Catalecticant record,
    C_2 is read out of N = 0 and each C_{r+1}, 2 <= r < h, out of LP(r)
    (module docstring).  ordering names the basis family; "selfdual"
    (duality_basis) is the only one.
    """
    if ordering != "selfdual":
        raise ValueError(f"unknown ordering {ordering!r}; the only basis family is 'selfdual'")
    cat = delta_and_Q(phi)
    tabs = readout_tables(phi.d, phi.n)
    c1, c2 = _first_cofactors(cat, tabs)
    nums = [c2]
    for pivots, xrows in tabs.interior[:(phi.d + 1) // 2 - 2]:
        nums.append(read_out(nums[-1], pivots, xrows))
    denom, monos = cat.denom, cat.monos
    # over gives an int when it is integral, the form of every coefficient (polynomials)
    first = {j: {monos[i]: over(c, denom) for i, c in enumerate(col) if c} for j, col in enumerate(c1) if any(col)}
    inside = nums if denom == 1 else [[{j: over(c, denom) for j, c in row.items()} for row in rows] for rows in nums]
    return Resolution(phi, exact(cat.delta), ([first], *inside))


class Skeleton(NamedTuple):  # the index tables of canonical_skeleton, which says what they hold
    u: tuple[Mono, ...]
    inner: tuple[tuple[tuple[int, int, int, int], ...], ...]


@lru_cache(maxsize=None)
def canonical_skeleton(d: int, n: int) -> Skeleton:
    """The skeleton B/x1 B without its delta factor, the maps out of positions 1..d, as index tables.

    It depends on (d, n) alone.  It is the only place where the entries of
    the two Koszul strands on x2..xd are written, in the self-dual bases of
    every resolution; Resolution reads its maps as S_r (skeleton_rows).  The
    monomial strand L is written on the Y columns: u[t] is the monomial of
    degree n of S_1 on its Y column t, and inner[r - 2] lists (i, j, v, s)
    for each term s x_v of entry (i, j) of S_r, 2 <= r <= d-1, row by row,
    L from the Koszul contraction (kos_expansion).  The dual strand K on the
    X elements is the pairing transpose of L (paired), taken once: S_k is
    L_k beside the transpose of L_{d+1-k}.  So K_1 = 0, S_d = K_d is the
    transpose of S_1, and the self-paired middle map of odd d is L_h beside
    its own transpose.
    """
    bases, strand = self_dual_bases(d, n), []  # L_r, 2 <= r <= d-1, by rows: a Y column j to {v: c} for c x_v
    for r in range(2, d):
        pos, rows = bases[r - 1].position(), [{} for _ in bases[r - 1]]
        for j, (csign, e) in enumerate(bases[r]):
            for target, terms in (kos_expansion(e) if e.kind == "Y" else {}).items():
                i, rsign = pos[target]  # a target outside the basis is a KeyError
                rows[i][j] = terms if csign == rsign else signed_terms(terms, -1)
        strand.append(rows)
    inner = []
    for k in range(2, d):
        # flattened at once, so a term dict of sign +1 is kept, not copied
        dual = paired(bases, k, strand[d - 1 - k], lambda terms, e: terms if e > 0 else signed_terms(terms, e))
        inner.append(tuple([(i, j, v, s) for i, rows in enumerate(zip(strand[k - 2], dual))
                            for row in rows for j, terms in row.items() for v, s in terms.items()]))
    return Skeleton(tuple(mul_var(e.m, e.a[0]) for _, e in bases[1] if e.kind == "Y"), tuple(inner))


def skeleton_rows(d: int, n: int, r: int, scale: Scalar) -> Iterator[dict[int, Terms]]:
    """The rows of scale S_r, S_r the map out of position r of canonical_skeleton(d, n), one new row at a time."""
    skel, bases = canonical_skeleton(d, n), self_dual_bases(d, n)
    if r in (1, d):
        first = [{j: {m: scale} for j, m in zip((j for j, (_, e) in enumerate(bases[1]) if e.kind == "Y"), skel.u)}]
        yield from first if r == 1 else paired(bases, d, first, signed_terms)
        return
    xs = {v: mul_var(unit(d), v) for v in range(1, d + 1)}
    by_row = {i: list(cells) for i, cells in groupby(skel.inner[r - 2], itemgetter(0))}
    for i in range(len(bases[r - 1])):
        row: dict[int, Terms] = {}
        for _, j, v, s in by_row.get(i, ()):
            row.setdefault(j, {})[xs[v]] = s * scale
        yield row
