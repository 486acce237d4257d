"""Reference computations that the verification path is tested against.

None of these runs in ``verify``: each computes a fact the package proves
another way, by a route that is slower or more literal.

* ``certify_exactness_direct`` certifies exactness on the full graded
  pieces of B by saturated mod-p ranks (``certify_chain``), where
  ``exactness.certify_exactness`` goes through the skeleton strands and the
  long exact sequence.
* ``acyclicity_failures_by_box`` ranks every fine-graded piece of the
  monomial strand over the box of its fine degrees, where
  ``exactness.strand_certificate`` ranks its maps at the d-1 coordinate
  points only, by the criterion of Buchsbaum and Eisenbud.
* ``dual_strand_h1k_by_ranking`` ranks the dual skeleton strand over its box
  of fine degrees, where ``exactness.strand_certificate`` takes it to be
  the pairing transpose of the monomial strand, as
  ``differentials.canonical_skeleton`` writes it, and takes its bottom
  homology from the closed form.  ``skeleton_matrices`` writes the index
  tables of the skeleton out as matrices, ``strand_matrices`` cuts both
  strands out of them for it and for the tests, and ``fine_strand`` reads a
  strand given as matrices, where ``exactness.strand_certificate`` reads
  the monomial strand off the tables.
* ``straightened_dual_strand`` writes the dual strand as the paper does, by
  straightening the Koszul contraction of every X element
  (``x_contraction``, with ``expand_eta``), where
  ``differentials.canonical_skeleton`` takes it as the pairing transpose of
  the monomial strand; ``dual_strand_disagreement`` compares the two
  position by position.
* ``Poly`` is the tests' polynomial: a term dict with ring arithmetic on it,
  each result normalised to nonzero coefficients, ints where integral,
  where the package keeps a polynomial as its bare term dict
  (``polynomials.Terms``), each producer writing that form itself, and
  multiplies polynomials only inside its matrix products.  ``plus`` adds
  one term to an entry.
* ``naive_product`` multiplies two polynomial matrices entry by entry with
  ``Poly`` arithmetic over ``Fraction``, where ``PolyMatrix.mul`` packs the
  columns of each row of the right factor into one int per monomial.
* ``rref_by_fractions`` row-reduces in ``Fraction`` arithmetic, pivot by
  pivot, where ``linalg.rref`` runs the integer fraction-free Gauss-Jordan
  elimination and divides once at the end.
* ``ideal_dims_by_rref`` finds dim I_e, for I the ideal of the b_1 columns,
  by exact rational elimination degree by degree (``rref_by_fractions``),
  where ``exactness.ideal_dims`` pins dim I_n by saturation against the
  annihilator and ``exactness.certify_exactness`` takes every other degree
  from the lemma that ann(phi) is generated in degree n.
* ``det_and_adjugate_by_solve`` finds a determinant by Bareiss elimination
  in ``Fraction`` arithmetic and the adjugate by solving ``m X = det * I``
  with ``rref_by_fractions``, where ``linalg.det_and_adjugate`` runs one
  integer fraction-free Gauss-Jordan elimination.
* ``build_plan`` writes the cofactors ``C_1..C_h`` by the paper's closed
  forms: ``b1_column`` and ``br_column`` run once per ``(d, n)`` on a
  ``PlanContext`` that names each coefficient sum (``Sums``) by a key, and
  ``evaluate_plan`` fills in the sums of one system.  The build writes
  ``C_1`` alone and reads ``C_2..C_h`` out of the complex property
  (``differentials.build_resolution``); the golden plan digests pin this
  plan, and the tests compare the readouts with it.
* ``br_column_alt`` writes an interior cofactor column by the contraction
  formulas on elementary wedge generators, straightened with
  ``expand_eta`` / ``hookbasis.expand_kappa``, where the build reads it
  out; ``route_disagreement`` compares the two on every interior ``C_r``
  of a built resolution.
* ``MatrixForm`` is a resolution given as matrices, kept as given for a
  test to alter, and ``MatrixSession`` proves every fact of a ``Session``
  from them: the x1 split of every map (``x1_split``), the
  skeleton (``exactness.skeleton_block_failure``), the pairing rule on every
  pair (``duality_failure``) and dim I_n on the whole degree-n piece of b_1,
  where a ``Session`` reads them off the lift, which holds the first three
  by construction.  Unlike a ``Session`` it starts without the premises
  delta != 0 and the strand certificate, and its facts test them where
  they rest on them.  ``matrix_report`` runs the eight checks on it, each
  fact read where the lift route would have read it; ``wlp_by_rank`` ranks
  the image of x1 on the annihilator (``coeff_rows``), where
  ``verify.check_wlp`` reads the Hilbert function alone.
* ``linear_part_vanishes`` multiplies out the part S_r C_{r+1} + C_r S_{r+1}
  of b_r b_{r+1} linear in x1, LP(r), where ``exactness.Session`` compares
  C_{r+1} with the readout of C_r (``differentials.read_out``), which
  holds exactly when LP(r) does, given the products below it.
* ``lift_fact_failure`` computes, on the matrices built from a lift, the
  facts that hold by construction of the lift, and compares the
  ``matrix_report`` of its matrix form with the ``run_checks`` report of
  the lift.
* ``catalecticant_matrix`` writes the pairing matrix Cat_j of phi in
  ``Fraction`` arithmetic from ``coeff(phi, mul(...))``, where
  ``InverseSystem.catalecticant`` builds the integer table L Cat_j once per
  degree from packed monomial keys; ``catalecticant_disagreement`` computes
  on it, in ``Fraction`` arithmetic, the ranks, the annihilator bases,
  delta and Q and every coefficient sum of the closed-form plan, where
  ``invsys.hf_value``, ``ann_degree`` and ``delta_and_Q`` read the table
  and the record ``Catalecticant`` forms the sums in integers.
* ``contract`` and ``contract_poly`` apply the module action of S on dual
  elements, the coefficient-free divisibility rule x^a(m^*) = (m/x^a)^*, in
  ``Fraction`` arithmetic, where ``Session.b1_annihilation_failure`` sums
  rows of the integer catalecticant tables.
* ``q_of`` and ``tilde_contract`` are the maps of the paper's degree-n
  generators ``delta * mu - x1 * q(mu(lift))`` of the annihilator, written
  literally over dual elements, where ``differentials.build_resolution``
  writes their ``x1`` cofactors ``C_1`` from the closed-form sums Q and tq.
* ``resolution_json_dict`` builds the JSON document of a resolution as
  nested lists and dicts, a dense list of cells per matrix, and
  ``json.dumps(doc, indent=1, sort_keys=True) + "\\n"`` lays it out, where
  ``export.resolution_json`` writes the same text directly.
* ``golden_skeleton_d4_n2`` parses the mod-x1 matrices at d = 4, n = 2,
  written out entry by entry, which the tables of
  ``differentials.canonical_skeleton(4, 2)``, written out by
  ``skeleton_matrices``, must reproduce verbatim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import comb, lcm
from operator import mul as times

import numpy as np

from gorlin import exactness, linalg
from gorlin.differentials import Resolution, Rows, paired, self_dual_bases, signed_terms, skeleton_rows
from gorlin.exactness import (
    PRIMES,
    Piece,
    Session,
    _composes_to_zero,
    fine_degree,
    graded_piece,
    skeleton_block_failure,
)
from gorlin.export import report_json
from gorlin.hookbasis import (
    BasisElement,
    OrderedBasis,
    duality_basis,
    expand_kappa,
    gamma_of,
    pairing,
    skeleton_kos_blocks,
    y0,
)
from gorlin.invsys import (
    Catalecticant,
    InadmissibleSystemError,
    InverseSystem,
    ann_degree,
    delta_and_Q,
    hf_value,
    to_json_dict,
)
from gorlin.monomials import (
    Mono,
    degree,
    div_var,
    least,
    monomials_of_degree,
    mul_var,
    sort_key,
    unit,
    var_divides,
)
from gorlin.polymatrix import PolyMatrix
from gorlin.polynomials import Scalar, Terms, exact, over, poly_str
from gorlin.verify import (
    CHECK_NAMES,
    CheckResult,
    Report,
    check_ann_match,
    check_betti_and_degrees,
    check_complex,
    check_duality,
    check_euler_hilbert,
    check_exactness_up_to,
    check_skeleton,
    check_wlp,
    run_checks,
)


EXACT_ENTRY_LIMIT = 1_200_000

# a dual element sum c_m m^* of the inverse-system module, as a dict monomial -> Fraction
Dual = dict[Mono, Fraction]


class Poly:
    """Polynomial in x1..xd as a map monomial -> nonzero coefficient (an int or a Fraction), with arithmetic.

    terms is the package's term dict (polynomials.Terms): a matrix entry is
    read as Poly(d, entry) and written back as its terms.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Terms | None = None):
        self.d = d
        self.terms: Terms = {}
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
        return f"Poly({poly_str(self.terms)})"


def plus(terms: Terms, m: Mono, c: Scalar = 1) -> Terms:
    """The term dict of terms + c * m, a new dict."""
    return (Poly(len(m), terms) + Poly.monomial(m, c)).terms


def variable(d: int, i: int) -> Mono:
    """The monomial x_i (1-based index)."""
    if not 1 <= i <= d:
        raise ValueError(f"variable index {i} out of range 1..{d}")
    return tuple(1 if k == i - 1 else 0 for k in range(d))


def mul(m1: Mono, m2: Mono) -> Mono:
    return tuple(a + b for a, b in zip(m1, m2))


def divides(m1: Mono, m2: Mono) -> bool:
    """True when m1 | m2."""
    return all(a <= b for a, b in zip(m1, m2))


def div(m2: Mono, m1: Mono) -> Mono:
    """m2 / m1; requires m1 | m2."""
    q = tuple(b - a for a, b in zip(m1, m2))
    if any(e < 0 for e in q):
        raise ValueError(f"{m1} does not divide {m2}")
    return q


def expand_eta(c: tuple[int, ...], m: Mono) -> list[tuple[int, BasisElement]]:
    """Straighten the elementary generator eta(x_{c_1}^..^x_{c_s} (x) m^*) into X elements.

    c is strictly increasing in [2, d]; m has degree n in x2..xd; the result
    is a signed integer combination of standard X elements of homological
    degree s = len(c).
    """
    s = len(c)
    g = gamma_of(c)
    if least(m) <= g:
        return [(1, BasisElement("X", s, c, m))]
    out: list[tuple[int, BasisElement]] = []
    # insert g+1 after the prefix [2, g], drop c_k, move x_{g+1} into the monomial
    for k in range(g, s + 1):  # 1-based position within c
        ck = c[k - 1]
        if not var_divides(ck, m):
            continue
        new_a = c[:g - 1] + (g + 1,) + tuple(x for x in c[g - 1:] if x != ck)
        new_m = mul_var(div_var(m, ck), g + 1)
        out.append(((-1) ** (k + g), BasisElement("X", s, new_a, new_m)))
    return out


def x_contraction(elt: BasisElement) -> dict[BasisElement, Terms]:
    """The Koszul contraction of an X element, straightened by expand_eta, as term dicts.

    The sign is (-1)^j on the j-th wedge slot, as in hookbasis.kos_expansion,
    which contracts the Y elements.  Every target maps to its nonzero terms.
    """
    out: dict[BasisElement, Terms] = {}
    for j, aj in enumerate(elt.a, 1):
        xj = mul_var(unit(elt.d), aj)
        for coeff, target in expand_eta(elt.a[:j - 1] + elt.a[j:], elt.m):
            terms = out.setdefault(target, {})
            terms[xj] = terms.get(xj, 0) + (-1) ** j * coeff
    return {t: kept for t, terms in out.items() if (kept := {m: c for m, c in terms.items() if c})}


def certify_chain(pieces: dict[int, Piece], ms: list[int], exact_from: int):
    """Certify rank saturation of one degree piece of a complex.

    ms[r] is the dimension at position r (r = 0..top); pieces[r] is the
    graded piece of the map out of position r; exactness is required at
    positions exact_from..top.  The complex property bounds each rank from
    above and a rank over GF(p) bounds it from below, so ranks that meet
    the bounds are the rational ranks.  A failed saturation retries the
    other primes and then ranks exactly when the largest piece has at most
    EXACT_ENTRY_LIMIT entries.  Returns (ok, ranks, witness); on success the
    ranks are the exact rational ranks of all pieces.
    """
    top = len(ms) - 1

    def check(ns: list[int]) -> str | None:
        for r in range(exact_from, top + 1):
            if ms[r] - ns[r] - ns[r + 1] != 0:
                return f"homology at position {r} (defect {ms[r] - ns[r] - ns[r + 1]})"
        return None

    def ranks_with(rank_fn) -> list[int]:
        ns = [0] * (top + 2)
        for r, piece in pieces.items():
            ns[r] = rank_fn(piece)
        return ns

    witness = ""
    for p in PRIMES:
        ns = ranks_with(lambda piece: piece.rank_mod(p))
        witness = check(ns)
        if witness is None:
            return True, ns, ""
    big = max((piece.nrows * piece.ncols for piece in pieces.values()), default=0)
    if big <= EXACT_ENTRY_LIMIT:
        ns = ranks_with(lambda piece: piece.rank_exact())
        witness = check(ns)
        return witness is None, ns, witness or ""
    return False, None, f"{witness}; saturation failed for all primes (largest piece {big} entries)"


def position_dims(res: Resolution, e: int) -> list[int]:
    """dim (B_r)_e for r = 0..d."""
    d = res.d
    return [b * comb(e - t + d - 1, d - 1) if e >= t else 0 for b, t in zip(res.betti, res.twists)]


def certify_exactness_direct(s: Session, dmax: int) -> list[str]:
    """Saturated-rank certification on the full graded pieces of the resolution, up to degree dmax.

    [] means certified, as for exactness.certify_exactness.
    """
    res = s.res
    if s.complex_failure is not None:
        r, i, j, _ = s.complex_failure
        return [f"not a complex: b_{r} b_{r + 1} has a nonzero entry at ({i}, {j})"]
    failures = []
    d = res.d
    twists = res.twists
    for e in range(0, dmax + 1):
        ms = position_dims(res, e)
        pieces = {
            r: graded_piece(res.matrix(r), e - twists[r - 1], e - twists[r])
            for r in range(1, d + 1)
            if ms[r] > 0
        }
        ok, ns, witness = certify_chain(pieces, ms, 1)
        if ok and ms[0] - ns[1] != s.hf(e):
            ok, witness = False, f"cokernel dimension {ms[0] - ns[1]} != {s.hf(e)}"
        if not ok:
            failures.append(f"exactness fails in degree {e}: {witness}")
    return failures


def _add(out: dict[BasisElement, int], target: BasisElement, c: int) -> None:
    """Add c to the constant cofactor entry at target."""
    if c:
        out[target] = out.get(target, 0) + c


def br_column_alt(sums: Sums, r: int, elt: BasisElement) -> dict[BasisElement, int]:
    """Interior cofactor column computed from elementary-generator contraction formulas.

    Each coefficient is an int numerator over sums.denom, as the build
    reads the sums Q, tq and W of the record.
    """
    d, n = sums.phi.d, sums.phi.n
    if not 2 <= r <= d - 1:
        raise ValueError(f"r={r} out of range 2..{d - 1}")
    a, m = elt.a, elt.m
    out: dict[BasisElement, int] = {}
    for j in range(1, r + 1):
        aj = a[j - 1]
        rest = a[:j - 1] + a[j:]
        slot = (-1) ** (j - 1)  # contraction sign of the j-th wedge slot
        if elt.kind == "X":
            if var_divides(aj, m):
                w = div_var(m, aj)
                for m2 in monomials_of_degree(d, n, low_var=2):
                    c = sums.tq(m2, w)
                    if c:
                        for sgn, tgt in expand_eta(rest, m2):
                            _add(out, tgt, -slot * sgn * c)
                for m1 in monomials_of_degree(d, n - 1, low_var=2):
                    c = sums.Q(m1, w)
                    if c:
                        for sgn, tgt in expand_kappa(rest, m1):
                            _add(out, tgt, -slot * sgn * c)
        else:
            u = mul_var(m, aj)
            for m3 in monomials_of_degree(d, n, low_var=2):
                c = sums.W(u, m3)
                if c:
                    for sgn, tgt in expand_eta(rest, m3):
                        _add(out, tgt, slot * sgn * c)
            for m1 in monomials_of_degree(d, n - 1, low_var=2):
                c = sums.tq(u, m1)
                if c:
                    for sgn, tgt in expand_kappa(rest, m1):
                        _add(out, tgt, slot * sgn * c)
    return out


def route_disagreement(res: Resolution) -> tuple[int, int, int] | None:
    """The first (r, i, j) at which an interior cofactor C_r of res differs from br_column_alt, or None.

    C_r is read off x1_split of b_r, as MatrixSession reads it.  The
    straightening route writes each column on the sums of the
    Catalecticant record of res.phi, as integer numerators over their
    denominator signed by the bases.  The two construction routes share the
    skeleton and both end matrices, so the interior cofactors are all they
    could disagree on: this is the cross-check of the readouts of C_2..C_h,
    which derive them from C_1.
    """
    cat = Sums(delta_and_Q(res.phi))
    for r in range(2, res.d):
        mat = res.matrix(r)
        cof = x1_split(mat)[1]
        assert cof is not None, f"b_{r} has a term with x1 that is not a multiple of x1"
        got = {(i, j): c for i, row in enumerate(cof) for j, c in row.items()}
        want = {}
        pos = mat.rows.position()
        for j, (cs, e) in enumerate(mat.cols):
            for target, c in br_column_alt(cat, r, e).items():
                i, rs = pos[target]
                want[i, j] = Fraction(cs * rs * c, cat.denom)
        bad = [k for k in got.keys() | want.keys() if got.get(k, 0) != want.get(k, 0)]
        if bad:
            return (r, *min(bad))
    return None


# ---------------------------------------------------------------------------
# the closed-form plan of the cofactors
# ---------------------------------------------------------------------------


class Sums:
    """The coefficient sums Q, tq and W of a Catalecticant record, one pair at a time.

    Each is the int numerator over denom that the build reads: Q off the
    record's table q, and tq and W off Catalecticant.sums over every
    monomial of degree n in x2..xd, the first argument of every tq and both
    of every W that a writer names.
    """

    def __init__(self, cat: Catalecticant):
        self.cat, self.phi, self.denom = cat, cat.phi, cat.denom
        us = monomials_of_degree(cat.phi.d, cat.phi.n, low_var=2)
        self.at = {u: t for t, u in enumerate(us)}
        self.tq_table, self.w_table = cat.sums(us)

    def Q(self, m1: Mono, m2: Mono) -> int:
        return self.cat.q[self.cat.index[m1]][self.cat.index[m2]]

    def tq(self, u: Mono, w: Mono) -> int:
        return self.tq_table[self.at[u]][self.cat.index[w]]

    def W(self, u: Mono, v: Mono) -> int:
        return self.w_table[self.at[u]][self.at[v]]


class PlanContext:
    """The coefficient sums of a Catalecticant as formal keys: the context the column writers run on.

    Q, tq and W return the index of the key (name, u, v), interned in keys
    from index 1 on; Q and W are symmetric, so their two arguments are
    keyed in sorted order.  A writer's coefficient is a signed key: k or -k
    for plus or minus the sum of key k, 0 for none.  Signed keys are negated,
    never added: a term is sign * (plus - minus), and evaluate_plan reads it so.
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


# (i, j, m, sign, plus, minus): the term sign * (plus - minus) of monomial m of entry (i, j) of a cofactor
Cell = tuple[int, int, Mono, int, int, int]


@dataclass(frozen=True)
class Plan:
    """The cofactors C_1..C_h of one (d, n), h = (d+1)//2, as signed sums of keys.

    keys[k - 1] is the key (name, u, v) whose value is sums.name(u, v) on
    the Sums of a Catalecticant.  cells[r - 1] lists the terms (i, j, m,
    sign, plus, minus) of C_r, signed by the bases (record_cells): m has
    degree n-1 at r = 1 and is 1 inside.  For odd d the middle map b_h pairs
    with itself, and cells[h - 1] holds only its cells with i <= j;
    evaluate_plan adds its pairing transpose (paired).  The other part of b_r, delta S_r, is
    canonical_skeleton's.  Every part is a tuple of ints and tuples, which
    the garbage collector can stop tracking, so the plan is not traversed
    again at each collection of the process.
    """

    keys: tuple[tuple[str, Mono, Mono], ...]
    cells: tuple[tuple[Cell, ...], ...]


def record_cells(rows: OrderedBasis, cols: OrderedBasis, cofactors) -> tuple[Cell, ...]:
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
    evaluated for each inverse system (evaluate_plan).  For odd d, br_column
    writes the self-paired middle map C_h on one side of its diagonal only,
    and evaluate_plan adds the other by the pairing rule; a diagonal cell
    written where the map is antisymmetric is a defect of the writer and
    raises ValueError.
    """
    ctx = PlanContext(d, n)
    bases = self_dual_bases(d, n)
    h = (d + 1) // 2
    cells = []
    for r in range(1, h + 1):
        # written column by column as record_cells places them, so no column outlives its placing
        if r == 1:
            columns = (b1_column(ctx, e) for _, e in bases[1])
        elif d % 2 and r == h:
            rows = {e: i for i, (_, e) in enumerate(bases[r - 1])}
            columns = (br_column(ctx, r, e, rows, j) for j, (_, e) in enumerate(bases[r]))
        else:
            columns = (br_column(ctx, r, e) for _, e in bases[r])
        cells.append(record_cells(bases[r - 1], bases[r], columns))
    if d % 2 and h % 2 == 0 and any(cell[0] == cell[1] for cell in cells[-1]):
        raise ValueError(f"the writer put a diagonal cell on the antisymmetric middle map b_{h} at d={d}, n={n}")
    return Plan(tuple(ctx.keys), tuple(cells))


def evaluate_plan(plan: Plan, sums: Sums, bases: tuple[OrderedBasis, ...]) -> tuple[Rows, ...]:
    """The cofactors of the plan for the inverse system of sums, by rows as Resolution keeps them.

    Each key is evaluated once, into one list indexed by signed key:
    values[-k] is -values[k] and values[0] is 0, so a cell's numerator is
    sign * (values[plus] - values[minus]), which doubles the sum of key k
    when plus = -minus = k.  A term whose numerator is zero is dropped, and
    a nonzero numerator is divided by sums.denom (polynomials.over).  The
    middle map C_h of odd d is completed by its own pairing transpose
    (paired), which fills the side the plan does not hold; on the diagonal
    of a symmetric C_h the two sides agree.
    """
    values = [getattr(sums, name)(u, v) for name, u, v in plan.keys]
    values = [0] + values + [-v for v in reversed(values)]
    denom = sums.denom
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


@dataclass
class MatrixForm:
    """A resolution given as matrices, b_r = matrices[r - 1], kept as given for a test to alter.

    It reads as a differentials.Resolution to the checks, the dumps and the
    oracles, and has no lift: MatrixSession proves every fact from the
    matrices.  Unlike a built resolution it keeps bases and twists as
    given, so a test can break them.
    """

    phi: InverseSystem
    delta: Scalar
    bases: tuple[OrderedBasis, ...]
    matrices: tuple[PolyMatrix, ...]
    twists: tuple[int, ...]

    @property
    def d(self) -> int:
        return self.phi.d

    @property
    def n(self) -> int:
        return self.phi.n

    def matrix(self, r: int) -> PolyMatrix:
        return self.matrices[r - 1]

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


def matrices(res) -> tuple[PolyMatrix, ...]:
    """b_1..b_d of a Resolution, new matrices built from the lift, or of a MatrixForm, as kept."""
    return tuple(res.matrix(r) for r in range(1, res.d + 1))


def matrix_form(res: Resolution) -> MatrixForm:
    """res in matrix form: its matrices, which res builds new on each request, for a test to alter."""
    return MatrixForm(res.phi, res.delta, res.bases, matrices(res), res.twists)


def duality_failure(bases: tuple[OrderedBasis, ...], mats) -> tuple[int, int, int] | None:
    """Check b_{r+1}^T P_r = (-1)^r P_{r+1} b_{d-r} for every r = 0..d-1, on every pair.

    bases[k] is the basis at position k = 0..d and mats[r - 1] = b_r maps
    position r to r - 1: the matrices of a resolution, or of a skeleton.
    P_k is the pairing between bases[k] and bases[d-k].  Returns None when
    the rule holds, else the first (r, jj, kk) at which entry (jj, kk) of
    the two sides differs, first by jj and then by the row i of b_{r+1}
    that P_r pairs with kk.  Only the pairs where a side has a nonzero
    entry are compared.
    """
    d = len(bases) - 1
    pairings = [pairing(bases[k], bases[d - k]) for k in range(d + 1)]
    for r in range(d):
        next_rows, comp_rows = mats[r].entries, mats[d - r - 1].entries
        bad = []
        for i, row in enumerate(next_rows):
            kk, s2 = pairings[r][i]
            s2 *= (-1) ** r
            for jj, p in row.items():
                # entry (jj, kk) of b_{r+1}^T P_r and of (-1)^r P_{r+1} b_{d-r}, compared
                # term by term with the sign folded in, so no negated dict is built
                ii, s1 = pairings[r + 1][jj]
                got, want = p, comp_rows[ii].get(kk, {})
                if (got != want if s1 * s2 > 0 else
                        len(got) != len(want) or any(want.get(m) != -c for m, c in got.items())):
                    bad.append((jj, i))
        # and every pair whose entry of b_{d-r} is nonzero and whose entry of b_{r+1} is zero, found
        # by the inverse pairings: pp_dual_element is an involution, so P_{d-k} undoes P_k
        for ii, row in enumerate(comp_rows):
            jj = pairings[d - r - 1][ii][0]
            bad += [(jj, i) for i in (pairings[d - r][kk][0] for kk in row) if jj not in next_rows[i]]
        if bad:
            jj, i = min(bad)
            return r, jj, pairings[r][i][0]
    return None


def linear_part_vanishes(s_rows, c_rows, s_next, c_next, ncols: int) -> bool:
    """Whether S_r C_{r+1} + C_r S_{r+1} = 0, the part of b_r b_{r+1} linear in x1.

    s_rows, s_next are the rows of skeleton maps (PolyMatrix.entries), with int
    coefficients on monomials free of x1; c_rows, c_next are constant
    matrices by rows, as Resolution.cofactor gives them, and ncols is the number of
    columns of C_{r+1}.  Row i is summed in a dict, the coefficient of the
    k-th skeleton monomial at column j under the key k * ncols + j.
    """
    slots: dict[Mono, int] = {}
    firsts = [[(c_next[k], ncols * slots.setdefault(m, len(slots)), v) for k, p in row.items()
               for m, v in p.items()] for row in s_rows]
    seconds = [[(ncols * slots.setdefault(m, len(slots)) + j, v) for j, p in row.items()
                for m, v in p.items()] for row in s_next]
    for first, crow in zip(firsts, c_rows):
        lin: dict[int, Scalar] = {}
        for row, base, v in first:
            for j, c in row.items():
                lin[base + j] = lin.get(base + j, 0) + v * c
        for k, c in crow.items():
            for key, v in seconds[k]:
                lin[key] = lin.get(key, 0) + c * v
        if any(lin.values()):
            return False
    return True


def x1_split(mat: PolyMatrix) -> exactness.Split:
    """One pass over the terms of mat: (x1-free terms, x1 cofactor) by row.

    The lift holds this split by construction; the matrix form reads it
    off its matrices.  free[i] maps a column j
    to the terms free of x1 of entry (i, j), for the entries that have any.
    cof[i] maps j to c when the terms of entry (i, j) that have x1 are
    c * x1; cof is None when some term with x1 is not a multiple of x1
    itself, as at both ends of B.
    """
    x1 = (1,) + (0,) * (mat.d - 1)
    free: list[dict[int, Terms]] = []
    cof: list[dict[int, Scalar]] | None = []
    for row in mat.entries:
        frow: dict[int, Terms] = {}
        crow: dict[int, Scalar] = {}
        for j, p in row.items():
            for m, c in p.items():
                if not m[0]:
                    frow.setdefault(j, {})[m] = c
                elif m == x1:
                    crow[j] = c
                else:
                    cof = None
        free.append(frow)
        if cof is not None:
            cof.append(crow)
    return free, cof


class MatrixSession(Session):
    """The facts of a Session proved from the matrices of a MatrixForm, the full route.

    The x1 split of every map, the skeleton and the pairing rule, which a
    lift holds by construction, are facts of their own here: the pairing
    rule on every pair, so that complex_failure considers every product when
    it fails.  The premises of a Session are not taken: a matrix form may
    have delta = 0, and the strand certificate may be patched to fail.  An
    interior product is read off the split only when delta != 0, the
    certificate and the skeleton hold and both cofactors are constant; dim
    I_n ranks the whole degree-n piece of b_1.
    """

    def __init__(self, res: MatrixForm, phi: InverseSystem):
        self.res = res
        self.phi = phi
        self._matrices: dict[int, PolyMatrix] = {}

    def monomials(self, r: int) -> set[Mono]:
        return self.matrix(r).monomials()

    @cached_property
    def x1_splits(self) -> tuple[exactness.Split, ...]:
        """x1_split of every b_r, by r - 1."""
        return tuple(x1_split(m) for m in self.res.matrices)

    def cofactor(self, r: int) -> list[dict[int, Fraction]] | None:
        """C_r read off the split of b_r, or None when a term with x1 is not c * x1."""
        return self.x1_splits[r - 1][1]

    @cached_property
    def skeleton_failure(self) -> str | None:
        """None when b_r = delta S_r modulo x1 for every r (skeleton_block_failure), else its witness."""
        return skeleton_block_failure(self.res, self.x1_splits)

    @cached_property
    def duality_failure(self) -> tuple[int, int, int] | None:
        """None when the pairing rule holds on every pair (duality_failure), else (r, jj, kk)."""
        return duality_failure(self.res.bases, self.res.matrices)

    def _interior_product_vanishes(self, r: int) -> bool:
        """The induction of Session, once delta != 0, the certificate, the skeleton and constant cofactors hold."""
        # through the module, where a test that fails the certificate patches strand_certificate
        return (bool(self.res.delta) and not exactness.strand_certificate(self.res.d, self.res.n)
                and self.cofactor(r) is not None and self.cofactor(r + 1) is not None
                and self.skeleton_failure is None and super()._interior_product_vanishes(r))

    @cached_property
    def ideal_dim_n(self) -> int:
        """The rank of graded_piece(b_1, n, 0), pinned mod p against dim S_n - hf(n) or ranked exactly."""
        d, n = self.res.d, self.res.n
        bound = comb(n + d - 1, d - 1) - self.hf(n)
        # through the module, where a test that counts the pieces patches graded_piece
        piece = exactness.graded_piece(self.matrix(1), n, 0)
        if self.b1_annihilation_failure is None and any(piece.rank_mod(p) == bound for p in PRIMES):
            return bound
        return piece.rank_exact()


def wlp_by_rank(s: Session) -> CheckResult:
    """The wlp check with the image of x1 from degree n-1 ranked beside the degree-n annihilator, else check_wlp's."""
    d, n = s.res.d, s.res.n
    monos = monomials_of_degree(d, n)
    x1_multiples = [{mul_var(u, 1): 1} for u in monomials_of_degree(d, n - 1)]
    ann = ann_degree(s.phi, n)
    # ann is a kernel basis, so its rank is its length
    image_dim = linalg.rank(coeff_rows(x1_multiples, monos) + coeff_rows(ann, monos)) - len(ann)
    if image_dim != s.hf(n):
        return CheckResult("wlp", False, "x1 is not a weak Lefschetz element",
                           f"image of multiplication has dimension {image_dim}, quotient piece {s.hf(n)}")
    return check_wlp(s)


CHECKS = dict(zip(CHECK_NAMES, (check_complex, check_betti_and_degrees, check_euler_hilbert, check_ann_match,
                                check_skeleton, check_duality, check_exactness_up_to, check_wlp)))


def matrix_check(s: MatrixSession, name: str) -> CheckResult:
    """The check name of verify on a MatrixSession, with the matrix facts read where the lift holds them.

    A failed skeleton fails the skeleton check, and the exactness check after
    the facts that certify_exactness reads before it (the degrees of b_1 and
    the complex fact); the wlp check then ranks the image (wlp_by_rank).
    """
    if s.skeleton_failure is not None:
        if name == "skeleton":
            return CheckResult("skeleton", False, "skeleton is not delta times the canonical strands",
                               s.skeleton_failure)
        if name == "exactness" and s.b1_degree_failure is None and s.complex_failure is None:
            return CheckResult("exactness", False, "B is not certified to resolve S/ann(phi)", s.skeleton_failure)
        if name == "wlp":
            return wlp_by_rank(s)
    return CHECKS[name](s)


def matrix_report(s: MatrixSession, checks=CHECK_NAMES) -> Report:
    """The report of the selected checks on one MatrixSession, as run_checks reports them on a lift."""
    report = Report(d=s.res.d, n=s.res.n, delta=str(s.res.delta))
    report.results = [matrix_check(s, name) for name in CHECK_NAMES if name in checks]
    return report


def lift_fact_failure(res: Resolution) -> str | None:
    """The first fact a built resolution holds by construction that fails on its matrices, or None.

    On matrices(res), the matrices built from the lift (MatrixSession): the
    pairing rule on every map, the x1 split of each interior b_r against the
    lift's C_r and the terms with x1 of b_1 against x1 C_1, and the skeleton.
    Then the text and JSON reports of the checks on the matrix form, every
    fact computed, against those of run_checks on the lift.
    """
    s = MatrixSession(matrix_form(res), res.phi)
    if s.duality_failure is not None:
        return "pairing rule at r={}, pair ({}, {})".format(*s.duality_failure)
    for r in range(2, res.d):
        if s.cofactor(r) != res.cofactor(r):
            return f"x1 split of b_{r}"
    x1_part = [{j: part for j, p in row.items() if (part := {m: c for m, c in p.items() if m[0]})}
               for row in s.matrix(1).entries]
    if x1_part != [{j: {mul_var(m, 1): c for m, c in cof.items()} for j, cof in row.items()}
                   for row in res.cofactors[0]]:
        return "x1 part of b_1"
    if s.skeleton_failure is not None:
        return s.skeleton_failure
    lift, full = run_checks(res, res.phi), matrix_report(s)
    if (lift.to_text(), report_json(lift)) != (full.to_text(), report_json(full)):
        return "verify report"
    return None


def _box_pieces(degs: dict[int, list[tuple[int, ...]]], triples: dict[int, list[tuple[int, int, int]]]):
    """Yield (a, dims by position, pieces by map) over the box of one finely graded strand.

    The piece in multidegree a is the +-1 coefficient matrix restricted to
    {b : c(b) <= a}.  The box runs from the componentwise minimum to the
    maximum of the fine degrees: below the minimum the pieces are empty, and
    past the maximum u in coordinate i the piece at a equals the piece at
    a - e_i (Bayer and Sturmfels, "Cellular resolutions of monomial modules",
    1998, section 1), so the box decides every multidegree.
    """
    cs = {pos: np.array(c, dtype=np.int64) for pos, c in degs.items()}
    every = np.concatenate(list(cs.values()))
    lo, hi = every.min(axis=0).tolist(), every.max(axis=0).tolist()
    ts = {r: np.array(t, dtype=np.int64).reshape(len(t), 3) for r, t in triples.items()}
    for a in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        keep = {pos: (c <= a).all(axis=1) for pos, c in cs.items()}
        index = {pos: np.cumsum(k) - 1 for pos, k in keep.items()}
        ms = [int(keep[pos].sum()) if pos in keep else 0 for pos in range(max(degs) + 1)]
        pieces = {}
        for r, t in ts.items():
            if ms[r]:
                # fine homogeneity puts the row of every kept column inside the piece
                t = t[keep[r][t[:, 1]]]
                pieces[r] = Piece(ms[r - 1], ms[r], list(zip(index[r - 1][t[:, 0]].tolist(),
                                                              index[r][t[:, 1]].tolist(), t[:, 2].tolist())))
        yield a, ms, pieces


def acyclicity_failures_by_box(degs, triples, n: int) -> list[str]:
    """Why a finely graded complex (as from fine_strand) does not resolve R/m^n, by ranking its box.

    Every piece of the box is ranked exactly, and the homology must be that
    of R/m^n at every point.  The box reaches n in every coordinate, so the
    quotient is zero on its upper faces, and the comparison there also rules
    out homology in the multidegrees beyond the box.  [] when it resolves.
    """
    failures: list[str] = []
    for a, ms, pieces in _box_pieces(degs, triples):
        ns = {r: piece.rank_exact() for r, piece in pieces.items()}
        hs = [ms[r] - ns.get(r, 0) - ns.get(r + 1, 0) for r in range(len(ms))]
        r = next((r for r in range(1, len(hs)) if hs[r]), None)
        if r is not None:
            failures.append(f"monomial strand fails in multidegree {a}: homology at position {r} (defect {hs[r]})")
        elif hs[0] != (min(a) >= 0 and sum(a) < n):
            failures.append(f"monomial strand has bottom homology {hs[0]} in multidegree {a}, "
                            "not that of the quotient")
    return failures


def skeleton_matrices(d: int, n: int) -> tuple[PolyMatrix, ...]:
    """S_1..S_d as matrices, new on each call: the tables of canonical_skeleton(d, n) written out (skeleton_rows)."""
    bases = self_dual_bases(d, n)
    return tuple(PolyMatrix(bases[r - 1], bases[r], list(skeleton_rows(d, n, r, 1))) for r in range(1, d + 1))


def strand_matrices(d: int, n: int) -> tuple[dict[int, PolyMatrix], dict[int, PolyMatrix]]:
    """The two skeleton strands by position, (L maps 1..d-1, K maps 2..d).

    They are the diagonal blocks of skeleton_matrices(d, n), cut by
    skeleton_kos_blocks, so the complexes read here are the ones that the
    skeleton of every resolution is compared against.
    """
    blocks = {r: skeleton_kos_blocks(mat) for r, mat in enumerate(skeleton_matrices(d, n), 1)}
    return {r: blocks[r][1] for r in range(1, d)}, {r: blocks[r][0] for r in range(2, d + 1)}


def fine_strand(name: str, mats: dict[int, PolyMatrix]):
    """(fine degrees by position, +-1 triples by map) of one strand given as matrices, or a witness.

    mats[r] maps position r to position r - 1; the witness names the first
    entry that is not +-x^v with v != 0 free of x1 and c(column) = c(row) + v,
    in the words of exactness.strand_certificate, which reads the monomial
    strand off the tables of canonical_skeleton instead.
    """
    bases = {r - 1: mat.rows for r, mat in mats.items()}
    bases.update({r: mat.cols for r, mat in mats.items()})
    degs = {k: [fine_degree(e) for _, e in basis] for k, basis in bases.items()}
    triples: dict[int, list[tuple[int, int, int]]] = {}
    for r, mat in mats.items():
        out = triples[r] = []
        rows, cols = degs[r - 1], degs[r]
        for i, j, p in mat.nonzero():
            m, c = next(iter(p.items()))
            want = tuple(a - b for a, b in zip(cols[j], rows[i]))
            if len(p) != 1 or c not in (1, -1) or m[0] or m[1:] != want or not any(want):
                return (f"{name} strand is not finely graded: entry ({i}, {j}) of the map out of "
                        f"position {r} is {poly_str(p)}, expected +-x^v with c(column) = c(row) + v")
            out.append((i, j, int(c)))
    return degs, triples


def assemble(rows: OrderedBasis, cols: OrderedBasis, expansions) -> Rows:
    """The rows of the matrix whose column j is expansions[j], signed by the bases.

    expansions[j] maps a target element to the terms of its entry, a dict
    that the rows take over, as differentials.canonical_skeleton places the
    Koszul contraction of each Y column.  A target outside the row basis is
    a KeyError.
    """
    pos = rows.position()
    out: Rows = [{} for _ in rows]
    for j, (csign, _) in enumerate(cols.elements):
        for target, terms in expansions[j].items():
            i, rsign = pos[target]
            out[i][j] = terms if csign == rsign else signed_terms(terms, -1)
    return out


def straightened_dual_strand(d: int, n: int) -> dict[int, PolyMatrix]:
    """The paper's dual strand K by position r = 1..d-1, its X x X blocks written by straightening.

    Map r is the Koszul contraction of every X element of position r,
    straightened into the standard basis (x_contraction), and
    assembled in the self-dual bases; its Y columns are empty.  K_1 is zero.
    The top map K_d is not a contraction: the top element Xd has the unit
    monomial, not one of degree n, and K_d is the pairing transpose of L_1.
    """
    bases = [duality_basis(d, n, r) for r in range(d + 1)]
    out = {}
    for r in range(1, d):
        rows = assemble(bases[r - 1], bases[r], [x_contraction(e) if e.kind == "X" else {} for _, e in bases[r]])
        out[r] = PolyMatrix(bases[r - 1], bases[r], rows).block("X")
    return out


def dual_strand_disagreement(d: int, n: int) -> int | None:
    """The first r < d whose straightened K_r differs from the X x X block of the skeleton, or None.

    canonical_skeleton takes K as the pairing transpose of the monomial
    strand L; this is the check that it is the straightened dual strand of
    the paper as well.
    """
    skeleton = skeleton_matrices(d, n)
    return next((r for r, mat in straightened_dual_strand(d, n).items()
                 if skeleton[r - 1].block("X").entries != mat.entries), None)


def dual_strand_h1k_by_ranking(d: int, n: int) -> dict[int, int]:
    """The bottom homology of the dual skeleton strand by total degree, from ranks.

    The dual strand is checked to be finely graded (an X element has the
    multidegree of its index list minus its monomial) and a complex, and is
    ranked by certify_chain over the box of its fine degrees, exact above its
    bottom position.  A point on an upper face of the box stands for every
    multidegree beyond it, so the bottom homology must vanish there: then it
    has finite length.  An X element of fine degree c has twist |c| + 2n - 1.
    Nonzero dimensions only.
    """
    _, kmats = strand_matrices(d, n)
    strand = fine_strand("dual", kmats)
    assert not isinstance(strand, str), strand
    degs, triples = strand
    assert _composes_to_zero(triples)
    hi = [max(c[i] for cs in degs.values() for c in cs) for i in range(d - 1)]
    h1k: Counter[int] = Counter()
    for a, ms, pieces in _box_pieces(degs, triples):
        ok, ns, witness = certify_chain(pieces, ms, 2)
        assert ok, f"dual strand fails in multidegree {a}: {witness}"
        h = ms[1] - ns[2]
        assert not (h and any(x == u for x, u in zip(a, hi))), f"bottom homology on the upper face at {a}"
        h1k[sum(a) + 2 * n - 1] += h
    return {e: h for e, h in sorted(h1k.items()) if h}


def naive_product(a: PolyMatrix, b: PolyMatrix) -> list[dict[int, Terms]]:
    """sum_t a[i][t] * b[t][j] with Poly arithmetic over Fractions, as term dicts of the nonzero entries only."""
    (n, k), (_, p) = a.shape, b.shape
    d = a.d
    out = []
    for i in range(n):
        row = {}
        for j in range(p):
            acc = Poly.zero(d)
            for t in range(k):
                acc = acc + Poly(d, a.entry(i, t)) * Poly(d, b.entry(t, j))
            if acc:
                row[j] = acc.terms
        out.append(row)
    return out


def rref_by_fractions(m: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (a copy) and the list of pivot columns, in Fraction arithmetic."""
    a = [[Fraction(v) for v in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def det_and_adjugate_by_solve(m: list[list[Fraction]]):
    """(det m, adj m) in Fraction arithmetic; (0, None) for a singular m."""
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if not a[k][k]:
            pr = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pr is None:
                return 0, None
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pk - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pk
    det = sign * a[n - 1][n - 1] if n else Fraction(1)
    if det == 0:
        return 0, None
    aug = [[Fraction(v) for v in row] + [det if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref_by_fractions(aug)
    assert pivots[:n] == list(range(n))
    return det, [row[n:] for row in red]


def coeff_rows(polys: list[Terms], monos) -> list[list[Scalar]]:
    """The coefficient vector of each polynomial over the monomials monos, one row each."""
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in polys:
        row = [0] * len(monos)
        for m, c in p.items():
            row[index[m]] = c
        rows.append(row)
    return rows


def ideal_dims_by_rref(res: Resolution, dmax: int) -> dict[int, int]:
    """dim of each graded piece, up to dmax, of the ideal spanned by the b_1 columns.

    A row-reduced basis of I_{e-1} times every variable spans I_e, which is
    row-reduced in turn.
    """
    d, n = res.d, res.n
    gens = list(res.matrix(1).entries[0].values())
    dims: dict[int, int] = {e: 0 for e in range(0, min(n, dmax + 1))}
    if dmax < n:
        return dims
    monos = monomials_of_degree(d, n)
    basis, _ = rref_by_fractions(coeff_rows(gens, monos))
    basis = [r for r in basis if any(r)]
    dims[n] = len(basis)
    for e in range(n + 1, dmax + 1):
        prev_monos = monos
        monos = monomials_of_degree(d, e)
        if dims[e - 1] == len(prev_monos):
            dims[e] = len(monos)
            basis = None
            continue
        midx = {m: i for i, m in enumerate(monos)}
        cand = []
        for v in basis:
            for i in range(1, d + 1):
                w = [Fraction(0)] * len(monos)
                for k, c in enumerate(v):
                    if c:
                        w[midx[mul_var(prev_monos[k], i)]] = c
                cand.append(w)
        basis, _ = rref_by_fractions(cand)
        basis = [r for r in basis if any(r)]
        dims[e] = len(basis)
    return dims


_GOLDEN_D4_N2_B2 = (
    "x3 -x2 0 0 0 x4 0 -x2 0 0 0 0 0 0 0 0",
    "0 x3 0 -x2 0 0 x4 0 0 0 0 0 0 0 0 0",
    "0 0 x3 0 -x2 0 0 x4 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 x4 0 0 0 0 -x3 0 0",
    "0 0 0 0 0 0 0 0 0 x4 0 0 0 x2 -x3 0",
    "0 0 0 0 0 0 0 0 -x2 0 x4 0 0 0 0 -x3",
    "0 0 0 0 0 0 0 0 0 0 0 x4 0 0 x2 0",
    "0 0 0 0 0 0 0 0 0 -x2 0 -x3 x4 0 0 x2",
    "0 0 0 0 0 0 0 0 0 0 -x2 0 -x3 0 0 0",
)

_GOLDEN_D4_N2_B3 = (
    "0 0 0 -x4 0 x2 0 0 0",
    "0 0 0 0 -x4 0 0 x2 0",
    "0 0 0 0 0 -x4 0 0 x2",
    "0 0 0 0 0 0 -x4 x3 0",
    "0 0 0 0 0 0 0 -x4 x3",
    "0 0 0 x3 -x2 0 0 0 0",
    "0 0 0 0 x3 0 -x2 0 0",
    "0 0 0 0 0 x3 0 -x2 0",
    "-x3 0 0 0 0 0 0 0 0",
    "x2 -x3 0 0 0 0 0 0 0",
    "0 0 -x3 0 0 0 0 0 0",
    "0 x2 0 0 0 0 0 0 0",
    "0 0 x2 0 0 0 0 0 0",
    "-x4 0 0 0 0 0 0 0 0",
    "0 -x4 0 0 0 0 0 0 0",
    "x2 0 -x4 0 0 0 0 0 0",
)

_GOLDEN_D4_N2_B1 = ("0 0 0 x2^2 x2*x3 x2*x4 x3^2 x3*x4 x4^2",)


def _parse_entry(token: str, d: int) -> Terms:
    sign = 1
    if token.startswith("-"):
        sign = -1
        token = token[1:]
    if token == "0":
        return {}
    mono = unit(d)
    for factor in token.split("*"):
        if "^" in factor:
            name, e = factor.split("^")
            e = int(e)
        else:
            name, e = factor, 1
        i = int(name[1:])
        for _ in range(e):
            mono = mul_var(mono, i)
    return {mono: sign}


def golden_skeleton_d4_n2(d: int = 4) -> tuple[list[list[Terms]], ...]:
    """Golden mod-x1 matrices for d = 4, n = 2 (without the delta factor)."""
    def parse(rows):
        return [[_parse_entry(tok, d) for tok in line.split()] for line in rows]

    b1 = parse(_GOLDEN_D4_N2_B1)
    b2 = parse(_GOLDEN_D4_N2_B2)
    b3 = parse(_GOLDEN_D4_N2_B3)
    b4 = transpose(b1)
    return b1, b2, b3, b4


def transpose(m: list[list]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def coeff(phi: InverseSystem, m: Mono) -> Fraction:
    """The coefficient t_m = phi(m^*)."""
    return phi.coeffs.get(m, Fraction(0))


def catalecticant_matrix(phi: InverseSystem, j: int) -> list[list[Fraction]]:
    """Pairing matrix (t_{m_row * m_col}) with rows of degree j, columns of degree 2n-2-j."""
    if not 0 <= j <= phi.socle_degree:
        raise ValueError(f"degree {j} out of range 0..{phi.socle_degree}")
    rows = monomials_of_degree(phi.d, j)
    cols = monomials_of_degree(phi.d, phi.socle_degree - j)
    return [[coeff(phi, mul(mr, mc)) for mc in cols] for mr in rows]


def catalecticant_disagreement(phi: InverseSystem, ann_degrees=None) -> str | None:
    """The first catalecticant fact of phi that differs from the rational reference, or None.

    For every j the table phi.catalecticant(j) must be L times
    catalecticant_matrix(phi, j), L the lcm of the denominators, and
    hf_value(phi, j) its rank; for every j in ann_degrees (default: every
    j) ann_degree(phi, j) must be the kernel of its transpose, read off
    rref_by_fractions.  delta_and_Q must give det and adj of Cat_{n-1}
    (det_and_adjugate_by_solve) over the powers of L, or refuse phi when that
    determinant is 0.  Then every key (name, u, v) of the closed-form plan
    build_plan(d, n), read off the record's tables as Sums(cat).name(u, v)
    over cat.denom, must be its rational sum, with Q the rational adjugate
    and m, m1, m2 of degree n-2:
    Q[u, v], tq = sum_m t_{u m} Q[v, x1 m] and
    W = sum_{m1, m2} Q[x1 m1, x1 m2] t_{u m2} t_{v m1}.
    """
    top, scale = phi.socle_degree, lcm(*(c.denominator for c in phi.coeffs.values()))
    for j in range(top + 1):
        cat = catalecticant_matrix(phi, j)
        if phi.catalecticant(j) != [[scale * v for v in row] for row in cat]:
            return f"the table of degree {j} is not L Cat_{j}"
        red, pivots = rref_by_fractions(transpose(cat))
        if hf_value(phi, j) != len(pivots):
            return f"hf_value({j}) = {hf_value(phi, j)}, the rational rank is {len(pivots)}"
        if ann_degrees is not None and j not in ann_degrees:
            continue
        monos, ann = monomials_of_degree(phi.d, j), []
        for fc in (c for c in range(len(monos)) if c not in pivots):
            ann.append(Poly(phi.d, {monos[fc]: 1, **{monos[pc]: -red[r][fc] for r, pc in enumerate(pivots)}}).terms)
        if ann_degree(phi, j) != ann:
            return f"ann_degree({j}) differs from the rational kernel"
    delta, adj = det_and_adjugate_by_solve(catalecticant_matrix(phi, phi.n - 1))
    try:
        cat = delta_and_Q(phi)
    except InadmissibleSystemError:
        return None if delta == 0 else "delta_and_Q refuses a system with delta != 0"
    q = scale ** (len(cat.monos) - 1)
    if cat.delta != delta or [[Fraction(v, q) for v in row] for row in cat.adj] != adj:
        return "delta_and_Q differs from the rational determinant and adjugate"
    low = monomials_of_degree(phi.d, phi.n - 2)

    def Q(a: Mono, b: Mono) -> Fraction:
        return adj[cat.index[a]][cat.index[b]]

    sums = {
        "Q": Q,
        "tq": lambda u, v: sum(coeff(phi, mul(u, m)) * Q(v, mul_var(m, 1)) for m in low),
        "W": lambda u, v: sum(Q(mul_var(m1, 1), mul_var(m2, 1)) * coeff(phi, mul(u, m2)) * coeff(phi, mul(v, m1))
                              for m1 in low for m2 in low),
    }
    read = Sums(cat)
    for name, u, v in build_plan(phi.d, phi.n).keys:
        if Fraction(getattr(read, name)(u, v), cat.denom) != sums[name](u, v):
            return f"the build's sum {name}({u}, {v}) differs from the rational one"
    return None


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


def contract_poly(g: Terms, nu: Dual) -> Dual:
    """Linear extension of contract to a polynomial g, given by its term dict."""
    out: Dual = {}
    for m, c in g.items():
        for key, v in contract(m, nu).items():
            w = out.get(key, Fraction(0)) + c * v
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


def q_of(cat: Catalecticant, nu: Dual) -> Poly:
    """q(nu) = sum_{m1} Q_{m1,m2} m1 extended linearly over nu = sum c_{m2} m2^*."""
    d = cat.phi.d
    q = cat.scale ** (len(cat.monos) - 1)
    out = Poly.zero(d)
    for m2, c in nu.items():
        if degree(m2) != cat.phi.n - 1:
            raise ValueError("q is defined on dual elements of degree n-1")
        j = cat.index[m2]
        for i, m1 in enumerate(cat.monos):
            v = cat.adj[i][j]
            if v:
                out.add_term(m1, c * Fraction(v, q))
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
        c = coeff(phi, mul(m, m2))
        if c:
            out[mul_var(m2, 1)] = c
    return out


def resolution_json_dict(res: Resolution) -> dict:
    """The JSON document of res; monomials appear as exponent vectors, rationals as strings."""
    matrices = []
    for r in range(1, res.d + 1):
        mat = res.matrix(r)
        cells = [[[] for _ in mat.cols] for _ in mat.rows]
        for i, j, p in mat.nonzero():
            cells[i][j] = [[list(m), str(c)] for m, c in Poly(res.d, p).sorted_terms()]
        matrices.append({
            "index": r,
            "rows": mat.rows.labels(),
            "cols": mat.cols.labels(),
            "entries": cells,
        })
    return {
        "d": res.d,
        "n": res.n,
        "delta": str(res.delta),
        "ordering": "selfdual",
        "betti": list(res.betti),
        "twists": list(res.twists),
        "inverse_system": to_json_dict(res.phi),
        "matrices": matrices,
    }
