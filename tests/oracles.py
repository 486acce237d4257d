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
  of fine degrees, where ``exactness.strand_certificate`` proves it to be
  the pairing transpose of the monomial strand and takes its bottom
  homology from the closed form.
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
* ``br_column_alt`` writes an interior cofactor column by the contraction
  formulas on elementary wedge generators, straightened with
  ``hookbasis.expand_eta`` / ``expand_kappa``, where
  ``differentials.br_column`` records the closed-form coefficients directly;
  ``route_disagreement`` compares the two on every interior ``C_r`` of a
  built resolution.
* ``lift_fact_failure`` computes, on the matrices built from a lift, the
  facts that hold by construction of the lift (the pairing rule, the x1
  split and the skeleton), and compares the full ``run_checks`` report of
  its matrix form with the lift route's, where a ``Session`` on the lift
  reads S_r and C_r directly.
* ``q_of`` and ``tilde_contract`` are the maps of the paper's degree-n
  generators ``delta * mu - x1 * q(mu(lift))`` of the annihilator, written
  literally over dual elements, where ``differentials.b1_column`` writes
  their ``x1`` cofactors from the closed-form sums Q and tq.
* ``resolution_json_dict`` builds the JSON document of a resolution as
  nested lists and dicts, a dense list of cells per matrix, and
  ``json.dumps(doc, indent=1, sort_keys=True) + "\\n"`` lays it out, where
  ``export.resolution_json`` writes the same text directly.
* ``golden_skeleton_d4_n2`` parses the mod-x1 matrices at d = 4, n = 2,
  written out entry by entry, which ``differentials.canonical_skeleton(4, 2)``
  must reproduce verbatim.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from gorlin import linalg
from gorlin.differentials import BuildContext, Resolution
from gorlin.exactness import (
    PRIMES,
    Piece,
    Session,
    _composes_to_zero,
    _fine_strand,
    duality_failure,
    graded_piece,
    skeleton_block_failure,
    strand_matrices,
    x1_split,
)
from gorlin.export import report_json
from gorlin.hookbasis import BasisElement, expand_eta, expand_kappa
from gorlin.invsys import Catalecticant, Dual, InverseSystem, delta_and_Q, to_json_dict
from gorlin.monomials import Mono, degree, div_var, monomials_of_degree, mul, mul_var, unit, var_divides
from gorlin.polymatrix import PolyMatrix, denominator_lcm
from gorlin.polynomials import Poly, coeff_rows
from gorlin.verify import run_checks


EXACT_ENTRY_LIMIT = 1_200_000


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
    scales = [denominator_lcm(res.matrix(r)) for r in range(1, d + 1)]
    for e in range(0, dmax + 1):
        ms = position_dims(res, e)
        pieces = {
            r: graded_piece(res.matrix(r), e - twists[r - 1], e - twists[r], scale=scales[r - 1])
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


def br_column_alt(ctx: BuildContext, r: int, elt: BasisElement) -> dict[BasisElement, int]:
    """Interior cofactor column computed from elementary-generator contraction formulas."""
    if not 2 <= r <= ctx.d - 1:
        raise ValueError(f"r={r} out of range 2..{ctx.d - 1}")
    d = ctx.d
    a, m = elt.a, elt.m
    out: dict[BasisElement, int] = {}
    for j in range(1, r + 1):
        aj = a[j - 1]
        rest = a[:j - 1] + a[j:]
        slot = (-1) ** (j - 1)  # contraction sign of the j-th wedge slot
        if elt.kind == "X":
            if var_divides(aj, m):
                w = div_var(m, aj)
                for m2 in monomials_of_degree(d, ctx.n, low_var=2):
                    c = ctx.tq(m2, w)
                    if c:
                        for sgn, tgt in expand_eta(rest, m2):
                            _add(out, tgt, -slot * sgn * c)
                for m1 in monomials_of_degree(d, ctx.n - 1, low_var=2):
                    c = ctx.Q(m1, w)
                    if c:
                        for sgn, tgt in expand_kappa(rest, m1):
                            _add(out, tgt, -slot * sgn * c)
        else:
            u = mul_var(m, aj)
            for m3 in monomials_of_degree(d, ctx.n, low_var=2):
                c = ctx.W(u, m3)
                if c:
                    for sgn, tgt in expand_eta(rest, m3):
                        _add(out, tgt, slot * sgn * c)
            for m1 in monomials_of_degree(d, ctx.n - 1, low_var=2):
                c = ctx.tq(u, m1)
                if c:
                    for sgn, tgt in expand_kappa(rest, m1):
                        _add(out, tgt, slot * sgn * c)
    return out


def route_disagreement(res: Resolution) -> tuple[int, int, int] | None:
    """The first (r, i, j) at which an interior cofactor C_r of res differs from br_column_alt, or None.

    C_r is read off x1_split of b_r, as the complex check reads it.  The
    straightening route writes each column on the numeric BuildContext of
    res.phi, as integer numerators over ctx.denom signed by the bases.  The
    two construction routes share the skeleton and both end matrices, so
    the interior cofactors are all they could disagree on.
    """
    phi = res.phi
    ctx = BuildContext(phi, delta_and_Q(phi))
    for r in range(2, res.d):
        mat = res.matrix(r)
        cof = x1_split(mat)[1]
        assert cof is not None, f"b_{r} has a term with x1 that is not a multiple of x1"
        got = {(i, j): c for i, row in enumerate(cof) for j, c in row.items()}
        want = {}
        pos = mat.rows.position()
        for j, (cs, e) in enumerate(mat.cols):
            for target, c in br_column_alt(ctx, r, e).items():
                i, rs = pos[target]
                want[i, j] = Fraction(cs * rs * c, ctx.denom)
        bad = [k for k in got.keys() | want.keys() if got.get(k, 0) != want.get(k, 0)]
        if bad:
            return (r, *min(bad))
    return None


def lift_fact_failure(res: Resolution) -> str | None:
    """The first fact a built resolution holds by construction that fails on its matrices, or None.

    On the matrices res.matrices, built from the lift: the pairing rule on
    every map (duality_failure), x1_split of each interior b_r against the
    lift's C_r and the terms with x1 of b_1 against x1 C_1, and the skeleton
    comparison (skeleton_block_failure).  Then the text and JSON reports of
    run_checks on the matrix form of the same matrices, every fact computed,
    against those of the lift route.
    """
    mats = res.matrices
    form = Resolution.from_matrices(res.phi, res.delta, res.bases, mats, res.twists)
    unpaired = duality_failure(res.bases, mats)
    if unpaired is not None:
        return "pairing rule at r={}, pair ({}, {})".format(*unpaired)
    splits = tuple(x1_split(m) for m in mats)
    for r in range(2, res.d):
        if splits[r - 1][1] != res.lift.cofactor(r):
            return f"x1 split of b_{r}"
    x1_part = [{j: part for j, p in row.items() if (part := {m: c for m, c in p.terms.items() if m[0]})}
               for row in mats[0].entries]
    if x1_part != [{j: {mul_var(m, 1): c for m, c in cof.items()} for j, cof in row.items()}
                   for row in res.lift.cofactors[0]]:
        return "x1 part of b_1"
    failure = skeleton_block_failure(form, splits)
    if failure is not None:
        return failure
    lift, full = run_checks(res, res.phi), run_checks(form, res.phi)
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
    """Why a finely graded complex (as from _fine_strand) does not resolve R/m^n, by ranking its box.

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
    strand = _fine_strand("dual", kmats)
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


def naive_product(a: PolyMatrix, b: PolyMatrix) -> list[dict[int, Poly]]:
    """sum_t a[i][t] * b[t][j] with Poly arithmetic over Fractions, nonzero entries only."""
    (n, k), (_, p) = a.shape, b.shape
    out = []
    for i in range(n):
        row = {}
        for j in range(p):
            acc = Poly.zero(a.d)
            for t in range(k):
                acc = acc + a.entry(i, t) * b.entry(t, j)
            if acc:
                row[j] = acc
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


def _parse_entry(token: str, d: int) -> Poly:
    sign = 1
    if token.startswith("-"):
        sign = -1
        token = token[1:]
    if token == "0":
        return Poly.zero(d)
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
    return Poly.monomial(mono, sign)


def golden_skeleton_d4_n2(d: int = 4) -> tuple[list[list[Poly]], ...]:
    """Golden mod-x1 matrices for d = 4, n = 2 (without the delta factor)."""
    def parse(rows):
        return [[_parse_entry(tok, d) for tok in line.split()] for line in rows]

    b1 = parse(_GOLDEN_D4_N2_B1)
    b2 = parse(_GOLDEN_D4_N2_B2)
    b3 = parse(_GOLDEN_D4_N2_B3)
    b4 = linalg.transpose(b1)
    return b1, b2, b3, b4


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
        c = phi.t(mul(m, m2))
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
            cells[i][j] = [[list(m), str(c)] for m, c in p.sorted_terms()]
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
