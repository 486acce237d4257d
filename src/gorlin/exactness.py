"""Certified degreewise exactness of the resolution, with exact conclusions.

For each total degree e the graded pieces of the differentials are finite
rational matrices, and exactness in degree e is a set of rank equalities.
The certificates here combine three exact facts:

  * the complex property b_r b_{r+1} = 0, verified in exact arithmetic,
    gives rank[b_r]_e + rank[b_{r+1}]_e <= dim(B_r)_e;
  * a rank over GF(p) is a lower bound for the rank over Q;
  * when the mod-p ranks meet the upper bounds with equality (the chain
    "saturates"), the rational ranks are pinned exactly and exactness in
    degree e is proved.

A failed saturation retries other primes and finally falls back to exact
rational elimination, so a reported pass is never probabilistic.

Each piece is ranked block by block: its rows and columns are split into
the connected components of its nonzero pattern (computed once per piece and
shared by every prime and the exact fallback), and the rank over any field
is the sum of the block ranks.  The skeleton strands have entries +-x_i and
are multigraded, so their pieces fall apart into thousands of small blocks;
a piece with one component goes to the dense kernel whole.  The dense
kernel reduces every entry mod p in integer arithmetic before it enters a
float64 array, so no rounding reaches a rank.

For d >= 5 the full graded pieces are too large even for mod-p elimination,
so exactness is instead reduced to the skeleton: the short exact sequence
0 -> B(-1) -> B -> B/x1 B -> 0 and its homology long exact sequence show
that vanishing of the skeleton homology in positions >= 2 forces
H_i(B)_e = x1 * H_i(B)_{e-1} for i >= 2, hence H_i(B) = 0 by induction on
e, while positions 1 and 0 reduce to small exact computations: the degree
growth of the ideal generated by the first matrix, and the bottom homology
of the dual skeleton strand over d-1 variables.

The facts both routes rest on (the complex property and the skeleton
structure) are verdicts of their own as well.  A Session proves each of them
once per verification run, together with the Hilbert function and the
degree-n annihilator, and every check that needs a fact reads it there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm

import numpy as np

from . import linalg
from .differentials import Resolution, twist_list
from .hookbasis import enumerate_basis, rank_formulas
from .invsys import InverseSystem, ann_degree, hilbert_function
from .monomials import monomials_of_degree, mul, mul_var
from .polymatrix import PolyMatrix
from .polynomials import Poly, coeff_rows

PRIMES = (65521, 65519, 65497, 65479, 65449)
_PANEL = 256
_DIRECT_ENTRY_LIMIT = 6_000_000
_EXACT_ENTRY_LIMIT = 1_200_000


def rank_mod_p(nrows: int, ncols: int, triples, p: int) -> int:
    """Rank over GF(p) by blocked Gaussian elimination (float64 GEMM updates).

    Within a panel the trailing values are kept unreduced; they stay below
    p + panel * p^2 < 2^53, so float64 arithmetic is exact.  Only the pivot
    column and pivot row are reduced mod p before use.
    """
    if nrows == 0 or ncols == 0:
        return 0
    if ncols > nrows:
        # trailing updates sweep the matrix once per column panel, so keep
        # the column count small; the rank is invariant under transpose
        nrows, ncols = ncols, nrows
        triples = [(j, i, v) for i, j, v in triples]
    m = np.zeros((nrows, ncols), dtype=np.float64)
    for i, j, v in triples:
        # reduce in Python ints first: float64 rounds integers above 2^53
        m[i, j] = (m[i, j] + v % p) % p
    rank = 0
    c0 = 0
    while c0 < ncols and rank < nrows:
        c1 = min(c0 + _PANEL, ncols)
        pcols: list[int] = []
        r = rank
        for c in range(c0, c1):
            if r == nrows:
                break
            m[r:, c] %= p
            nz = np.flatnonzero(m[r:, c])
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                m[[r, piv], c0:] = m[[piv, r], c0:]
            m[r, c:c1] %= p
            inv = pow(int(m[r, c]), p - 2, p)
            if r + 1 < nrows:
                m[r + 1:, c] = (m[r + 1:, c] * inv) % p
                if c + 1 < c1:
                    col = m[r + 1:, c]
                    if np.any(col):
                        m[r + 1:, c + 1:c1] -= np.outer(col, m[r, c + 1:c1])
            pcols.append(c)
            r += 1
        k = len(pcols)
        if k and c1 < ncols:
            a12 = m[rank:rank + k, c1:]
            for t in range(1, k):
                lrow = m[rank + t, pcols[:t]]
                if np.any(lrow):
                    a12[t, :] = (a12[t, :] - lrow @ a12[:t, :]) % p
            l21 = m[rank + k:, pcols]
            if l21.size and a12.size:
                m[rank + k:, c1:] = (m[rank + k:, c1:] - l21 @ a12) % p
        rank += k
        c0 = c1
    return rank


@dataclass
class Piece:
    """One graded piece of a matrix of homogeneous polynomials, as integer triples."""

    nrows: int
    ncols: int
    triples: list[tuple[int, int, int]]

    @property
    def size(self) -> int:
        return self.nrows * self.ncols

    @cached_property
    def blocks(self) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
        """The connected components of the nonzero pattern as reindexed submatrices.

        Row i and column j are joined when a triple (i, j, v) exists, so the
        piece is block diagonal after permuting rows and columns, and its rank
        over any field is the sum of the block ranks.  Empty rows and columns
        belong to no block; a piece with a single component is its own block.
        """
        nrows = self.nrows
        parent = list(range(nrows + self.ncols))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for i, j, _ in self.triples:
            a, b = find(i), find(nrows + j)
            if a != b:
                parent[a] = b
        root = [find(i) for i in range(nrows)]
        roots = {root[i] for i, _, _ in self.triples}
        if len(roots) <= 1:
            return [(self.nrows, self.ncols, self.triples)] if roots else []
        index = {r: k for k, r in enumerate(roots)}
        shapes = [({}, {}) for _ in roots]
        blocks: list[list[tuple[int, int, int]]] = [[] for _ in roots]
        for i, j, v in self.triples:
            k = index[root[i]]
            rmap, cmap = shapes[k]
            blocks[k].append((rmap.setdefault(i, len(rmap)), cmap.setdefault(j, len(cmap)), v))
        return [(len(rmap), len(cmap), block) for (rmap, cmap), block in zip(shapes, blocks)]

    def rank_mod(self, p: int) -> int:
        return sum(rank_mod_p(nr, nc, triples, p) for nr, nc, triples in self.blocks)

    def rank_exact(self) -> int:
        total = 0
        for nr, nc, triples in self.blocks:
            rows = [[Fraction(0)] * nc for _ in range(nr)]
            for i, j, v in triples:
                rows[i][j] += v
            total += linalg.rank(rows)
        return total


def denominator_lcm(mat: PolyMatrix) -> int:
    out = 1
    for row in mat.entries:
        for p in row:
            for c in p.terms.values():
                out = lcm(out, c.denominator)
    return out


def graded_piece(mat: PolyMatrix, row_deg: int, col_deg: int, low_var: int = 1,
                 scale: int = 1) -> Piece:
    """The degree piece of mat sending (columns x S_col_deg) to (rows x S_row_deg).

    Entries are premultiplied by scale (a denominator-clearing integer);
    global scaling never changes the rank.
    """
    d = mat.d
    row_monos = monomials_of_degree(d, row_deg, low_var)
    col_monos = monomials_of_degree(d, col_deg, low_var)
    nrows = len(mat.rows) * len(row_monos)
    ncols = len(mat.cols) * len(col_monos)
    if nrows == 0 or ncols == 0:
        return Piece(nrows, ncols, [])
    ridx = {m: k for k, m in enumerate(row_monos)}
    nr = len(row_monos)
    nc = len(col_monos)
    triples: list[tuple[int, int, int]] = []
    for i, row in enumerate(mat.entries):
        base_i = i * nr
        for j, p in enumerate(row):
            if p.is_zero():
                continue
            terms = []
            for mhat, c in p.terms.items():
                c *= scale
                if c.denominator != 1:
                    raise AssertionError(f"scale {scale} leaves a fraction in entry ({i}, {j})")
                terms.append((mhat, c.numerator))
            base_j = j * nc
            for k, u in enumerate(col_monos):
                col = base_j + k
                for mhat, c in terms:
                    triples.append((base_i + ridx[mul(mhat, u)], col, c))
    return Piece(nrows, ncols, triples)


def _certify_chain(pieces: dict[int, Piece], ms: list[int], h0: int | None,
                   exact_from: int, notes: list[str]):
    """Certify rank saturation of one degree piece of a complex.

    ms[r] is the dimension at position r (r = 0..top); pieces[r] is the
    graded piece of the map out of position r; exactness is required at
    positions exact_from..top, and, when h0 is not None, the cokernel at
    position 0 must have dimension h0.  Returns (ok, ranks, witness); on
    success the ranks are the exact rational ranks of all pieces.
    """
    top = len(ms) - 1

    def check(ns: list[int]) -> str | None:
        if h0 is not None and ms[0] - ns[1] != h0:
            return f"cokernel dimension {ms[0] - ns[1]} != {h0}"
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
    big = max((piece.size for piece in pieces.values()), default=0)
    if big <= _EXACT_ENTRY_LIMIT:
        ns = ranks_with(lambda piece: piece.rank_exact())
        witness = check(ns)
        if witness is None:
            notes.append("exact-rank fallback used")
            return True, ns, ""
        return False, ns, witness
    return False, None, f"{witness}; saturation failed for all primes (largest piece {big} entries)"


# ---------------------------------------------------------------------------
# canonical skeleton strands (independent of the inverse system)
# ---------------------------------------------------------------------------


def canonical_l_bottom(d: int, n: int) -> PolyMatrix:
    """Position 1 -> 0 of the monomial strand: the column for Y(1; a; m) is x_a * m."""
    rows = enumerate_basis(d, n, 0)
    cols = enumerate_basis(d, n, 1).y_part()
    entries = [[Poly.monomial(mul_var(e.m, e.a[0])) for _, e in cols]]
    return PolyMatrix(rows=rows, cols=cols, entries=entries)


def canonical_k_top(d: int, n: int) -> PolyMatrix:
    """Position d -> d-1 of the dual strand: the row for X(d-1; 2..d; m) is m."""
    rows = enumerate_basis(d, n, d - 1).x_part()
    cols = enumerate_basis(d, n, d)
    entries = [[Poly.monomial(e.m)] for _, e in rows]
    return PolyMatrix(rows=rows, cols=cols, entries=entries)


@lru_cache(maxsize=None)
def strand_matrices(d: int, n: int) -> tuple[dict[int, PolyMatrix], dict[int, PolyMatrix]]:
    """Canonical (determinant-free) skeleton strands: (L maps, K maps) by position."""
    from .hookbasis import skeleton_kos_blocks

    lmats: dict[int, PolyMatrix] = {1: canonical_l_bottom(d, n)}
    kmats: dict[int, PolyMatrix] = {d: canonical_k_top(d, n)}
    for r in range(2, d):
        kblock, lblock = skeleton_kos_blocks(d, n, r)
        lmats[r] = lblock
        kmats[r] = kblock
    return lmats, kmats


@lru_cache(maxsize=None)
def _strand_complexes_ok(d: int, n: int) -> bool:
    lmats, kmats = strand_matrices(d, n)
    for mats in (lmats, kmats):
        for r in mats:
            if r + 1 in mats:
                prod = mats[r].mul(mats[r + 1])
                if any(not p.is_zero() for row in prod for p in row):
                    return False
    return True


def sbar_dim(d: int, deg: int) -> int:
    """Dimension of a graded piece of the polynomial ring in x2..xd."""
    return comb(deg + d - 2, d - 2) if deg >= 0 else 0


@dataclass
class StrandCertificate:
    ok: bool
    dmax: int
    h1k: dict[int, int]
    failures: list[str]
    notes: list[str]


@lru_cache(maxsize=None)
def strand_certificate(d: int, n: int, dmax: int) -> StrandCertificate:
    """Exactness of both canonical strands in all degrees <= dmax.

    The monomial strand must resolve the quotient by the n-th power of the
    d-1 variable maximal ideal; the dual strand must be exact except at its
    bottom position, whose homology dimensions are recorded (h1k).
    """
    failures: list[str] = []
    notes: list[str] = []
    h1k: dict[int, int] = {}
    if not _strand_complexes_ok(d, n):
        return StrandCertificate(False, dmax, {}, ["strand matrices do not compose to zero"], notes)
    lmats, kmats = strand_matrices(d, n)
    twists = twist_list(d, n)
    kdims = {r: rank_formulas(d, n, r)[0] for r in range(1, d)}
    ldims = {r: rank_formulas(d, n, r)[1] for r in range(1, d)}
    kdims[d] = 1
    for e in range(0, dmax + 1):
        ms_l = [sbar_dim(d, e)] + [ldims[r] * sbar_dim(d, e - twists[r]) for r in range(1, d)]
        pieces_l = {
            r: graded_piece(lmats[r], e - twists[r - 1], e - twists[r], low_var=2)
            for r in range(1, d)
            if ms_l[r] > 0
        }
        quot = sbar_dim(d, e) if e < n else 0
        ok, _, witness = _certify_chain(pieces_l, ms_l, quot, 1, notes)
        if not ok:
            failures.append(f"monomial strand fails in degree {e}: {witness}")
            continue
        ms_k = [0] + [kdims[r] * sbar_dim(d, e - twists[r]) for r in range(1, d + 1)]
        pieces_k = {
            r: graded_piece(kmats[r], e - twists[r - 1], e - twists[r], low_var=2)
            for r in range(2, d + 1)
            if ms_k[r] > 0
        }
        ok, ns, witness = _certify_chain(pieces_k, ms_k, None, 2, notes)
        if not ok:
            failures.append(f"dual strand fails in degree {e}: {witness}")
            continue
        h1k[e] = ms_k[1] - ns[2]
    return StrandCertificate(not failures, dmax, h1k, failures, notes)


# ---------------------------------------------------------------------------
# exact degreewise dimensions of the ideal generated by the first matrix
# ---------------------------------------------------------------------------


def ideal_dims(res: Resolution, dmax: int) -> dict[int, int]:
    """dim of each graded piece, up to dmax, of the ideal spanned by the b_1 columns."""
    d, n = res.d, res.n
    gens = res.matrix(1).entries[0]
    dims: dict[int, int] = {e: 0 for e in range(0, min(n, dmax + 1))}
    if dmax < n:
        return dims
    monos = monomials_of_degree(d, n)
    basis, _ = linalg.rref(coeff_rows(gens, monos))
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
        basis, _ = linalg.rref(cand)
        basis = [r for r in basis if any(r)]
        dims[e] = len(basis)
    return dims


# ---------------------------------------------------------------------------
# the two exactness routes
# ---------------------------------------------------------------------------


@dataclass
class ExactnessOutcome:
    ok: bool
    method: str
    dmax: int
    checked_positions: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


class Session:
    """The facts about one resolution that several checks read, each proved once.

    A session lives for one verification run.  Its facts are computed on
    first use and kept on the session, never on the resolution or the
    inverse system, so a copy of a resolution that is then altered starts
    from nothing in a session of its own.
    """

    def __init__(self, res: Resolution, phi: InverseSystem, dmax: int | None = None):
        self.res = res
        self.phi = phi
        self.dmax = 2 * res.n + res.d if dmax is None else dmax

    @cached_property
    def complex_failure(self) -> tuple[int, int, int, Poly] | None:
        """None when b_r b_{r+1} = 0 for all r, else the first (r, i, j, entry) that is not 0."""
        res = self.res
        for r in range(1, res.d):
            prod = res.matrix(r).mul(res.matrix(r + 1))
            for i, row in enumerate(prod):
                for j, p in enumerate(row):
                    if not p.is_zero():
                        return r, i, j, p
        return None

    @cached_property
    def skeleton_failure(self) -> str | None:
        return skeleton_block_failure(self.res)

    @cached_property
    def hilbert(self) -> list[int]:
        """dim (S/ann(phi))_j for j = 0..2n-2."""
        return hilbert_function(self.phi)

    def hf(self, e: int) -> int:
        """dim (S/ann(phi))_e for any e (zero outside 0..2n-2)."""
        return self.hilbert[e] if 0 <= e < len(self.hilbert) else 0

    @cached_property
    def ann_n(self) -> list[Poly]:
        """Basis of the degree-n annihilator of phi, from the catalecticant kernel."""
        return ann_degree(self.phi, self.res.n)


def _not_a_complex(s: Session, out: ExactnessOutcome) -> bool:
    if s.complex_failure is None:
        return False
    r, i, j, _ = s.complex_failure
    out.ok = False
    out.failures.append(f"not a complex: b_{r} b_{r + 1} has a nonzero entry at ({i}, {j})")
    return True


def _h0_dims_ok(s: Session, failures: list[str]) -> dict[int, int] | None:
    """Exact dims of coker(b_1) degreewise; None (with a failure) on mismatch."""
    res = s.res
    idims = ideal_dims(res, s.dmax)
    h0: dict[int, int] = {}
    for e in range(0, s.dmax + 1):
        dim_se = comb(e + res.d - 1, res.d - 1)
        h0[e] = dim_se - idims[e]
        if h0[e] != s.hf(e):
            failures.append(
                f"coker(b_1) has dimension {h0[e]} in degree {e}, "
                f"Hilbert function of the quotient gives {s.hf(e)}"
            )
            return None
    return h0


def _position_dims(res: Resolution, e: int) -> list[int]:
    """dim (B_r)_e for r = 0..d."""
    d = res.d
    return [b * comb(e - t + d - 1, d - 1) if e >= t else 0 for b, t in zip(res.betti, res.twists)]


def certify_exactness_direct(s: Session) -> ExactnessOutcome:
    """Saturated-rank certification on the full graded pieces of the resolution."""
    res, dmax = s.res, s.dmax
    out = ExactnessOutcome(ok=True, method="direct", dmax=dmax)
    if _not_a_complex(s, out):
        return out
    d = res.d
    twists = res.twists
    scales = [denominator_lcm(res.matrix(r)) for r in range(1, d + 1)]
    for e in range(0, dmax + 1):
        ms = _position_dims(res, e)
        pieces = {
            r: graded_piece(res.matrix(r), e - twists[r - 1], e - twists[r], scale=scales[r - 1])
            for r in range(1, d + 1)
            if ms[r] > 0
        }
        ok, _, witness = _certify_chain(pieces, ms, s.hf(e), 1, out.notes)
        if not ok:
            out.ok = False
            out.failures.append(f"exactness fails in degree {e}: {witness}")
        else:
            out.checked_positions += sum(1 for r in range(1, d + 1) if ms[r] > 0)
    return out


def skeleton_block_failure(res: Resolution) -> str | None:
    """Check that the mod-x1 matrices are the canonical strands scaled by delta.

    Returns a witness string on failure, None on success.  This both
    validates the skeleton structure and licenses the use of the canonical
    strand certificates for the homology of res mod x1.
    """
    from .differentials import canonical_skeleton

    expected = canonical_skeleton(res)
    for r in range(1, res.d + 1):
        actual = res.matrix(r).mod_x1()
        if not actual.same_entries(expected[r - 1]):
            for i, (ra, re) in enumerate(zip(actual.entries, expected[r - 1].entries)):
                for j, (a, b) in enumerate(zip(ra, re)):
                    if a != b:
                        return f"skeleton of b_{r} differs from the canonical strand form at ({i}, {j})"
    return None


def certify_exactness_les(s: Session) -> ExactnessOutcome:
    """Skeleton-filtration certification (for sizes where direct pieces are too large).

    Uses the homology long exact sequence of 0 -> B(-1) -> B -> B/x1 -> 0:
    strand exactness kills H_i for i >= 2 by induction on the degree, and the
    degree-by-degree identity
        dim H_1(B)_e = h1k(e) - h0(e-1) + h0(e) - dim(S/(x1, m^n))_e
    (with exactly computed right side) pins H_1.
    """
    res, dmax = s.res, s.dmax
    out = ExactnessOutcome(ok=True, method="skeleton-les", dmax=dmax)
    if _not_a_complex(s, out):
        return out
    if s.skeleton_failure is not None:
        out.ok = False
        out.failures.append(s.skeleton_failure)
        return out
    cert = strand_certificate(res.d, res.n, dmax)
    out.notes.extend(cert.notes)
    if not cert.ok:
        out.ok = False
        out.failures.extend(cert.failures)
        return out
    h0 = _h0_dims_ok(s, out.failures)
    if h0 is None:
        out.ok = False
        return out
    d, n = res.d, res.n
    for e in range(0, dmax + 1):
        quot = sbar_dim(d, e) if e < n else 0
        h1 = cert.h1k[e] - h0.get(e - 1, 0) + h0[e] - quot
        if h1 != 0:
            out.ok = False
            out.failures.append(f"homology at position 1 in degree {e} has dimension {h1}")
        else:
            out.checked_positions += d
    return out


def certify_exactness(s: Session, method: str = "auto") -> ExactnessOutcome:
    """Certify H_r(B)_e = 0 for 1 <= r <= d, e <= dmax, and coker(b_1) = the quotient."""
    if method == "auto":
        biggest = 0
        for e in range(0, s.dmax + 1):
            dims = _position_dims(s.res, e)
            biggest = max(biggest, max(a * b for a, b in zip(dims, dims[1:])))
        method = "direct" if biggest <= _DIRECT_ENTRY_LIMIT else "les"
    if method == "direct":
        return certify_exactness_direct(s)
    if method == "les":
        return certify_exactness_les(s)
    raise ValueError(f"unknown exactness method {method!r}")
