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

Exactness of B is reduced to its skeleton for every d: the short exact
sequence 0 -> B(-1) -> B -> B/x1 B -> 0 and its homology long exact sequence
show that vanishing of the skeleton homology in positions >= 2 forces
H_i(B)_e = x1 * H_i(B)_{e-1} for i >= 2, hence H_i(B) = 0 by induction on
e, while positions 1 and 0 reduce to small exact computations: the degree
growth of the ideal generated by the first matrix, and the bottom homology
of the dual skeleton strand over d-1 variables.  The skeleton depends only
on (d, n): differentials.canonical_skeleton(d, n) writes it once, its two
diagonal blocks are the strands that strand_certificate ranks (once per
(d, n)), and skeleton_block_failure compares the skeleton of each resolution
with delta times the same matrices.

The ideal I of the first matrix is pinned by saturation as well: when every
b_1 column annihilates phi (checked exactly by contraction), I lies in
ann(phi), so dim S_e - hf(e) bounds dim I_e from above, and a mod-p rank of
the degree-e piece that meets the bound pins it.  Without that fact, or when
no prime meets the bound, the piece is ranked exactly.

The facts the certificate rests on (the complex property, the skeleton
structure and the annihilation by b_1) are verdicts of their own as well.  A
Session proves each of them once per verification run, together with the
Hilbert function, the degree-n annihilator and the dimensions of I, and
every check that needs a fact reads it there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from . import linalg
from .differentials import Resolution, canonical_skeleton, twist_list
from .hookbasis import rank_formulas, skeleton_kos_blocks
from .invsys import InverseSystem, ann_degree, contract_poly, hilbert_function
from .monomials import monomials_of_degree, mul
from .polymatrix import PolyMatrix, denominator_lcm
from .polynomials import Poly

PRIMES = (65521, 65519, 65497, 65479, 65449)
_PANEL = 256
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


def first_nonzero_product(mats: dict[int, PolyMatrix]) -> tuple[int, int, int, Poly] | None:
    """The first (r, i, j, entry) with a nonzero entry of mats[r] mats[r + 1], or None."""
    for r in sorted(mats):
        if r + 1 in mats:
            for i, row in enumerate(mats[r].mul(mats[r + 1])):
                for j, p in enumerate(row):
                    if not p.is_zero():
                        return r, i, j, p
    return None


def strand_matrices(d: int, n: int) -> tuple[dict[int, PolyMatrix], dict[int, PolyMatrix]]:
    """The two skeleton strands by position, (L maps 1..d-1, K maps 2..d).

    They are the diagonal blocks of canonical_skeleton(d, n), cut by
    skeleton_kos_blocks, so the complex certified here is the one that the
    skeleton of every resolution is compared against.
    """
    blocks = {r: skeleton_kos_blocks(d, n, r) for r in range(1, d + 1)}
    return {r: blocks[r][1] for r in range(1, d)}, {r: blocks[r][0] for r in range(2, d + 1)}


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
    lmats, kmats = strand_matrices(d, n)
    if first_nonzero_product(lmats) or first_nonzero_product(kmats):
        return StrandCertificate(False, dmax, {}, ["strand matrices do not compose to zero"], notes)
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


def ideal_dims(s: Session) -> dict[int, int]:
    """dim I_e for e = 0..max(dmax, n), where I is the ideal of the b_1 columns.

    dim I_e is the rank of graded_piece(b_1, e, e - n).  Its rank mod p is a
    lower bound.  When every column annihilates phi, I lies in ann(phi) and
    dim S_e - hf(e) is an upper bound, so a prime whose rank meets it pins
    dim I_e.  Otherwise, and when no prime meets the bound, the piece is
    ranked exactly.  Once I_{e-1} = S_{e-1}, also I_e = S_e.
    """
    res = s.res
    d, n = res.d, res.n
    b1 = res.matrix(1)
    scale = denominator_lcm(b1)
    annihilates = s.b1_annihilation_failure is None
    dims: dict[int, int] = {}
    for e in range(0, max(s.dmax, n) + 1):
        dim_se = comb(e + d - 1, d - 1)
        if e < n:
            dims[e] = 0
        elif dims[e - 1] == comb(e + d - 2, d - 1):
            dims[e] = dim_se
        else:
            piece = graded_piece(b1, e, e - n, scale=scale)
            bound = dim_se - s.hf(e)
            if annihilates and any(piece.rank_mod(p) == bound for p in PRIMES):
                dims[e] = bound
            else:
                dims[e] = piece.rank_exact()
    return dims


# ---------------------------------------------------------------------------
# exactness of B by the skeleton route
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
        return first_nonzero_product(dict(enumerate(self.res.matrices, 1)))

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

    @cached_property
    def b1_annihilation_failure(self) -> int | None:
        """None when every b_1 column annihilates phi, else the index of the first that does not."""
        nu = self.phi.dual_element()
        return next((j for j, g in enumerate(self.res.matrix(1).entries[0]) if contract_poly(g, nu)),
                    None)

    @cached_property
    def ideal_dims(self) -> dict[int, int]:
        """dim I_e for e = 0..max(dmax, n), I the ideal of the b_1 columns (module ideal_dims)."""
        return ideal_dims(self)


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
    h0: dict[int, int] = {}
    for e in range(0, s.dmax + 1):
        dim_se = comb(e + res.d - 1, res.d - 1)
        h0[e] = dim_se - s.ideal_dims[e]
        if h0[e] != s.hf(e):
            failures.append(
                f"coker(b_1) has dimension {h0[e]} in degree {e}, "
                f"Hilbert function of the quotient gives {s.hf(e)}"
            )
            return None
    return h0


def skeleton_block_failure(res: Resolution) -> str | None:
    """Check that the mod-x1 matrices are delta times canonical_skeleton(d, n).

    Returns a witness string on failure, None on success.  This both
    validates the skeleton structure and licenses the use of the canonical
    strand certificates for the homology of res mod x1.
    """
    for r, want in enumerate(canonical_skeleton(res.d, res.n), 1):
        got = res.matrix(r).mod_x1()
        if got.shape != want.shape:
            return f"skeleton of b_{r} has shape {got.shape}, the canonical strand form {want.shape}"
        for i, (row_got, row_want) in enumerate(zip(got.entries, want.entries)):
            for j, (a, b) in enumerate(zip(row_got, row_want)):
                if a != b.scale(res.delta):
                    return f"skeleton of b_{r} differs from the canonical strand form at ({i}, {j})"
    return None


def certify_exactness(s: Session) -> ExactnessOutcome:
    """Certify H_r(B)_e = 0 for 1 <= r <= d, e <= dmax, and coker(b_1) = the quotient.

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
