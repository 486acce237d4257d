"""Certified exactness of the resolution in every degree, with exact conclusions.

For each degree the graded pieces of the differentials are finite rational
matrices, and exactness in that degree is a set of rank equalities.

Exactness of B is reduced to its skeleton for every d: the short exact
sequence 0 -> B(-1) -> B -> B/x1 B -> 0 and its homology long exact sequence
show that vanishing of the skeleton homology in positions >= 2 forces
H_i(B)_e = x1 * H_i(B)_{e-1} for i >= 2, hence H_i(B) = 0 by induction on
e, while positions 1 and 0 reduce to small exact computations: the
degree-n piece of the ideal generated by the first matrix, and the bottom
homology h1k of the dual skeleton strand over d-1 variables.  The skeleton
depends only on (d, n): differentials.canonical_skeleton(d, n) writes it
once.  strand_certificate proves, once per (d, n), the one fact about it:
it is the dual strand K beside the monomial strand L, both exact, K the
dual of L.  A built resolution is the lift b_r = delta S_r + x1 C_r of that
skeleton (differentials.Lift), so its skeleton is delta S_r by
construction.  On a resolution given as matrices (Resolution.from_matrices)
skeleton_block_failure compares the terms free of x1, from the one-pass
split x1_split, with delta times the same matrices.

The monomial strand L must resolve R/m^n, for R = k[x2..xd] and m its
maximal ideal.  A strand basis element b has the multidegree c(b) over
x2..xd: the unit vectors of its index list plus its monomial.  Every nonzero
entry is checked to be +-x^v with c(column) = c(row) + v, so each minor of a
map phi_k of L, on rows I and columns J, is a monomial lambda x^a with
a = c(J) - c(I).  At the coordinate point e_j (x_j = 1, the other variables
0) phi_k(e_j) keeps the +-1 entries whose v is supported on j alone, and its
rank rho_k is exact (Piece.rank_exact).  Once rho_k + rho_{k+1} = rank L_k
for k = 1..d-1 (rho_d = 0) at every point, the complex property
(r_k + r_{k+1} <= rank L_k for the generic ranks) and specialization
(rho_k <= r_k) give rho_k = r_k: a nonzero r_k-minor of phi_k(e_j) is a
minor lambda x_j^N of phi_k.  So the ideal of r_k-minors holds a power of
every variable and has depth d-1 >= k, and L is exact by the criterion of
Buchsbaum and Eisenbud ("What makes a complex exact?", J. Algebra 25, 1973;
Eisenbud, "Commutative Algebra", Thm 20.9).  Its cokernel is R/m^n once
L_0 has one element and the entries of phi_1 are the monomials of degree n,
each once.

The dual strand K is not ranked.  The pairing rule (duality_failure) holds
on the whole skeleton, and it pairs the X elements of each position with
the Y elements of the complementary one, so K is the signed pairing
transpose of L: Hom(L, R) up to twists.  K is that transpose by
construction (canonical_skeleton pairs its upper half from the lower),
except in the self-paired middle map of odd d; strand_certificate still
checks the rule on the whole skeleton, once per (d, n).
L resolves R/m^n, a perfect module of grade d-1 = dim R, so Hom(L, R) has
homology only at its end, Ext^{d-1}_R(R/m^n, R): the canonical module of
R/m^n up to a shift, whose Hilbert function is that of R/m^n reversed
(Bruns and Herzog, "Cohen-Macaulay Rings", sections 3.3 and 3.6).  The top element of K has
fine degree (1, ..., 1), that of the generator of the canonical module of
R, so this bottom homology lies in the fine degrees -a, a >= 0, |a| < n.
An X element of fine degree c has twist |c| + 2n - 1, so by total degree
    h1k(e) = dim (R/m^n)_{2n-1-e} = C(2n-1-e+d-2, d-2),   n <= e <= 2n-1,
and h1k is zero elsewhere.  The long exact sequence then closes at degree
2n (certify_exactness).

The ideal I of the first matrix is pinned in degree n alone, because
J = ann(phi) is generated there.  Suppose J_j = 0 for j < n, the compressed
Hilbert function that delta != 0 gives.  Then J_e = S_1 J_{e-1} for
n < e <= 2n-1.  Take Psi in D_e orthogonal to S_1 J_{e-1}.  Then
x_i o Psi lies in J_{e-1}^perp = S_{2n-1-e} o phi, so x_i o Psi = A_i o phi.
Each x_k A_i - x_i A_k kills phi and has degree 2n-e < n, so it is 0.  By
the exactness of the Koszul complex, A_i = x_i B for one B, so
x_i o (Psi - B o phi) = 0 for every i, and Psi = B o phi lies in J_e^perp.
So J = S J_n.  When every b_1 column annihilates phi (checked exactly by
contraction), I lies in J; the columns are forms of degree n (graded_piece
refuses a term of another degree), so I = S I_n, and once
dim I_n = dim S_n - hf(n), I = S J_n = J in every degree.  A rank
over GF(p) (rank_mod_p) bounds dim I_n from below and dim S_n - hf(n) from
above, so a prime whose rank meets the bound pins it; when none does, the
piece is ranked exactly (ideal_dims).

The facts the certificate rests on (the complex property, the skeleton
structure and the annihilation by b_1) are verdicts of their own as well.  A
Session proves each of them once per verification run, together with the
self-duality of B, the Hilbert function (fixed by delta != 0 and read off
one catalecticant rank), the degree-n annihilator and dim I_n, and every
check that needs a fact reads it there.  On a built resolution three of
them hold by construction and are read off the lift, not computed: the
skeleton structure, the x1 split (every interior C_r is constant), and the
pairing rule on every map but the middle one of odd d, which pairs with
itself and is checked.  The complex property
rests on the self-duality: the pairing rule
b_{r+1}^T P_r = (-1)^r P_{r+1} b_{d-r} (duality_failure) mirrors product
d - r onto product r, so once the rule holds only the products with
r <= d // 2 are considered.  Of those, an interior product
(2 <= r, r + 1 <= d - 1) is read off the x1-split of its two matrices, or
off the lift, where C_{r+1} past the middle is the pairing of its partner:
once the skeleton holds and every term with x1 is a multiple of x1 itself,
b_r = delta S_r + x1 C_r with C_r constant, and
    b_r b_{r+1} = delta^2 S_r S_{r+1} + delta x1 (S_r C_{r+1} + C_r S_{r+1})
                  + x1^2 C_r C_{r+1},
three parts with disjoint monomials.  S_r S_{r+1} = 0 needs no product:
it follows from the strand certificate, which requires that no skeleton
entry join an X and a Y element, so that S_r S_{r+1} is K_r K_{r+1}
beside L_r L_{r+1}; L composes to zero, and so does K, its pairing
transpose.  The linear part is checked in constants, and the quadratic
part follows from the product below (complex_failure); only the end
products, and an interior one where a hypothesis fails, are multiplied out.
On a system with integer coefficients every entry of B is an int
polynomial, and these facts are proved without Fraction arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd

from .differentials import Resolution, canonical_skeleton
from .hookbasis import BasisElement, OrderedBasis, pairing, skeleton_kos_blocks
from .invsys import InverseSystem, ann_degree, hilbert_function, integer_coeffs
from .monomials import Mono, monomials_of_degree
from .polymatrix import PolyMatrix, denominator_lcm, pack
from .polynomials import Poly, Scalar, clear_denominators, exact, poly_str

PRIMES = (65521, 65519, 65497, 65479, 65449)


def rank_mod_p(nrows: int, ncols: int, triples, p: int) -> int:
    """Rank over GF(p) by elimination on sparse rows of residues.

    Duplicate triples are summed mod p.  Each row is reduced by the pivot
    row of its leading column c, row <- row - a pivot with a its entry at c,
    until it is zero or leads in a new column, where it becomes the pivot
    row, scaled to lead with 1.  The rows are taken sparsest first, which
    keeps the pivot rows sparse.  The shape only bounds the indices.
    """
    rows: dict[int, dict[int, int]] = {}
    for i, j, v in triples:
        row = rows.setdefault(i, {})
        row[j] = (row.get(j, 0) + v) % p
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(({j: v for j, v in row.items() if v} for row in rows.values()), key=len):
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                break
            a = row[c]
            for j, v in pivot.items():
                w = (row.get(j, 0) - a * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return len(pivots)


@dataclass
class Piece:
    """One graded piece of a matrix of homogeneous polynomials, as integer triples."""

    nrows: int
    ncols: int
    triples: list[tuple[int, int, int]]

    def rank_mod(self, p: int) -> int:
        return rank_mod_p(self.nrows, self.ncols, self.triples, p)

    def rank_exact(self) -> int:
        """Rank over Q by fraction-free elimination on sparse integer rows.

        Duplicate triples are summed.  Each row is reduced by the pivot row
        of its leading column c, row <- (p/g) row - (a/g) pivot with a and p
        their entries at c and g = gcd(a, p), until it is zero or leads in a
        new column, where it becomes the pivot row.  A new pivot row and a
        scaled row are divided by the gcd of their entries, so the entries
        stay small.
        """
        rows: dict[int, dict[int, int]] = {}
        for i, j, v in self.triples:
            row = rows.setdefault(i, {})
            row[j] = row.get(j, 0) + v
        pivots: dict[int, dict[int, int]] = {}
        for row in rows.values():
            row = {j: v for j, v in row.items() if v}
            while row:
                c = min(row)
                pivot = pivots.get(c)
                if pivot is None:
                    g = gcd(*row.values())
                    pivots[c] = {j: v // g for j, v in row.items()} if g != 1 else row
                    break
                g = gcd(row[c], pivot[c])
                scale, times = pivot[c] // g, row[c] // g
                if scale != 1:
                    row = {j: scale * v for j, v in row.items()}
                for j, v in pivot.items():
                    w = row.get(j, 0) - times * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                if row and scale != 1:
                    g = gcd(*row.values())
                    if g != 1:
                        row = {j: v // g for j, v in row.items()}
        return len(pivots)


def graded_piece(mat: PolyMatrix, row_deg: int, col_deg: int, scale: int = 1) -> Piece:
    """The degree piece of mat sending (columns x S_col_deg) to (rows x S_row_deg).

    Entries are premultiplied by scale (a denominator-clearing integer);
    global scaling never changes the rank.  Each distinct monomial of mat is
    packed into an int once, in a base above the degree of every row
    monomial and of every product of an entry term with a column monomial.
    The packing is then one-to-one on them, so a term of the wrong degree
    finds no row (KeyError) instead of landing on another one.
    """
    d = mat.d
    row_monos = monomials_of_degree(d, row_deg)
    col_monos = monomials_of_degree(d, col_deg)
    nrows = len(mat.rows) * len(row_monos)
    ncols = len(mat.cols) * len(col_monos)
    if nrows == 0 or ncols == 0:
        return Piece(nrows, ncols, [])
    mat = mat.cleared(scale)
    monos = mat.monomials()
    base = max(row_deg, max(map(sum, monos), default=0) + col_deg) + 1
    keys = {m: pack(m, base) for m in monos}
    ridx = {pack(m, base): k for k, m in enumerate(row_monos)}
    ukeys = [pack(u, base) for u in col_monos]
    nr, nc = len(row_monos), len(col_monos)
    triples: list[tuple[int, int, int]] = []
    for i, row in enumerate(mat.entries):
        base_i = i * nr
        for j, p in row.items():
            packed = [(keys[m], c) for m, c in p.terms.items()]
            for col, ku in enumerate(ukeys, j * nc):
                triples.extend([(base_i + ridx[km + ku], col, c) for km, c in packed])
    return Piece(nrows, ncols, triples)


# ---------------------------------------------------------------------------
# canonical skeleton strands (independent of the inverse system)
# ---------------------------------------------------------------------------


def first_nonzero_product(mats: dict[int, PolyMatrix]) -> tuple[int, int, int, Poly] | None:
    """The first (r, i, j, entry), in row-major order, with a nonzero entry of mats[r] mats[r + 1], or None."""
    for r in sorted(mats):
        if r + 1 in mats:
            for i, row in enumerate(mats[r].mul(mats[r + 1])):
                if row:
                    j = min(row)
                    return r, i, j, row[j]
    return None


Split = tuple[list[dict[int, dict]], list[dict[int, Scalar]] | None]


def x1_split(mat: PolyMatrix) -> Split:
    """One pass over the terms of mat: (x1-free terms, x1 cofactor) by row.

    free[i] maps a column j to the terms free of x1 of entry (i, j), for the
    entries that have any.  cof[i] maps j to c when the terms of entry
    (i, j) that have x1 are c * x1; cof is None when some term with x1 is
    not a multiple of x1 itself, as at both ends of B.
    """
    x1 = (1,) + (0,) * (mat.d - 1)
    free: list[dict[int, dict]] = []
    cof: list[dict[int, Scalar]] | None = []
    for row in mat.entries:
        frow: dict[int, dict] = {}
        crow: dict[int, Scalar] = {}
        for j, p in row.items():
            for m, c in p.terms.items():
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


def _linear_part_vanishes(s_rows, c_rows, s_next, c_next, ncols: int) -> bool:
    """Whether S_r C_{r+1} + C_r S_{r+1} = 0, the part of b_r b_{r+1} linear in x1.

    s_rows, s_next are the rows of skeleton maps (PolyMatrix.entries), with int
    coefficients on monomials free of x1; c_rows, c_next are constant
    matrices as the x1 cofactors of x1_split, and ncols is the number of
    columns of C_{r+1}.  Row i is summed in a dict, the coefficient of the
    k-th skeleton monomial at column j under the key k * ncols + j.
    """
    slots: dict[Mono, int] = {}
    firsts = [[(c_next[k], ncols * slots.setdefault(m, len(slots)), v) for k, p in row.items()
               for m, v in p.terms.items()] for row in s_rows]
    seconds = [[(ncols * slots.setdefault(m, len(slots)) + j, v) for j, p in row.items()
                for m, v in p.terms.items()] for row in s_next]
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


def strand_matrices(d: int, n: int) -> tuple[dict[int, PolyMatrix], dict[int, PolyMatrix]]:
    """The two skeleton strands by position, (L maps 1..d-1, K maps 2..d).

    They are the diagonal blocks of canonical_skeleton(d, n), cut by
    skeleton_kos_blocks, so the complex certified here is the one that the
    skeleton of every resolution is compared against.
    """
    blocks = {r: skeleton_kos_blocks(mat) for r, mat in enumerate(canonical_skeleton(d, n), 1)}
    return {r: blocks[r][1] for r in range(1, d)}, {r: blocks[r][0] for r in range(2, d + 1)}


def fine_degree(e: BasisElement) -> tuple[int, ...]:
    """c(e) over x2..xd: the unit vectors of the index list plus the monomial (Y) or minus it (X)."""
    sign = 1 if e.kind == "Y" else -1
    return tuple((i in e.a) + sign * e.m[i - 1] for i in range(2, e.d + 1))


def _fine_strand(name: str, mats: dict[int, PolyMatrix]):
    """(fine degrees by position, +-1 triples by map) of one strand, or a witness.

    mats[r] maps position r to position r - 1; the witness names the first
    entry that is not +-x^v with v != 0 free of x1 and c(column) = c(row) + v.
    """
    degs = {r - 1: [fine_degree(e) for _, e in mat.rows] for r, mat in mats.items()}
    degs.update({r: [fine_degree(e) for _, e in mat.cols] for r, mat in mats.items()})
    triples: dict[int, list[tuple[int, int, int]]] = {}
    for r, mat in mats.items():
        out = triples[r] = []
        for i, j, p in mat.nonzero():
            (m, c), *rest = p.terms.items()
            want = tuple(a - b for a, b in zip(degs[r][j], degs[r - 1][i]))
            if rest or c not in (1, -1) or m[0] or m[1:] != want or not any(want):
                return (f"{name} strand is not finely graded: entry ({i}, {j}) of the map out of "
                        f"position {r} is {poly_str(p)}, expected +-x^v with c(column) = c(row) + v")
            out.append((i, j, int(c)))
    return degs, triples


def _composes_to_zero(triples: dict[int, list[tuple[int, int, int]]]) -> bool:
    """Whether consecutive maps of a finely graded strand compose to zero, from their +-1 triples.

    Every term of entry (i, k) of a product of two consecutive maps is a
    multiple of x^(c(k) - c(i)), so the entry is zero exactly when the sum
    of a_ij b_jk over j is.
    """
    for r, first in triples.items():
        by_row: dict[int, list[tuple[int, int]]] = {}
        for j, k, b in triples.get(r + 1, ()):
            by_row.setdefault(j, []).append((k, b))
        sums: Counter[tuple[int, int]] = Counter()
        for i, j, a in first:
            for k, b in by_row.get(j, ()):
                sums[i, k] += a * b
        if any(sums.values()):
            return False
    return True


def _acyclicity_failures(degs: dict, triples: dict[int, list[tuple[int, int, int]]], n: int) -> list[str]:
    """Why a finely graded complex (from _fine_strand) is not proved to resolve R/m^n; [] when it is.

    The criterion at the coordinate points is in the module docstring; a
    failing point names its variable x_j and its first failing position k.
    """
    top = max(degs)  # the positions are 0..d-1, and R has d-1 variables
    ms = [len(degs[k]) for k in range(top + 1)]
    # each triple with the coordinates of x2..xd that its monomial c(column) - c(row) involves
    support = {r: [(i, k, v, {c for c, (a, b) in enumerate(zip(degs[r][k], degs[r - 1][i])) if a != b})
                   for i, k, v in ts] for r, ts in triples.items()}
    failures: list[str] = []
    for t in range(top):
        rho = [0] * (top + 2)
        for r, ts in support.items():
            rho[r] = Piece(ms[r - 1], ms[r], [(i, k, v) for i, k, v, s in ts if s <= {t}]).rank_exact()
        k = next((k for k in range(1, top + 1) if rho[k] + rho[k + 1] != ms[k]), None)
        if k is not None:
            failures.append(f"monomial strand fails the acyclicity criterion at the point x{t + 2} = 1: "
                            f"rho_{k} + rho_{k + 1} = {rho[k]} + {rho[k + 1]}, rank L_{k} = {ms[k]}")
    monos = sorted(tuple(a - b for a, b in zip(degs[1][k], degs[0][i])) for i, k, _ in triples.get(1, ()))
    if ms[0] != 1 or monos != sorted(monomials_of_degree(top, n)):
        failures.append(f"monomial strand does not present R/m^{n}: L_0 has {ms[0]} elements and the first map "
                        f"{len(monos)} nonzero entries, not one and the {comb(n + top - 1, n)} monomials "
                        f"of degree {n}")
    return failures


@lru_cache(maxsize=None)
def strand_certificate(d: int, n: int) -> tuple[str, ...]:
    """Why canonical_skeleton(d, n) is not proved to be K beside L, both exact; () when it is.

    The argument is in the module docstring.  No entry may join an X and a
    Y element, so that S_r is K_r beside L_r.  The monomial strand L must be
    finely graded, a complex, meet the acyclicity criterion by exact ranks
    at the d-1 coordinate points, and present R/m^n, R = k[x2..xd]
    (_acyclicity_failures).  The dual strand K must be the pairing
    transpose of L (the pairing rule on canonical_skeleton(d, n)); then it
    is Hom(L, R) up to twists, it composes to zero as L does, and its
    bottom homology is dual_strand_h1k(d, n).  So once the certificate
    holds, the skeleton is a complex as well.
    """
    for r, mat in enumerate(canonical_skeleton(d, n), 1):
        kinds = [e.kind for _, e in mat.cols]
        for i, ((_, e), row) in enumerate(zip(mat.rows, mat.entries)):
            if any(kinds[j] != e.kind for j in row):
                return (f"skeleton map out of position {r} joins an X and a Y element in row {i}",)
    lmats, _ = strand_matrices(d, n)
    strand = _fine_strand("monomial", lmats)
    if isinstance(strand, str):
        return (strand,)
    degs, triples = strand
    if not _composes_to_zero(triples):
        return ("monomial strand does not compose to zero",)
    failures = _acyclicity_failures(degs, triples, n)
    skel = canonical_skeleton(d, n)
    unpaired = duality_failure((skel[0].rows, *(m.cols for m in skel)), skel)
    if unpaired is not None:
        failures.append("dual strand is not the pairing transpose of the monomial strand: "
                        "the pairing rule fails at r={}, pair ({}, {})".format(*unpaired))
    return tuple(failures)


def dual_strand_h1k(d: int, n: int) -> dict[int, int]:
    """The bottom homology of the dual strand by degree, nonzero dimensions only.

    Once strand_certificate(d, n) holds it is dim Ext^{d-1}_R(R/m^n, R)
    (Bruns and Herzog, sections 3.3 and 3.6): h1k(e) = dim (R/m^n)_{2n-1-e}.
    """
    return {e: comb(2 * n - 1 - e + d - 2, d - 2) for e in range(n, 2 * n)}


# ---------------------------------------------------------------------------
# the degree-n dimension of the ideal generated by the first matrix
# ---------------------------------------------------------------------------


def ideal_dims(s: Session) -> int:
    """dim I_n, where I is the ideal of the b_1 columns: the rank of graded_piece(b_1, n, 0).

    Its rank mod p is a lower bound.  When every column annihilates phi, I
    lies in J = ann(phi) and dim S_n - hf(n) is an upper bound, so a prime
    whose rank meets it pins dim I_n.  Otherwise, and when no prime meets
    the bound, the piece is ranked exactly.  The other degrees of I follow
    from this one (module docstring, certify_exactness).
    """
    d, n = s.res.d, s.res.n
    b1 = s.matrix(1)
    piece = graded_piece(b1, n, 0, scale=denominator_lcm(b1))
    bound = comb(n + d - 1, d - 1) - s.hf(n)
    if s.b1_annihilation_failure is None and any(piece.rank_mod(p) == bound for p in PRIMES):
        return bound
    return piece.rank_exact()


# ---------------------------------------------------------------------------
# exactness of B by the skeleton route
# ---------------------------------------------------------------------------


class Session:
    """The facts about one resolution that several checks read, each proved once.

    A session lives for one verification run.  Its facts are computed on
    first use and kept on the session, never on the resolution or the
    inverse system, so a copy of a resolution that is then altered starts
    from nothing in a session of its own.  On the lift form of a resolution
    (differentials.Lift) the session reads S_r and C_r from the lift, and
    builds a matrix from it only when a check needs one, once (matrix).
    Three facts then hold by construction: the skeleton, the x1 split, and
    the pairing rule on every map but the middle one of odd d.  On the
    matrix form (Resolution.from_matrices) every fact is computed from the
    matrices.
    """

    def __init__(self, res: Resolution, phi: InverseSystem):
        self.res = res
        self.phi = phi
        self.lift = res.lift
        self._matrices: dict[int, PolyMatrix] = {}

    def matrix(self, r: int) -> PolyMatrix:
        """b_r, built from the lift at most once per session."""
        mat = self._matrices.get(r)
        if mat is None:
            mat = self._matrices[r] = self.res.matrix(r)
        return mat

    def monomials(self, r: int) -> set[Mono]:
        """The distinct monomials of b_r."""
        return self.matrix(r).monomials() if self.lift is None else self.lift.monomials(r)

    @cached_property
    def duality_failure(self) -> tuple[int, int, int] | None:
        """None when the pairing rule holds on every pair (module duality_failure), else (r, jj, kk).

        The lift writes each map past h = (d+1)//2 from its partner by the
        rule, so only the middle map of odd d, b_h at r = d // 2, which
        pairs with itself, is checked.
        """
        if self.lift is None:
            return duality_failure(self.res.bases, self.res.matrices)
        d = self.res.d
        if d % 2 == 0:
            return None
        return duality_failure(self.res.bases, {d // 2: self.matrix(d // 2 + 1)}, (d // 2,))

    @cached_property
    def complex_failure(self) -> tuple[int, int, int, Poly] | None:
        """None when b_r b_{r+1} = 0 for all r, else the first (r, i, j, entry) that is not 0.

        Under the pairing rule, b_{d-r} b_{d-r+1} = -P_{r+1}^{-1} (b_r b_{r+1})^T P_{r-1}
        with P_k invertible, so product d - r vanishes exactly when product r
        does.  The nonzero products are then symmetric under r -> d - r and
        the first lies at r <= d // 2, so only those are considered.

        The first nonzero product in r is returned, so b_{r-1} b_r = 0 is
        proved when an interior product (2 <= r, r + 1 <= d - 1) is taken
        up.  That one is proved zero by induction when skeleton_failure is
        None, strand_certificate holds, every term with x1 of b_r and b_{r+1}
        is c * x1, so b_r = delta S_r + x1 C_r with C_r constant (cofactor:
        x1_split on the matrix form, the lift's C_r on a built resolution,
        C_{r+1} paired from its partner past the middle), and
        S_r C_{r+1} + C_r S_{r+1} = 0 (_linear_part_vanishes).  Then
        b_r b_{r+1} = x1^2 M, M = C_r C_{r+1}, as S_r S_{r+1} = 0 by the
        certificate, and x1^2 b_{r-1} M = b_{r-1} b_r b_{r+1} = 0 gives
        b_{r-1} M = 0.  When r >= 3, its x1-free part is delta S_{r-1} M = 0.
        S_{r-1} is K_{r-1} beside L_{r-1}, both exact at position r - 1 >= 2
        (L resolves R/m^n, K = Hom(L, R) has homology only at position 1),
        and the maps into r - 1 have entries of positive degree (_fine_strand
        refuses a constant one).  So the kernel of S_{r-1} lies in m F, with
        no constant vector but 0, and M = 0 once delta != 0.  When r = 2, S_1
        is zero on the X columns, but each column of M is a linear relation
        among the beta_1 columns of b_1, so M = 0 once b1_degree_failure is
        None and ideal_dim_n == beta_1; the linear part is checked first, as
        it ranks nothing.  Every other product is multiplied out, so the
        witness is that of first_nonzero_product.
        """
        d = self.res.d
        last = d // 2 if self.duality_failure is None else d - 1
        for r in range(1, last + 1):
            if not (2 <= r <= d - 2 and self._interior_product_vanishes(r)):
                found = first_nonzero_product({r: self.matrix(r), r + 1: self.matrix(r + 1)})
                if found is not None:
                    return found
        return None

    def _interior_product_vanishes(self, r: int) -> bool:
        """Whether b_r b_{r+1} = 0 follows from b_{r-1} b_r = 0, proved by the caller (complex_failure)."""
        d, n = self.res.d, self.res.n
        c_r, c_next = self.cofactor(r), self.cofactor(r + 1)
        if (c_r is None or c_next is None or not self.res.delta or self.skeleton_failure is not None
                or strand_certificate(d, n)):
            return False
        skel = canonical_skeleton(d, n)
        return (_linear_part_vanishes(skel[r - 1].entries, c_r, skel[r].entries, c_next, skel[r].shape[1])
                and (r >= 3 or (self.b1_degree_failure is None and self.ideal_dim_n == self.res.betti[1])))

    @cached_property
    def x1_splits(self) -> tuple[Split, ...]:
        """x1_split of every b_r of the matrix form, by r - 1."""
        return tuple(x1_split(m) for m in self.res.matrices)

    def cofactor(self, r: int) -> list[dict[int, Scalar]] | None:
        """The constant x1 cofactor C_r of an interior b_r by rows, or None when a term with x1 is not c * x1."""
        return self.x1_splits[r - 1][1] if self.lift is None else self.lift.cofactor(r)

    @cached_property
    def skeleton_failure(self) -> str | None:
        """None when b_r = delta S_r modulo x1 for every r (skeleton_block_failure), as the lift is by construction."""
        return skeleton_block_failure(self.res, self.x1_splits) if self.lift is None else None

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
    def b1_degree_failure(self) -> tuple[int, int] | None:
        """(column, degree) of the first term of b_1 whose degree is not n, else None, which ideal_dims requires."""
        return next(((j, sum(m)) for j, g in sorted(self.matrix(1).entries[0].items())
                     for m in g.terms if sum(m) != self.res.n), None)

    @cached_property
    def b1_annihilation_failure(self) -> int | None:
        """None when every b_1 column annihilates phi, else the index of the first that does not.

        A term c_m m of a column contracts phi to sum_q c_m t_{m*q} q^* over the
        monomials q of degree 2n-2-deg(m).  Each column is cleared by the lcm
        of its denominators and phi by integer_coeffs; that scales the
        contraction by a nonzero integer, so the test is made in ints
        (invsys.contract_poly is the rational reference).  Monomials are
        packed in base top + 1, above every exponent of m, q and m*q, so each
        product m*q is one int addition.
        """
        d, top = self.res.d, self.phi.socle_degree
        base = top + 1
        t = {pack(m, base): v for m, v in integer_coeffs(self.phi)[1].items()}
        quotients = [[pack(q, base) for q in monomials_of_degree(d, k)] for k in range(top + 1)]
        for j, g in sorted(self.matrix(1).entries[0].items()):
            out: dict[int, int] = {}
            for m, c in zip(g.terms, clear_denominators(g.terms.values())[1]):
                if sum(m) <= top:
                    km = pack(m, base)
                    for kq in quotients[top - sum(m)]:
                        v = t.get(km + kq)
                        if v:
                            out[kq] = out.get(kq, 0) + c * v
            if any(out.values()):
                return j
        return None

    @cached_property
    def ideal_dim_n(self) -> int:
        """dim I_n, I the ideal of the b_1 columns (module ideal_dims)."""
        return ideal_dims(self)


def skeleton_block_failure(res: Resolution, splits: tuple[Split, ...]) -> str | None:
    """Check that the mod-x1 matrices are delta times canonical_skeleton(d, n).

    Returns a witness string on failure, None on success.  This both
    validates the skeleton structure and licenses the use of the canonical
    strand certificate for the homology of res mod x1.  The terms free of
    x1 come from splits (x1_split of every matrix) and are compared with
    delta times the skeleton terms, entry by entry, with no matrix or dict
    built for the comparison.
    """
    delta = exact(res.delta)
    d, n = res.d, res.n
    for r, skel in enumerate(canonical_skeleton(d, n), 1):
        got = res.matrix(r)
        if got.shape != skel.shape:
            return f"skeleton of b_{r} has shape {got.shape}, the canonical strand form {skel.shape}"
        for i, (got_row, want_row) in enumerate(zip(splits[r - 1][0], skel.entries)):
            # an int and a Fraction of equal value compare equal
            bad = [j for j in got_row.keys() | want_row.keys()
                   if len(a := got_row.get(j, {})) != len(b := skel.entry(i, j).terms)
                   or any(a.get(m) != c * delta for m, c in b.items())]
            if bad:
                return f"skeleton of b_{r} differs from the canonical strand form at ({i}, {min(bad)})"
    return None


def duality_failure(bases: tuple[OrderedBasis, ...], mats, rs=None) -> tuple[int, int, int] | None:
    """Check b_{r+1}^T P_r = (-1)^r P_{r+1} b_{d-r} for every r in rs (default 0..d-1), on every pair.

    bases[k] is the basis at position k = 0..d and mats[r - 1] = b_r maps
    position r to r - 1, for every b_r the rule at rs reads: a resolution,
    or the skeleton that strand_certificate reads.  P_k is the pairing
    between bases[k] and bases[d-k].  Returns None when the rule holds, else
    the first (r, jj, kk) at which entry (jj, kk) of the two sides differs,
    first by jj and then by the row i of b_{r+1} that P_r pairs with kk.
    Only the pairs where a side has a nonzero entry are compared.
    """
    d = len(bases) - 1
    pairings = [pairing(bases[k], bases[d - k]) for k in range(d + 1)]
    for r in range(d) if rs is None else rs:
        next_rows, comp_rows = mats[r].entries, mats[d - r - 1].entries
        bad = []
        for i, row in enumerate(next_rows):
            kk, s2 = pairings[r][i]
            s2 *= (-1) ** r
            for jj, p in row.items():
                # entry (jj, kk) of b_{r+1}^T P_r and of (-1)^r P_{r+1} b_{d-r}, compared
                # term by term with the sign folded in, so no negated Poly is built
                ii, s1 = pairings[r + 1][jj]
                got, want = p.terms, q.terms if (q := comp_rows[ii].get(kk)) else {}
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


def certify_exactness(s: Session) -> list[str]:
    """Why H_r(B) = 0 for 1 <= r <= d in every degree and coker(b_1) = the quotient are not certified.

    [] means certified.  Uses the homology long exact sequence of
    0 -> B(-1) -> B -> B/x1 -> 0: strand exactness kills H_i for i >= 2 by
    induction on the degree, and the degree-by-degree identity
        dim H_1(B)_e = h1k(e) - h0(e-1) + h0(e) - dim(S/(x1, m^n))_e
    (with exactly computed right side) pins H_1.  h0 = dim coker(b_1) is hf
    once I = J = ann(phi), which the module docstring proves from three
    facts: every b_1 column annihilates phi, J_j = 0 for j < n, and
    dim I_n = dim S_n - hf(n).  h0 vanishes from 2n - 1 on and the quotient
    from n on, so the identity is checked up to 2n and up to the last
    degree where h1k is nonzero; beyond both every term is zero.

    J_j = 0 for j < n is read first, so a session that fails it ranks
    nothing: the complex fact may rank b_1 for dim I_n.
    """
    d, n = s.res.d, s.res.n
    low = next((e for e in range(n) if s.hf(e) != comb(e + d - 1, d - 1)), None)
    if low is not None:
        return [f"Hilbert function of the quotient is {s.hf(low)} in degree {low} < n, not "
                f"dim S_{low} = {comb(low + d - 1, d - 1)}, so ann(phi) is not known to be generated in degree n"]
    if s.b1_degree_failure is not None:
        return ["column {} of b_1 has a term of degree {}, not n = {}".format(*s.b1_degree_failure, n)]
    if s.complex_failure is not None:
        r, i, j, _ = s.complex_failure
        return [f"not a complex: b_{r} b_{r + 1} has a nonzero entry at ({i}, {j})"]
    if s.skeleton_failure is not None:
        return [s.skeleton_failure]
    cert = strand_certificate(d, n)
    if cert:
        return list(cert)
    if s.b1_annihilation_failure is not None:
        return [f"column {s.b1_annihilation_failure} of b_1 does not annihilate phi, so I is not in ann(phi)"]
    h = comb(n + d - 1, d - 1) - s.ideal_dim_n
    if h != s.hf(n):
        return [f"coker(b_1) has dimension {h} in degree {n}, Hilbert function of the quotient gives {s.hf(n)}"]
    h1k = dual_strand_h1k(d, n)
    failures = []
    for e in range(0, max([2 * n, *h1k]) + 1):
        quot = comb(e + d - 2, d - 2) if e < n else 0
        h1 = h1k.get(e, 0) - s.hf(e - 1) + s.hf(e) - quot
        if h1 != 0:
            failures.append(f"homology at position 1 in degree {e} has dimension {h1}")
    return failures
