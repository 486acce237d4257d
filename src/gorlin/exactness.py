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
once, as index tables.  strand_certificate proves on them, once per (d, n),
the one fact about it: it is the dual strand K beside the monomial strand L,
both exact, K the dual of L.  A resolution is its lift b_r = delta S_r + x1 C_r
(differentials.Resolution), so its skeleton is delta S_r by construction,
and the skeleton check is the strand certificate.

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

The dual strand K is not ranked, nor cut from the skeleton.
canonical_skeleton writes only L and takes K by the pairing rule
(differentials.paired), which pairs the X elements of
each position with the Y elements of the complementary one.  So K is the
signed pairing transpose of L by construction: Hom(L, R) up to twists.
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
contraction), I lies in J; the columns are forms of degree n (a Session
proves it, b1_degree_failure), so I = S I_n, and once
dim I_n = dim S_n - hf(n), I = S J_n = J in every degree.  Only the x1
cofactors of the X columns are ranked: b_1 = delta S_1 + x1 C_1, and as
the strand certificate holds, S_1 is zero on the X columns and has the
distinct monomials of degree n in x2..xd on the Y columns.  With
delta != 0 a relation among the columns then has no Y part (its x1-free
part is a relation among distinct monomials), and x1 is a nonzerodivisor,
so dim I_n = #Y + rank(C_1 on the X columns).  A rank over GF(p)
(rank_mod_p) of that block bounds dim I_n from below and dim S_n - hf(n)
from above, so a prime whose rank meets the bound pins it; when none does,
the block is ranked exactly (ideal_dims).

Two premises hold in every Session, and no fact has a route for their
failure: delta != 0, which delta_and_Q and Resolution enforce, and the
strand certificate, a fact of (d, n) alone, which a Session refuses to start
without.  Neither can fail on any input, so either failure is a defect.

The facts the exactness certificate rests on (the complex property and
the annihilation by b_1) are verdicts of their own as well.  A Session proves
each of them once per verification run, together with the Hilbert function
(fixed by delta != 0 and read off one catalecticant rank), the dimension of
the degree-n annihilator and dim I_n, and every check that needs a fact
reads it there.  Three facts hold by construction of the lift and are not
computed: the skeleton structure, the x1 split (every interior C_r is
constant), and the pairing rule on every map but one, as every map is its
written entries beside the pairing transpose of its partner's
(differentials.paired).  The one is the middle map of odd d, its own
partner, whose cofactor is read out whole: duality_failure compares it with
its pairing transpose.  The tests prove all three from the matrices
(tests/oracles.py, the matrix form and its MatrixSession).
The complex property rests on the self-duality: the pairing rule
b_{r+1}^T P_r = (-1)^r P_{r+1} b_{d-r} mirrors product d - r onto
product r, so only the products with r <= d // 2 are considered.
S_r S_{r+1} = 0 needs no product: it follows from the strand certificate,
which requires that no skeleton entry join an X and a Y element, so that
S_r S_{r+1} is K_r K_{r+1} beside L_r L_{r+1}; L composes to zero, and so
does K, its pairing transpose.  So an interior product of the lift is
x1 (delta LP(r) + x1 C_r C_{r+1}).  LP(r) holds by construction below the
middle, as the record reads C_{r+1} out of it, and by one comparison at
r = h of even d (complex_failure).  Only the end products, and an interior
one whose comparison or premise fails, are multiplied out.
On a system with integer coefficients every entry of B is an int
polynomial, and these facts are proved without Fraction arithmetic.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb, gcd
from operator import mul, sub
from typing import NamedTuple

from . import linalg
from .differentials import Resolution, canonical_skeleton, read_out, readout_tables, self_dual_bases, skeleton_rows
from .hookbasis import BasisElement, pairing
from .invsys import InverseSystem, hilbert_function
from .monomials import Mono, monomial_index, monomials_of_degree, mul_var, unit
from .polymatrix import PolyMatrix, denominator_lcm, pack
from .polynomials import Scalar, Terms, clear_denominators, poly_str

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


class Piece(NamedTuple):
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


def graded_piece(mat: PolyMatrix, row_deg: int, col_deg: int) -> Piece:
    """The degree piece of mat sending (columns x S_col_deg) to (rows x S_row_deg), cleared to ints.

    Entries are premultiplied by denominator_lcm(mat), which clears every
    denominator; global scaling never changes the rank.  Each distinct
    monomial of mat is packed into an int once, in a base above the degree
    of every row monomial and of every product of an entry term with a
    column monomial.  The packing is then one-to-one on them, so a term of
    the wrong degree finds no row (KeyError) instead of landing on another
    one.  Only the tests' matrix form (tests/oracles.py) ranks pieces with
    it, as ideal_dims ranks the X block of C_1; bench/tracer.py traces it.
    """
    d = mat.d
    row_monos = monomials_of_degree(d, row_deg)
    col_monos = monomials_of_degree(d, col_deg)
    nrows = len(mat.rows) * len(row_monos)
    ncols = len(mat.cols) * len(col_monos)
    if nrows == 0 or ncols == 0:
        return Piece(nrows, ncols, [])
    scale = denominator_lcm(mat)
    mat = mat if scale == 1 else mat.cleared(scale)
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
            packed = [(keys[m], c) for m, c in p.items()]
            for col, ku in enumerate(ukeys, j * nc):
                triples.extend([(base_i + ridx[km + ku], col, c) for km, c in packed])
    return Piece(nrows, ncols, triples)


# ---------------------------------------------------------------------------
# canonical skeleton strands (independent of the inverse system)
# ---------------------------------------------------------------------------


def first_nonzero_product(mats: dict[int, PolyMatrix]) -> tuple[int, int, int, Terms] | None:
    """The first (r, i, j, entry), in row-major order, with a nonzero entry of mats[r] mats[r + 1], or None."""
    for r in sorted(mats):
        if r + 1 in mats:
            for i, row in enumerate(mats[r].mul(mats[r + 1])):
                if row:
                    j = min(row)
                    return r, i, j, row[j]
    return None


Split = tuple[list[dict[int, Terms]], list[dict[int, Scalar]] | None]


def fine_degree(e: BasisElement) -> tuple[int, ...]:
    """c(e) over x2..xd: the unit vectors of the index list plus the monomial (Y) or minus it (X)."""
    sign = 1 if e.kind == "Y" else -1
    return tuple((i in e.a) + sign * m for i, m in enumerate(e.m[1:], 2))


def _monomial_strand(d: int, n: int):
    """(fine degrees by position, +-1 triples by map) of the monomial strand of canonical_skeleton(d, n), or a witness.

    L is u and the triples in the Y rows of the interior maps, indexed in the Y blocks.  The witness names
    the first entry that is not one term +-x^v with v != 0 free of x1 and c(column) = c(row) + v.
    """
    skel, bases, xs = canonical_skeleton(d, n), self_dual_bases(d, n), {v: mul_var(unit(d), v) for v in range(1, d + 1)}
    ys = [{i: k for k, i in enumerate(i for i, (_, e) in enumerate(basis) if e.kind == "Y")} for basis in bases[:d]]
    degs = {k: [fine_degree(bases[k].elements[i][1]) for i in y] for k, y in enumerate(ys)}
    terms = {1: [(0, t, m, 1) for t, m in enumerate(skel.u)]}
    terms.update({r: [(ys[r - 1][i], ys[r][j], xs[v], s) for i, j, v, s in skel.inner[r - 2] if i in ys[r - 1]]
                  for r in range(2, d)})
    triples: dict[int, list[tuple[int, int, int]]] = {}
    for r, ts in terms.items():
        rows, cols, seen, out = degs[r - 1], degs[r], set(), triples.setdefault(r, [])
        for i, j, m, c in ts:
            want = tuple(map(sub, cols[j], rows[i]))
            if c not in (1, -1) or m[0] or m[1:] != want or not any(want) or (i, j) in seen:
                cell = [(m2, c2) for i2, j2, m2, c2 in ts if (i2, j2) == (i, j)]
                p = {m2: sum(c2 for m3, c2 in cell if m3 == m2) for m2, _ in cell}
                return (f"monomial strand is not finely graded: entry ({i}, {j}) of the map out of "
                        f"position {r} is {poly_str(p)}, expected +-x^v with c(column) = c(row) + v")
            seen.add((i, j))
            out.append((i, j, c))
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
        sums: dict[tuple[int, int], int] = {}
        for i, j, a in first:
            for k, b in by_row.get(j, ()):
                sums[i, k] = sums.get((i, k), 0) + a * b
        if any(sums.values()):
            return False
    return True


def _acyclicity_failures(degs: dict, triples: dict[int, list[tuple[int, int, int]]], n: int) -> list[str]:
    """Why a finely graded complex (from _monomial_strand) is not proved to resolve R/m^n; [] when it is.

    The criterion at the coordinate points is in the module docstring; a
    failing point names its variable x_j and its first failing position k.
    """
    top = max(degs)  # the positions are 0..d-1, and R has d-1 variables
    ms = [len(degs[k]) for k in range(top + 1)]
    # the triples of each map by the one coordinate of x2..xd that their monomial c(column) - c(row)
    # involves, the point that keeps them; a monomial in two or more variables vanishes at every point
    at: dict[int, dict[int, list[tuple[int, int, int]]]] = {r: {} for r in triples}
    for r, ts in triples.items():
        rows, cols, by_point = degs[r - 1], degs[r], at[r]
        for i, k, v in ts:
            a = tuple(map(sub, cols[k], rows[i]))
            if a.count(0) == len(a) - 1:  # then the one nonzero coordinate holds the sum
                by_point.setdefault(a.index(sum(a)), []).append((i, k, v))
    failures: list[str] = []
    for t in range(top):
        rho = [0] * (top + 2)
        for r, by_point in at.items():
            rho[r] = Piece(ms[r - 1], ms[r], by_point.get(t, [])).rank_exact()
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

    The argument is in the module docstring; every test reads the tables.
    No triple may join an X and a Y element (S_1 is u on the Y columns, S_d
    its transpose), so that S_r is K_r beside L_r.  The monomial strand L
    must be finely graded (_monomial_strand), a complex, meet the acyclicity
    criterion by exact ranks at the d-1 coordinate points, and present
    R/m^n, R = k[x2..xd] (_acyclicity_failures).  The dual strand K is the
    pairing transpose of L by construction (canonical_skeleton takes it from
    differentials.paired), so only the triples in the Y rows, L, are read and
    ranked; K is Hom(L, R) up to twists, it composes to zero as L does, and
    its bottom homology is dual_strand_h1k(d, n).  So once the certificate
    holds, the skeleton is a complex as well.
    """
    skel, kinds = canonical_skeleton(d, n), [[e.kind for _, e in basis] for basis in self_dual_bases(d, n)]
    for r, cells in enumerate(skel.inner, 2):
        i = next((i for i, j, _, _ in cells if kinds[r - 1][i] != kinds[r][j]), None)
        if i is not None:
            return (f"skeleton map out of position {r} joins an X and a Y element in row {i}",)
    strand = _monomial_strand(d, n)
    if isinstance(strand, str):
        return (strand,)
    degs, triples = strand
    if not _composes_to_zero(triples):
        return ("monomial strand does not compose to zero",)
    return tuple(_acyclicity_failures(degs, triples, n))


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
    """dim I_n, where I is the ideal of the b_1 columns: #Y plus the rank of C_1 on the X columns.

    By the session's premises this is the rank of the degree-n piece of b_1
    (module docstring).  The block's rank mod p is a lower bound.  When
    every column annihilates phi, I lies in J = ann(phi) and
    dim S_n - hf(n) is an upper bound, so a prime whose rank meets it pins
    dim I_n.  Otherwise, and when no prime meets the bound, the block is
    ranked exactly.  The other degrees of I follow from this one (module
    docstring, certify_exactness).
    """
    res = s.res
    d, n = res.d, res.n
    bound = comb(n + d - 1, d - 1) - s.hf(n)
    ys, cof = len(canonical_skeleton(d, n).u), res.cofactors[0][0]
    xs = [j for j, (_, e) in enumerate(res.bases[1]) if e.kind == "X"]
    rows = monomial_index(d, n - 1)
    # the block transposed, a row per X column: rank_mod_p then keeps fewer rows
    cells = [(k, rows[m], c) for k, j in enumerate(xs) for m, c in cof.get(j, {}).items()]
    ints = clear_denominators(c for _, _, c in cells)[1]
    piece = Piece(len(xs), len(rows), [(k, i, v) for (k, i, _), v in zip(cells, ints)])
    if s.b1_annihilation_failure is None and any(ys + piece.rank_mod(p) == bound for p in PRIMES):
        return bound
    return ys + piece.rank_exact()


# ---------------------------------------------------------------------------
# exactness of B by the skeleton route
# ---------------------------------------------------------------------------


class Session:
    """The facts about one resolution that several checks read, each proved once.

    A session lives for one verification run.  Its facts are computed on
    first use and kept on the session, never on the resolution or the
    inverse system, so a changed copy of a resolution starts from nothing
    in a session of its own.  It reads S_r and C_r from res, and builds a
    matrix only when a check needs one, once (matrix); monomials and
    cofactor read res, where the tests' matrix form reads its matrices.
    A failed strand certificate, a premise, is refused here (ValueError).
    """

    def __init__(self, res: Resolution, phi: InverseSystem):
        cert = strand_certificate(res.d, res.n)
        if cert:
            raise ValueError(f"canonical_skeleton({res.d}, {res.n}) fails its strand certificate: {cert[0]}")
        self.res = res
        self.phi = phi
        self._matrices: dict[int, PolyMatrix] = {}

    def matrix(self, r: int) -> PolyMatrix:
        """b_r, built from res at most once per session."""
        mat = self._matrices.get(r)
        if mat is None:
            mat = self._matrices[r] = self.res.matrix(r)
        return mat

    def monomials(self, r: int) -> set[Mono]:
        """The distinct monomials of b_r."""
        return self.res.monomials(r)

    def cofactor(self, r: int) -> list[dict[int, Scalar]]:
        """The constant x1 cofactor C_r of an interior b_r by rows, C_{d+1-r} paired past the middle."""
        return self.res.cofactor(r)

    @cached_property
    def duality_failure(self) -> tuple[int, int, int] | None:
        """None when the pairing rule holds on every map, else the first (r, jj, kk) where it fails.

        Every map of the lift is its written entries beside the pairing
        transpose of its partner's, but the middle map b_h of odd d,
        h = (d+1)//2, is its own partner, and C_h is read out whole.  S_h is
        its own transpose, so the rule holds on b_h when C_h equals its
        mirror (differentials.paired).  The pairing of positions h - 1 and h,
        read both ways, is a signed permutation and its inverse, so each
        entry is compared in place with its partner, and both differ when one
        does.  A failure is the least pair (jj, kk) where entry (kk, jj) of
        C_h differs, at r = h - 1.
        """
        d = self.res.d
        if d % 2 == 0:
            return None
        h = (d + 1) // 2
        bases, cof = self.res.bases, self.cofactor(h)
        rows_p, cols_p = pairing(bases[h - 1], bases[h]), pairing(bases[h], bases[h - 1])
        bad = []
        for i, row in enumerate(cof):
            kk, s = rows_p[i]
            s *= (-1) ** (h - 1)
            for jj, v in row.items():
                ii, t = cols_p[jj]
                if cof[ii].get(kk) != s * t * v:
                    bad += [(jj, i), (kk, ii)]
        return (h - 1, *min(bad)) if bad else None

    @cached_property
    def complex_failure(self) -> tuple[int, int, int, Terms] | None:
        """None when b_r b_{r+1} = 0 for all r, else the first (r, i, j, entry) that is not 0.

        Under the pairing rule (duality_failure is None),
        b_{d-r} b_{d-r+1} = -P_{r+1}^{-1} (b_r b_{r+1})^T P_{r-1} with P_k
        invertible, so product d - r vanishes exactly when product r does.
        So only the products with r <= d // 2 are considered; when the rule
        fails, every product is, and no readout table reaches past d // 2.

        Products are taken in r, so those below an interior one
        (2 <= r <= d // 2) are zero.  With b_r = delta S_r + x1 C_r, C_r
        constant (cofactor), b_r b_{r+1} = x1 (delta LP + x1 M), where
        LP = S_r C_{r+1} + C_r S_{r+1} and M = C_r C_{r+1}.  A constant X with
        S_r X + C_r S_{r+1} = 0 is the readout of C_r, as the private pivots
        of S_r fix its rows (differentials.read_out).  So once LP = 0 has a
        constant solution, C_{r+1} is the readout exactly when LP = 0
        (_interior_product_vanishes).  Both strands are exact at r - 1 >= 2
        (L resolves R/m^n, K = Hom(L, R) has homology only at position 1)
        with no constant entry (_monomial_strand), so S_{r-1} kills no nonzero
        constant vector.
        * r >= 3: the x1-linear part of b_{r-1} b_r = 0 gives
          S_{r-1} C_r S_{r+1} = -D S_r S_{r+1} = 0, D the x1-free part of the
          x1 cofactor of b_{r-1}, so the columns of C_r S_{r+1} lie in
          ker S_{r-1} = im S_r, and by degree LP = 0 has a constant solution.
          With LP = 0, b_{r-1} x1^2 M = 0 has the x1-free part
          delta S_{r-1} M = 0, so M = 0.
        * r = 2: under the facts of I that _interior_product_vanishes reads,
          I = J = S J_n (module docstring), so b_1 has
          beta_1 d - dim J_{n+1} = beta_2 independent linear syzygies, and
          the columns of b_2, independent as S_2 kills no constant vector,
          are a basis.  b_1 b_2 b_3 = 0 gives delta LP + x1 M = b_2 Y, Y
          constant, so LP = S_2 Y, M = C_2 Y, and C_3 - Y is the readout:
          C_3 equal to it gives Y = 0, LP = 0 and M = 0.
        Below the middle (2r < d) the record's C_{r+1} is that readout; at
        r = h of even d, C_{h+1} is paired from C_h, and the two are compared.
        A failed comparison or premise multiplies the product out, so the
        witness is that of first_nonzero_product.
        """
        d = self.res.d
        last = d // 2 if self.duality_failure is None else d - 1
        for r in range(1, last + 1):
            if not (2 <= r <= d // 2 and self._interior_product_vanishes(r)):
                found = first_nonzero_product({r: self.matrix(r), r + 1: self.matrix(r + 1)})
                if found is not None:
                    return found
        return None

    def _interior_product_vanishes(self, r: int) -> bool:
        """Whether b_r b_{r+1} = 0 follows from the products below it (complex_failure), 2 <= r <= d // 2."""
        d, n, betti = self.res.d, self.res.n, self.res.betti
        # at r = 2: I = J, dim J_n = beta_1 and beta_1 d - dim J_{n+1} = beta_2
        if r == 2 and not (self.b1_degree_failure is None
                           and self.ideal_dim_n == betti[1] == comb(n + d - 1, d - 1) - self.hf(n)
                           and self.b1_annihilation_failure is None
                           and betti[1] * d - (comb(n + d, d - 1) - self.hf(n + 1)) == betti[2]):
            return False
        return 2 * r < d or read_out(self.cofactor(r), *readout_tables(d, n).interior[r - 2]) == self.cofactor(r + 1)

    @cached_property
    def hilbert(self) -> list[int]:
        """dim (S/ann(phi))_j for j = 0..2n-2."""
        return hilbert_function(self.phi)

    def hf(self, e: int) -> int:
        """dim (S/ann(phi))_e for any e (zero outside 0..2n-2)."""
        return self.hilbert[e] if 0 <= e < len(self.hilbert) else 0

    @cached_property
    def ann_dim_n(self) -> int:
        """dim ann(phi)_n = dim S_n - rank Cat_n, from the pivots of one rref of the table L Cat_n."""
        d, n = self.res.d, self.res.n
        return comb(n + d - 1, d - 1) - len(linalg.rref(self.phi.catalecticant(n))[1])

    @cached_property
    def b1_degree_failure(self) -> tuple[int, int] | None:
        """(column, degree) of the first term of b_1 whose degree is not n, else None, which ideal_dims requires."""
        return next(((j, sum(m)) for j, g in sorted(self.matrix(1).entries[0].items())
                     for m in g if sum(m) != self.res.n), None)

    @cached_property
    def b1_annihilation_failure(self) -> int | None:
        """None when every b_1 column annihilates phi, else the index of the first that does not.

        A term c_m m of a column contracts phi to sum_q c_m t_{m*q} q^* over the
        monomials q of degree 2n-2-deg(m): c_m times the row of m in Cat_{deg m},
        and nothing above the socle degree.  Each column is cleared by the lcm
        of its denominators and phi by L, whose tables L Cat_j
        (InverseSystem.catalecticant) are integer; that scales the
        contraction by a nonzero integer, so the test is made in ints, one sum
        of table rows per column and term degree.
        """
        phi, d, top = self.phi, self.res.d, self.phi.socle_degree
        for j, g in sorted(self.matrix(1).entries[0].items()):
            cs, degs = clear_denominators(g.values())[1], list(map(sum, g))
            for k in set(degs):
                if k <= top:
                    table, index = phi.catalecticant(k), monomial_index(d, k)
                    rows = [table[index[m]] for m, e in zip(g, degs) if e == k]
                    ck = [c for c, e in zip(cs, degs) if e == k]
                    if any(sum(map(mul, ck, col)) for col in zip(*rows)):
                        return j
        return None

    @cached_property
    def ideal_dim_n(self) -> int:
        """dim I_n, I the ideal of the b_1 columns (module ideal_dims)."""
        return ideal_dims(self)


def skeleton_block_failure(res: Resolution, splits: tuple[Split, ...]) -> str | None:
    """Check that the mod-x1 matrices of res are delta times canonical_skeleton(d, n).

    Returns a witness string on failure, None on success.  A lift holds
    this by construction; the matrix form of the tests (tests/oracles.py)
    proves it here, and bench/tracer.py traces it by name.  The terms free
    of x1 come from splits (the x1 split of every matrix) and are compared
    with the rows of delta S_r (skeleton_rows), entry by entry.
    """
    delta, d, n, bases = res.delta, res.d, res.n, self_dual_bases(res.d, res.n)
    for r in range(1, d + 1):
        got, want = res.matrix(r), (len(bases[r - 1]), len(bases[r]))
        if got.shape != want:
            return f"skeleton of b_{r} has shape {got.shape}, the canonical strand form {want}"
        # an int and a Fraction of equal value compare equal
        for i, (got_row, want_row) in enumerate(zip(splits[r - 1][0], skeleton_rows(d, n, r, delta))):
            bad = [j for j in got_row.keys() | want_row.keys() if got_row.get(j, {}) != want_row.get(j, {})]
            if bad:
                return f"skeleton of b_{r} differs from the canonical strand form at ({i}, {min(bad)})"
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

    J_j = 0 for j < n follows from delta != 0, which hilbert_function
    tests, and the strand certificate is the session's premise.
    """
    d, n, hf_n = s.res.d, s.res.n, s.hf(s.res.n)  # hf first: it refuses delta = 0, whatever was read before
    if s.b1_degree_failure is not None:
        return ["column {} of b_1 has a term of degree {}, not n = {}".format(*s.b1_degree_failure, n)]
    if s.complex_failure is not None:
        r, i, j, _ = s.complex_failure
        return [f"not a complex: b_{r} b_{r + 1} has a nonzero entry at ({i}, {j})"]
    if s.b1_annihilation_failure is not None:
        return [f"column {s.b1_annihilation_failure} of b_1 does not annihilate phi, so I is not in ann(phi)"]
    h = comb(n + d - 1, d - 1) - s.ideal_dim_n
    if h != hf_n:
        return [f"coker(b_1) has dimension {h} in degree {n}, Hilbert function of the quotient gives {hf_n}"]
    h1k = dual_strand_h1k(d, n)
    failures = []
    for e in range(0, max([2 * n, *h1k]) + 1):
        quot = comb(e + d - 2, d - 2) if e < n else 0
        h1 = h1k.get(e, 0) - s.hf(e - 1) + s.hf(e) - quot
        if h1 != 0:
            failures.append(f"homology at position 1 in degree {e} has dimension {h1}")
    return failures
