"""The rank kernels, the strand certificate and the saturated ideal dimensions, where they can break."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from gorlin import differentials, exactness, linalg
from gorlin.differentials import Skeleton, build_resolution, canonical_skeleton, self_dual_bases, signed_terms
from gorlin.exactness import (
    PRIMES,
    Piece,
    Session,
    _acyclicity_failures,
    _composes_to_zero,
    _monomial_strand,
    certify_exactness,
    denominator_lcm,
    dual_strand_h1k,
    fine_degree,
    first_nonzero_product,
    graded_piece,
    ideal_dims,
    rank_mod_p,
    skeleton_block_failure,
    strand_certificate,
)
from gorlin.hookbasis import OrderedBasis, pairing
from gorlin.invsys import InadmissibleSystemError, InverseSystem, hf_value, random_invsys
from gorlin.monomials import monomials_of_degree, mul_var, unit
from gorlin.polymatrix import PolyMatrix
from gorlin.polynomials import poly_str

from conftest import (
    EXTRA,
    GRID,
    add_to,
    changed_lift,
    dense,
    extra_phi,
    fractional_phi,
    grid_phi,
    grid_resolution,
    swap_variables,
)
from oracles import (
    MatrixSession,
    Poly,
    acyclicity_failures_by_box,
    contract_poly,
    duality_failure,
    dual_strand_disagreement,
    dual_strand_h1k_by_ranking,
    fine_strand,
    ideal_dims_by_rref,
    linear_part_vanishes,
    matrices,
    matrix_form,
    mul,
    plus,
    skeleton_matrices,
    strand_matrices,
    straightened_dual_strand,
    x1_split,
)

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)
MUTANTS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
BIG = 2**80


def dense_rows(piece: Piece) -> list[list[Fraction]]:
    rows = [[Fraction(0)] * piece.ncols for _ in range(piece.nrows)]
    for i, j, v in piece.triples:
        rows[i][j] += v
    return rows


@st.composite
def shuffled(draw, blocks):
    """Place the blocks (lists of rows) on the diagonal, pad, then permute rows and columns."""
    triples = []
    r0 = c0 = 0
    for block in blocks:
        triples += [(r0 + i, c0 + j, v) for i, row in enumerate(block) for j, v in enumerate(row) if v]
        r0 += len(block)
        c0 += len(block[0])
    nrows = r0 + draw(st.integers(0, 2))
    ncols = c0 + draw(st.integers(0, 2))
    rperm = draw(st.permutations(range(nrows)))
    cperm = draw(st.permutations(range(ncols)))
    return Piece(nrows, ncols, [(rperm[i], cperm[j], v) for i, j, v in triples])


@st.composite
def low_rank_block(draw):
    """An integer block U V of rank <= k with entries below 2^80 in absolute value."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(nr, nc)))
    factor = st.integers(-(2**38), 2**38)
    u = [[draw(factor) for _ in range(k)] for _ in range(nr)]
    w = [[draw(factor) for _ in range(nc)] for _ in range(k)]
    return [[sum(u[i][t] * w[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]


@st.composite
def entrywise_block(draw, entry):
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return [[draw(entry) for _ in range(nc)] for _ in range(nr)]


sparse_block = entrywise_block(st.one_of(st.just(0), st.integers(-BIG, BIG)))
block_diagonal = st.lists(st.one_of(low_rank_block(), sparse_block), max_size=5).flatmap(shuffled)
# every entry nonzero, so the block is one component
connected = entrywise_block(st.integers(-BIG, BIG).filter(bool)).map(lambda block: [block]).flatmap(shuffled)


@st.composite
def with_duplicates(draw, piece):
    """The same matrix with each entry split into two triples, cancelling pairs added, in a drawn order."""
    triples = []
    for i, j, v in piece.triples:
        part = draw(st.integers(-BIG, BIG))
        triples += [(i, j, part), (i, j, v - part)]
    if piece.nrows and piece.ncols:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, piece.nrows - 1)), draw(st.integers(0, piece.ncols - 1))
            w = draw(st.integers(-BIG, BIG))
            triples += [(i, j, w), (i, j, -w)]
    return Piece(piece.nrows, piece.ncols, draw(st.permutations(triples)))


zero_piece = st.builds(Piece, st.integers(0, 6), st.integers(0, 6), st.builds(list))


@KERNEL
@given(st.one_of(block_diagonal, connected, zero_piece).flatmap(with_duplicates))
def test_rank_exact_sums_duplicate_triples_and_matches_the_dense_rank(piece):
    assert piece.rank_exact() == linalg.rank(dense_rows(piece))


def test_rank_mod_p_reduces_before_float64():
    # the second row is 3 times the first, with an entry above 2^53 that must
    # be reduced exactly mod p, not after a rounding conversion
    a = 2**60 + 100
    triples = [(0, 0, a), (0, 1, 1), (1, 0, 3 * a), (1, 1, 3)]
    assert Piece(2, 2, triples).rank_exact() == 1
    for p in PRIMES:
        assert rank_mod_p(2, 2, triples, p) <= 1


@pytest.mark.parametrize("transpose", [False, True])
def test_rank_mod_p_of_a_piece_wider_than_256_columns(transpose):
    # any set of rows of a unit upper-triangular block is independent over
    # every GF(p); copies of rows and one row replaced by a sum of two others
    # pin the rank at 300 and 299
    rng = random.Random(11)
    n = 300
    block = [[0] * i + [1] + [rng.randint(-BIG, BIG) if rng.random() < 0.3 else 0 for _ in range(n - 1 - i)]
             for i in range(n)]
    deficient = block[:7] + [[a + b for a, b in zip(block[3], block[250])]] + block[8:]
    for rows, want in ((block, n), (deficient, n - 1)):
        rows = rows + [rows[rng.randrange(n)] for _ in range(60)]
        rng.shuffle(rows)
        triples = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
        shape = (len(rows), n)
        if transpose:
            triples = [(j, i, v) for i, j, v in triples]
            shape = shape[::-1]
        for p in PRIMES:
            assert rank_mod_p(*shape, triples, p) == want


@KERNEL
@given(block_diagonal)
def test_block_ranks_sum_to_the_unsplit_rank(piece):
    exact = piece.rank_exact()
    assert exact == linalg.rank(dense_rows(piece))
    for p in PRIMES:
        mod_p = piece.rank_mod(p)
        assert mod_p == rank_mod_p(piece.nrows, piece.ncols, piece.triples, p)
        assert mod_p <= exact


@KERNEL
@given(connected)
def test_single_component_passes_its_triples_through(piece):
    seen = []
    kernel = exactness.rank_mod_p

    def spy(nrows, ncols, triples, p):
        seen.append((nrows, ncols, triples))
        return kernel(nrows, ncols, triples, p)

    exactness.rank_mod_p = spy
    try:
        piece.rank_mod(PRIMES[0])
    finally:
        exactness.rank_mod_p = kernel
    assert len(seen) == 1
    nrows, ncols, triples = seen[0]
    assert (nrows, ncols) == (piece.nrows, piece.ncols) and triples is piece.triples


def test_empty_piece_has_rank_zero():
    piece = Piece(3, 4, [])
    assert piece.rank_mod(PRIMES[0]) == 0 and piece.rank_exact() == 0


def test_graded_piece_clears_a_fraction_itself():
    # the piece is cleared by the lcm of the denominators of mat, so a Fraction entry gives
    # the piece of the cleared copy, all in ints
    mat = grid_resolution(3, 2).matrix(2)
    mat.set(0, 0, plus(mat.entry(0, 0), mul_var(unit(3), 1), Fraction(1, 2)))
    piece, cleared = graded_piece(mat, 1, 0), graded_piece(mat.cleared(denominator_lcm(mat)), 1, 0)
    assert denominator_lcm(mat) == 2 and piece.triples
    assert (piece.nrows, piece.ncols, piece.triples) == (cleared.nrows, cleared.ncols, cleared.triples)
    assert all(type(c) is int for _, _, c in piece.triples)


def test_graded_piece_refuses_a_term_of_the_wrong_degree():
    # under a packing base of row_deg + 1 = 3, x1^4 would share the key of
    # x1*x2 and land on that row; the piece must refuse the term instead
    mat = grid_resolution(3, 2).matrix(1)
    mat.set(0, 0, plus(mat.entry(0, 0), (4, 0, 0)))
    with pytest.raises(KeyError):
        graded_piece(mat, 2, 0)


@pytest.mark.parametrize("d,n", [(3, 2), (4, 3)])
def test_graded_piece_matches_the_monomial_products(d, n):
    b1 = grid_resolution(d, n).matrix(1)
    for e in range(n, 2 * n + 1):
        row_monos = monomials_of_degree(d, e)
        col_monos = monomials_of_degree(d, e - n)
        want = Counter()
        for j, p in b1.entries[0].items():
            for k, u in enumerate(col_monos):
                for m, c in p.items():
                    want[row_monos.index(mul(m, u)), j * len(col_monos) + k] += c
        got = Counter()
        for i, j, c in graded_piece(b1, e, e - n).triples:
            got[i, j] += c
        assert {k: v for k, v in got.items() if v} == {k: v for k, v in want.items() if v}


def test_strand_certificate_d6_n2_holds():
    assert strand_certificate(6, 2) == ()
    assert dual_strand_h1k(6, 2) == {2: 5, 3: 1}


@pytest.mark.parametrize("d,n", [(3, 2), (4, 3), (5, 2)])
def test_strand_certificate_ranks_exactly_and_uses_no_prime(monkeypatch, d, n):
    def refuse(*args):
        raise AssertionError("rank_mod_p called")

    calls = []
    rank_exact = Piece.rank_exact
    monkeypatch.setattr(exactness, "rank_mod_p", refuse)
    monkeypatch.setattr(Piece, "rank_exact", lambda self: calls.append(self) or rank_exact(self))
    assert strand_certificate.__wrapped__(d, n) == ()
    assert calls


# (ok, h1k by degree 0..2n+d) of the certificate, written from it as computed
# when the strands were assembled in the raw bases and both strands were ranked
STRAND_PINS = {
    (3, 2): (True, [0, 0, 2, 1, 0, 0, 0, 0]),
    (3, 3): (True, [0, 0, 0, 3, 2, 1, 0, 0, 0, 0]),
    (4, 2): (True, [0, 0, 3, 1, 0, 0, 0, 0, 0]),
    (4, 3): (True, [0, 0, 0, 6, 3, 1, 0, 0, 0, 0, 0]),
    (5, 2): (True, [0, 0, 4, 1, 0, 0, 0, 0, 0, 0]),
    (5, 3): (True, [0, 0, 0, 10, 4, 1, 0, 0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("d,n", GRID)
def test_strand_certificate_pins(d, n):
    ok, h1k = STRAND_PINS[d, n]
    assert (strand_certificate(d, n) == (), dual_strand_h1k(d, n)) == (ok, {e: h for e, h in enumerate(h1k) if h})


@pytest.mark.parametrize("d,n", [*GRID, (4, 4), (6, 2)])
def test_dual_strand_ranks_give_the_closed_form_h1k(d, n):
    # the reference ranks the dual strand over its box; the certificate takes
    # the dimensions of Ext^{d-1}(R/m^n, R) instead
    want = {e: comb(2 * n - 1 - e + d - 2, d - 2) for e in range(n, 2 * n)}
    assert strand_certificate(d, n) == ()
    assert dual_strand_h1k_by_ranking(d, n) == dual_strand_h1k(d, n) == want


def nonzero_entries(mat):
    """{(signed row element, signed column element): entry} over the nonzero entries."""
    return {(mat.rows.elements[i], mat.cols.elements[j]): p for i, j, p in mat.nonzero()}


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (4, 3), (5, 2)])
def test_strands_are_the_diagonal_blocks_of_the_canonical_skeleton(d, n):
    skel = skeleton_matrices(d, n)
    assert first_nonzero_product(dict(enumerate(skel, 1))) is None
    lmats, kmats = strand_matrices(d, n)
    assert sorted(lmats) == list(range(1, d)) and sorted(kmats) == list(range(2, d + 1))
    for r, mat in enumerate(skel, 1):
        strands = {kind: m[r] for kind, m in (("Y", lmats), ("X", kmats)) if r in m}
        for kind, strand in strands.items():
            assert strand.rows.elements == tuple(x for x in mat.rows if x[1].kind == kind)
            assert strand.cols.elements == tuple(x for x in mat.cols if x[1].kind == kind)
        # the strands hold every nonzero entry, so the mixed X/Y blocks are zero
        in_strands = {k: p for strand in strands.values() for k, p in nonzero_entries(strand).items()}
        assert nonzero_entries(mat) == in_strands, (d, n, r)


def test_split_product_sums_the_skeleton_parts_by_monomial():
    # S_r C_{r+1} = a * x2 at column 0 and C_r S_{r+1} = b * c * m there; the
    # Fraction cofactors are summed exactly, with no common denominator
    x2, x3 = (0, 1, 0), (0, 0, 1)
    third = Fraction(1, 3)
    for a, b, c, m, vanishes in [(1, 1, -1, x2, True), (1, 1, -2, x2, False), (1, 1, -1, x3, False),
                                 (Fraction(7, 2), Fraction(-7, 6), 3, x2, True),
                                 (Fraction(7, 2), Fraction(-7, 6), 2, x2, False)]:
        got = linear_part_vanishes([{1: {x2: 1}}], [{0: b}], [{0: {m: c}}, {}],
                                   [{}, {0: a}], 1)
        assert got == vanishes, (a, b, c, m)
    # C_r S_{r+1} alone: the rows of S_{r+1} cancel under (1/3, -1/3) and not under (1/3, -1/2)
    s_next = [{0: {x2: 5}}, {0: {x2: 5}}]
    assert linear_part_vanishes([{}], [{0: third, 1: -third}], s_next, [{}, {}], 1)
    assert not linear_part_vanishes([{}], [{0: third, 1: Fraction(-1, 2)}], s_next, [{}, {}], 1)


@pytest.mark.parametrize("d,n", [(3, 2), (4, 3), (5, 2)])
def test_x1_split_reads_the_cofactors_of_the_interior_maps(d, n):
    res = grid_resolution(d, n)
    splits = [x1_split(m) for m in matrices(res)]
    assert splits[0][1] is None and splits[-1][1] is None  # degree-n cofactors at both ends
    x1 = mul_var(unit(d), 1)
    for r in range(2, d):
        free, cof = splits[r - 1]
        mat = res.matrix(r)
        for i, row in enumerate(dense(mat)):
            for j, p in enumerate(row):
                assert p == {**free[i].get(j, {}), **({x1: cof[i][j]} if j in cof[i] else {})}
    assert skeleton_block_failure(res, tuple(splits)) is None
    bad = res.matrix(2)  # a new matrix, which the resolution does not see altered
    bad.set(0, 0, plus(bad.entry(0, 0), mul_var(x1, 2)))
    assert x1_split(bad)[1] is None


KIND = {"monomial": "Y", "dual": "X"}


def certificate_of_mutated_skeleton(monkeypatch, d, n, mutate):
    """(strand_certificate(d, n) computed afresh, the tables it read) for mutated skeleton tables.

    mutate alters inner, the interior maps of canonical_skeleton(d, n) as
    lists of (i, j, v, s), inner[r - 2] for S_r, in place, keeping each in
    row order.  Both modules read the mutated tables: the certificate scans
    and cuts them, and skeleton_matrices writes them out.
    """
    skel = canonical_skeleton(d, n)
    inner = [list(cells) for cells in skel.inner]
    mutate(inner)
    tables = Skeleton(skel.u, tuple(map(tuple, inner)))
    for module in (differentials, exactness):
        monkeypatch.setattr(module, "canonical_skeleton", lambda d, n: tables)
    return strand_certificate.__wrapped__(d, n), tables


def strand_cells(d, n, r, strand):
    """The row and column indices of the map out of position r that hold the elements of one strand."""
    kind, bases = KIND[strand], self_dual_bases(d, n)
    return ([i for i, (_, e) in enumerate(bases[r - 1]) if e.kind == kind],
            [j for j, (_, e) in enumerate(bases[r]) if e.kind == kind])


def first_triple(d, n, r, strand):
    """(k, (i, j, v, s)) for the first triple of the table of S_r, 2 <= r <= d-1, in a row of one strand."""
    rows = set(strand_cells(d, n, r, strand)[0])
    return next((k, t) for k, t in enumerate(canonical_skeleton(d, n).inner[r - 2]) if t[0] in rows)


def flipped(inner, r, k):
    """inner with the sign of triple k of S_r flipped, in place."""
    i, j, v, s = inner[r - 2][k]
    inner[r - 2][k] = (i, j, v, -s)


def inserted(cells, cell):
    """cells with cell inserted after the cells of its row and the rows above it, in place."""
    cells.insert(next((k for k, c in enumerate(cells) if c[0] > cell[0]), len(cells)), cell)


def unpaired_at(skel):
    """The r of the first pair at which the pairing rule fails on skeleton matrices, or None."""
    found = duality_failure((skel[0].rows, *(m.cols for m in skel)), skel)
    return found and found[0]


@pytest.mark.parametrize("d,n", GRID + [(6, 2), (7, 2)])
def test_canonical_skeleton_holds_the_pairing_rule(d, n):
    # the strand certificate takes the dual strand to be the pairing transpose of the monomial
    # strand, as canonical_skeleton writes it: every map is L beside the transpose of its partner's L
    assert unpaired_at(skeleton_matrices(d, n)) is None


@pytest.mark.parametrize("d,n", GRID + [(6, 2), (7, 2)])
def test_the_pairing_transpose_of_the_monomial_strand_is_the_straightened_dual_strand(d, n):
    # canonical_skeleton takes K from L by the pairing rule; the paper writes K by straightening
    # the Koszul contraction of the X elements, and the two agree at every position below d
    straightened = straightened_dual_strand(d, n)
    assert sorted(straightened) == list(range(1, d))
    assert any(any(mat.entries) for mat in straightened.values())
    assert dual_strand_disagreement(d, n) is None


@pytest.mark.parametrize("strand,r", [("monomial", 2), ("monomial", 3), ("dual", 2), ("dual", 3)])
def test_strand_certificate_fails_on_a_sign_flip(monkeypatch, strand, r):
    # a flipped monomial triple is still finely graded, so the complex property
    # on its +-1 triples is what fails.  The certificate does not read the
    # dual strand, the pairing transpose of L by construction of
    # canonical_skeleton; a flipped dual triple breaks that pairing rule where
    # map r first enters it, as b_{r'+1} or as b_{d-r'}.  The end maps S_1 and
    # S_d carry no sign in the tables: S_1 is u, and S_d its pairing transpose
    cert, _ = certificate_of_mutated_skeleton(monkeypatch, 4, 2, lambda inner: flipped(
        inner, r, first_triple(4, 2, r, strand)[0]))
    if strand == "monomial":
        assert cert == ("monomial strand does not compose to zero",)
    else:
        assert cert == () and unpaired_at(skeleton_matrices(4, 2)) == min(r - 1, 4 - r)


@pytest.mark.parametrize("d,n", [(4, 2), (5, 2), (4, 3)])
def test_every_flip_of_a_monomial_triple_fails_the_certificate(monkeypatch, d, n):
    # each sign of L is forced: flipping any one triple of an interior map in a Y row breaks
    # the complex property, the first test after the fine grading
    rows = {r: set(strand_cells(d, n, r, "monomial")[0]) for r in range(2, d)}
    flips = [(r, k) for r in rows for k, t in enumerate(canonical_skeleton(d, n).inner[r - 2]) if t[0] in rows[r]]
    assert len(flips) == {(4, 2): 26, (5, 2): 108, (4, 3): 51}[d, n]
    for r, k in flips:
        with monkeypatch.context() as patch:
            cert, _ = certificate_of_mutated_skeleton(patch, d, n, lambda inner: flipped(inner, r, k))
        assert cert == ("monomial strand does not compose to zero",), (r, k)


@pytest.mark.parametrize("d,n", [(4, 2), (5, 2), (4, 3)])
def test_a_monomial_triple_moved_to_another_multidegree_is_named(monkeypatch, d, n):
    # the first monomial triple of each interior map, moved along its row to an empty column of
    # another fine degree: the certificate names it by its indices in the strand and its entry
    for r in range(2, d):
        rows, cols = strand_cells(d, n, r, "monomial")
        k, (i, j, v, s) = first_triple(d, n, r, "monomial")
        cells = canonical_skeleton(d, n).inner[r - 2]
        degs = {c: fine_degree(self_dual_bases(d, n)[r].elements[c][1]) for c in cols}
        j2 = next(c for c in cols if degs[c] != degs[j] and (i, c) not in {t[:2] for t in cells})

        def move(inner):
            inner[r - 2][k] = (i, j2, v, s)

        with monkeypatch.context() as patch:
            cert, _ = certificate_of_mutated_skeleton(patch, d, n, move)
        x_v = poly_str({mul_var(unit(d), v): s})
        assert cert == (f"monomial strand is not finely graded: entry ({rows.index(i)}, {cols.index(j2)}) of the map "
                        f"out of position {r} is {x_v}, expected +-x^v with c(column) = c(row) + v",), (d, n, r)


@pytest.mark.parametrize("strand,r", [("monomial", 2), ("dual", 3)])
def test_strand_certificate_names_an_entry_moved_to_another_multidegree(monkeypatch, strand, r):
    moved = []

    def move(inner):
        rows, cols = strand_cells(4, 2, r, strand)
        k, (i, j, v, s) = first_triple(4, 2, r, strand)
        degs = {c: fine_degree(self_dual_bases(4, 2)[r].elements[c][1]) for c in cols}
        j2 = next(c for c in cols if degs[c] != degs[j] and (i, c) not in {t[:2] for t in inner[r - 2]})
        inner[r - 2][k] = (i, j2, v, s)
        moved.append((rows.index(i), cols.index(j2), {mul_var(unit(4), v): s}))

    cert, _ = certificate_of_mutated_skeleton(monkeypatch, 4, 2, move)
    (i, j2, p), = moved
    if strand == "monomial":
        assert cert == (f"monomial strand is not finely graded: entry ({i}, {j2}) of the map out of "
                        f"position {r} is {poly_str(p)}, expected +-x^v with c(column) = c(row) + v",)
    else:
        # the dual strand is not read by the certificate (test_strand_certificate_fails_on_a_sign_flip)
        assert cert == () and unpaired_at(skeleton_matrices(4, 2)) == min(r - 1, 4 - r)


def test_strand_certificate_ranks_a_zeroed_column(monkeypatch):
    # still finely graded and a complex, so the ranks at the coordinate
    # points fail it
    def zero(inner):
        _, cols = strand_cells(4, 2, 3, "monomial")
        inner[1] = [t for t in inner[1] if t[1] != cols[0]]

    cert, _ = certificate_of_mutated_skeleton(monkeypatch, 4, 2, zero)
    assert cert
    assert cert[0] == ("monomial strand fails the acyclicity criterion at the point x2 = 1: "
                       "rho_2 + rho_3 = 5 + 2, rank L_2 = 8")
    assert all(c.startswith("monomial strand fails the acyclicity criterion at the point ") for c in cert)


@pytest.mark.parametrize("strand,r,first", [
    ("monomial", 1, "monomial strand does not present R/m^2: L_0 has 2 elements and the first map "
                    "6 nonzero entries, not one and the 6 monomials of degree 2"),
])
def test_strand_certificate_fails_on_an_unreached_bottom_element(monkeypatch, strand, r, first):
    # a copy of the bottom element that no map reaches: the strand stays
    # finely graded, a complex, and meets the rank criterion at every
    # coordinate point, but its cokernel is no longer R/m^n, which the
    # count of bottom elements rejects.  The bases are facts of (d, n), so
    # both modules read the extended ones
    bases = list(self_dual_bases(4, 2))
    rows = bases[r - 1]
    copy_of = rows.elements[strand_cells(4, 2, r, strand)[0][0]]
    bases[r - 1] = OrderedBasis(rows.d, rows.n, rows.r, rows.elements + (copy_of,))
    for module in (differentials, exactness):
        monkeypatch.setattr(module, "self_dual_bases", lambda d, n: tuple(bases))
    cert = strand_certificate.__wrapped__(4, 2)
    assert cert and cert[0] == first


@pytest.mark.parametrize("d,n", [*GRID, (4, 4), (6, 2)])
def test_coordinate_points_and_box_give_the_same_verdict(d, n):
    # the certificate reads the strand off the tables as the matrix reader reads it off the matrices
    degs, triples = fine_strand("monomial", strand_matrices(d, n)[0])
    assert _monomial_strand(d, n) == (degs, triples)
    assert _acyclicity_failures(degs, triples, n) == acyclicity_failures_by_box(degs, triples, n) == []
    assert strand_certificate(d, n) == ()


def test_coordinate_points_need_every_variable():
    # R = k[x2, x3], L_1 = (x2, x3) and L_2 = x2 (x3, -x2)^T: a finely graded
    # complex with the bottom of R/m, whose ideal of 1-minors of L_2 is
    # x2 (x2, x3), not m-primary.  The ranks hold at x2 = 1 and at the point
    # (1, 1), and fail at x3 = 1 only.
    degs = {0: [(0, 0)], 1: [(1, 0), (0, 1)], 2: [(2, 1)]}
    triples = {1: [(0, 0, 1), (0, 1, 1)], 2: [(0, 0, 1), (1, 0, -1)]}
    assert _composes_to_zero(triples)
    assert _acyclicity_failures(degs, triples, 1) == [
        "monomial strand fails the acyclicity criterion at the point x3 = 1: rho_1 + rho_2 = 1 + 0, rank L_1 = 2"]
    assert acyclicity_failures_by_box(degs, triples, 1)


def _cells(mat, zero=False):
    return [(i, j) for i in range(len(mat.rows)) for j in range(len(mat.cols)) if bool(mat.entry(i, j)) != zero]


@MUTANTS
@given(st.data())
def test_coordinate_points_and_box_agree_on_mutated_strands(data):
    # a whole map zeroed, one variable set to 0 in every map, or a duplicated
    # bottom element keep the strand finely graded and a complex, so the
    # ranks decide, and both reject it; a flipped or moved entry is mostly
    # caught before the ranks, and both verdicts must still agree
    d, n = data.draw(st.sampled_from([(3, 2), (4, 2), (5, 2), (4, 3)]), label="(d, n)")
    kind = data.draw(st.sampled_from(["map", "variable", "bottom", "flip", "move"]), label="mutation")
    mats = {r: PolyMatrix(m.rows, m.cols, [dict(row) for row in m.entries])
            for r, m in strand_matrices(d, n)[0].items()}
    r = data.draw(st.integers(1, d - 1), label="map")
    mat = mats[r]
    if kind == "map":
        for row in mat.entries:
            row.clear()
    elif kind == "variable":
        v = data.draw(st.integers(2, d), label="variable")
        for m in mats.values():
            m.entries = [{j: p for j, p in row.items() if not any(e[v - 1] for e in p)} for row in m.entries]
    elif kind == "bottom":
        b1 = mats[1]
        b1.rows = OrderedBasis(d, n, 0, b1.rows.elements * 2)
        b1.entries.append(dict(b1.entries[0]) if data.draw(st.booleans(), label="copy entries") else {})
    else:
        i, j = data.draw(st.sampled_from(_cells(mat)), label="entry")
        if kind == "flip":
            mat.set(i, j, signed_terms(mat.entry(i, j), -1))
        else:
            targets = [(a, b) for a, b in _cells(mat, zero=True) if a == i or b == j]
            assume(targets)  # the first map is one row without a zero entry
            i2, j2 = data.draw(st.sampled_from(targets), label="target")
            p, q = mat.entry(i, j), mat.entry(i2, j2)
            mat.set(i, j, q)
            mat.set(i2, j2, p)
    strand = fine_strand("monomial", mats)
    ranked = not isinstance(strand, str) and _composes_to_zero(strand[1])
    if kind in ("map", "variable", "bottom"):
        assert ranked
    if ranked:
        degs, triples = strand
        by_points, by_box = _acyclicity_failures(degs, triples, n), acyclicity_failures_by_box(degs, triples, n)
        assert bool(by_points) == bool(by_box), (by_points, by_box)
        if kind in ("map", "variable", "bottom"):
            assert by_points


def test_skeleton_complex_fact_on_a_mixed_entry_and_a_sign_flip(monkeypatch):
    # the strand certificate is the skeleton's complex fact: it scans for an
    # entry between an X and a Y element first, and a flip in the monomial
    # strand fails it with that strand's first witness; a flip in the dual
    # strand breaks the pairing rule, which canonical_skeleton holds by
    # construction and the certificate does not read
    assert strand_certificate(4, 2) == ()

    def mix(inner):
        rows, _ = strand_cells(4, 2, 2, "dual")
        _, cols = strand_cells(4, 2, 2, "monomial")
        inserted(inner[0], (rows[0], cols[0], 2, 1))

    def flip(strand):
        return lambda inner: flipped(inner, 2, first_triple(4, 2, 2, strand)[0])

    cert, _ = certificate_of_mutated_skeleton(monkeypatch, 4, 2, mix)
    assert cert[0].startswith("skeleton map out of position 2 joins an X and a Y element in row ")
    cert, _ = certificate_of_mutated_skeleton(monkeypatch, 4, 2, flip("monomial"))
    assert cert[0] == "monomial strand does not compose to zero"
    cert, _ = certificate_of_mutated_skeleton(monkeypatch, 4, 2, flip("dual"))
    assert cert == () and unpaired_at(skeleton_matrices(4, 2)) == 1


def duality_failure_by_negation(bases, mats):
    """The pairing rule on Poly entries, one side negated as a Poly when the sign is negative."""
    d = len(mats)
    pairings = [pairing(bases[k], bases[d - k]) for k in range(d + 1)]
    for r in range(d):
        for jj, (ii, s1) in enumerate(pairings[r + 1]):
            for i, (kk, s2) in enumerate(pairings[r]):
                want = Poly(d, mats[d - r - 1].entry(ii, kk))
                if Poly(d, mats[r].entry(i, jj)) != (want if (-1) ** r * s1 * s2 > 0 else -want):
                    return r, jj, kk
    return None


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2)])
def test_duality_failure_witness_matches_the_poly_comparison(d, n):
    # an extra term, a negated entry or a zeroed entry, anywhere in B: the first
    # pair that fails is the one a comparison of whole Polys finds, also when the
    # extra term lies only on the negated side of that pair
    res = grid_resolution(d, n)
    rng = random.Random(d)
    seen = set()
    for _ in range(40):
        bad = matrix_form(res)
        mat = bad.matrix(rng.randint(1, d))
        i, j = rng.randrange(len(mat.rows)), rng.randrange(len(mat.cols))
        entry = mat.entry(i, j)
        mat.set(i, j, rng.choice([
            plus(entry, mul_var(unit(d), rng.randint(1, d)), rng.choice([1, -2])),
            signed_terms(entry, -1),
            {},
        ]))
        want = duality_failure_by_negation(bad.bases, matrices(bad))
        assert duality_failure(bad.bases, matrices(bad)) == want
        seen.add(want is None)
    assert seen == {True, False}


def test_pairings_are_kept_by_their_own_bases():
    # flipping the sign of one element of bases[1] is a change of basis: with
    # column k of b_1 and row k of b_2 negated to match, the pairing rule holds
    # again, but only under the pairing of the new bases, not the canonical one
    res = grid_resolution(4, 2)
    assert duality_failure(res.bases, matrices(res)) is None  # the canonical pairings are kept
    k = 3
    b1, b2 = res.matrix(1), res.matrix(2)
    flipped = OrderedBasis(4, 2, 1, tuple((-s if i == k else s, e) for i, (s, e) in enumerate(b1.cols)))
    new_b1 = PolyMatrix(b1.rows, flipped, [{j: signed_terms(p, -1) if j == k else p for j, p in row.items()}
                                           for row in b1.entries])
    new_b2 = PolyMatrix(flipped, b2.cols, [({j: signed_terms(p, -1) for j, p in row.items()} if i == k else row)
                                           for i, row in enumerate(b2.entries)])
    bases = (res.bases[0], flipped, *res.bases[2:])
    mats = (new_b1, new_b2, *matrices(res)[2:])
    canonical, own = pairing(res.bases[1], res.bases[3]), pairing(flipped, res.bases[3])
    assert [s for _, s in own] == [-s if i == k else s for i, (_, s) in enumerate(canonical)]
    assert duality_failure(bases, mats) is None
    # and the same matrices in the canonical bases break the rule
    assert duality_failure(res.bases, mats) is not None


def with_b1_column(res, j, entry):
    """A matrix-form copy of res whose column j of b_1 is entry."""
    bad = matrix_form(res)
    bad.matrix(1).set(0, j, entry)
    return bad


def ranked_degrees(monkeypatch) -> list[int]:
    """The row degrees of the graded pieces built from now on, in call order."""
    degrees = []
    build = exactness.graded_piece

    def record(mat, row_deg, col_deg):
        degrees.append(row_deg)
        return build(mat, row_deg, col_deg)

    monkeypatch.setattr(exactness, "graded_piece", record)
    return degrees


@pytest.mark.parametrize("d,n", [*GRID, (4, 4)])
def test_ideal_dims_rank_nothing_from_degree_2n_minus_1(d, n, monkeypatch):
    # ann(phi) is generated in degree n, so degree n is the only degree ranked; on a lift
    # that is the block of C_1 on the X columns, a row per X column and a column per monomial
    # of degree n-1, and no piece of b_1 is cut
    phi = extra_phi(EXTRA[0]) if (d, n) == (4, 4) else grid_phi(d, n)
    s = Session(build_resolution(phi) if (d, n) == (4, 4) else grid_resolution(d, n), phi)
    degrees = ranked_degrees(monkeypatch)
    shapes = []
    rank_mod = Piece.rank_mod
    monkeypatch.setattr(Piece, "rank_mod", lambda self, p: shapes.append((self.nrows, self.ncols)) or rank_mod(self, p))
    assert ideal_dims(s) == comb(n + d - 1, d - 1) - s.hf(n)
    xs = sum(e.kind == "X" for _, e in s.res.bases[1])
    assert degrees == [] and shapes and set(shapes) == {(xs, comb(n - 1 + d - 1, d - 1))}
    assert certify_exactness(s) == []


@pytest.mark.parametrize("system", [f"{d}-{n}" for d, n in GRID] + list(EXTRA) + ["fractional"])
def test_ideal_dims_of_a_lift_is_the_rank_of_the_degree_n_piece_of_b1(system):
    # #Y + rank(C_1 on the X columns) against the exact rank of the whole degree-n piece
    if system == "fractional":
        phi = fractional_phi()
    else:
        phi = extra_phi(system) if system in EXTRA else grid_phi(*map(int, system.split("-")))
    res = build_resolution(phi)
    assert ideal_dims(Session(res, phi)) == graded_piece(res.matrix(1), phi.n, 0).rank_exact()


def test_ideal_dims_of_a_lift_with_two_equal_x_cofactor_columns_is_the_exact_smaller_rank(monkeypatch):
    # a changed lift whose C_1 repeats one X column in another: every column still
    # annihilates phi, but dim I_n is one short of the bound, so no prime pins it
    res = grid_resolution(4, 2)
    xs = [j for j, (_, e) in enumerate(res.bases[1]) if e.kind == "X"]
    c1 = dict(res.cofactors[0][0])
    c1[xs[0]] = dict(c1[xs[1]])
    bad = dataclasses.replace(res, cofactors=([c1], *res.cofactors[1:]))
    s = Session(bad, res.phi)
    assert s.b1_annihilation_failure is None
    calls = []
    rank_exact = Piece.rank_exact
    monkeypatch.setattr(Piece, "rank_exact", lambda self: calls.append(self) or rank_exact(self))
    want = graded_piece(bad.matrix(1), 2, 0).rank_exact()
    calls.clear()
    assert ideal_dims(s) == want == comb(5, 3) - s.hf(2) - 1 == 8
    assert len(calls) == 1 and calls[0].nrows == len(xs)
    s.complex_failure = None
    assert certify_exactness(s) == ["coker(b_1) has dimension 2 in degree 2, Hilbert function of the quotient gives 1"]


@pytest.mark.parametrize("d,n", GRID)
def test_ideal_dims_saturate_and_match_the_rref_oracle(d, n, monkeypatch):
    s = Session(grid_resolution(d, n), grid_phi(d, n))
    want = ideal_dims_by_rref(s.res, n)[n]

    def refuse(self):
        raise AssertionError("exact fallback used")

    monkeypatch.setattr(Piece, "rank_exact", refuse)
    assert ideal_dims(s) == want


def test_ideal_dims_with_fractional_coefficients():
    phi = fractional_phi()
    res = build_resolution(phi)
    assert denominator_lcm(res.matrix(1)) > 1
    s = Session(res, phi)
    assert ideal_dims(s) == ideal_dims_by_rref(res, 2)[2]
    assert certify_exactness(s) == []


LEMMA_CASES = {
    **{f"grid d={d} n={n}": (lambda d=d, n=n: grid_phi(d, n)) for d, n in GRID},
    **{f"d=4 n=4 seed={k}": (lambda k=k: random_invsys(4, 4, k)) for k in (1, 2, 3)},
    "fractional d=4 n=2": fractional_phi,
    "d=4 n=3 x1<->x4": lambda: swap_variables(grid_phi(4, 3), 1, 4),
}


@pytest.mark.parametrize("label", LEMMA_CASES)
def test_the_ideal_of_b1_is_ann_phi_in_every_degree(label):
    # the lemma of certify_exactness, against degree-by-degree rational elimination:
    # I = ann(phi) up to 2n, where I_e = S_e from 2n-1 on
    phi = LEMMA_CASES[label]()
    d, n = phi.d, phi.n
    s = Session(build_resolution(phi), phi)
    assert ideal_dims_by_rref(s.res, 2 * n) == {e: comb(e + d - 1, d - 1) - s.hf(e) for e in range(2 * n + 1)}


@pytest.mark.parametrize("c", [1, prod(PRIMES)], ids=["c=1", "c=prod(PRIMES)"])
def test_ideal_dims_of_a_column_that_does_not_annihilate_are_exact(c, monkeypatch):
    # c * x1^3 added to an X column, a term c * x1^2 of C_1 on a changed lift: I is no
    # longer in ann(phi), so dim S_3 - hf(3) bounds nothing and the X block of C_1 is
    # ranked exactly, with no piece of b_1 cut.  With c the product of the primes the
    # change vanishes mod every prime, so no mod-p rank could see it.
    res = grid_resolution(3, 3)
    bad = changed_lift(res, 1, lambda rows: add_to(rows, 0, 0, c, (2, 0, 0)))
    assert bad.matrix(1).entry(0, 0) == plus(res.matrix(1).entry(0, 0), (3, 0, 0), c)
    s = Session(bad, grid_phi(3, 3))
    assert s.b1_annihilation_failure == 0
    calls = []
    rank_exact = Piece.rank_exact
    monkeypatch.setattr(Piece, "rank_exact", lambda self: calls.append(self) or rank_exact(self))
    degrees = ranked_degrees(monkeypatch)
    assert ideal_dims(s) == ideal_dims_by_rref(bad, 3)[3]
    xs = sum(e.kind == "X" for _, e in res.bases[1])
    assert degrees == [] and len(calls) == 1 and calls[0].nrows == xs
    # with the facts before it taken as proved, the annihilation fact fails the certificate first
    s.complex_failure = None
    assert certify_exactness(s) == ["column 0 of b_1 does not annihilate phi, so I is not in ann(phi)"]


def test_ideal_dims_of_a_duplicated_column_fall_back_to_exact_rank(monkeypatch):
    # the columns still annihilate, but their span is one short of the bound; the
    # matrix form ranks the whole degree-n piece of b_1 (the lift's X block:
    # test_ideal_dims_of_a_lift_with_two_equal_x_cofactor_columns_is_the_exact_smaller_rank)
    res = grid_resolution(4, 2)
    s = MatrixSession(with_b1_column(res, 0, res.matrix(1).entry(0, 1)), grid_phi(4, 2))
    assert s.b1_annihilation_failure is None
    calls = []
    rank_exact = Piece.rank_exact
    monkeypatch.setattr(Piece, "rank_exact", lambda self: calls.append(self) or rank_exact(self))
    degrees = ranked_degrees(monkeypatch)
    assert s.ideal_dim_n == ideal_dims_by_rref(s.res, 2)[2] == 8
    assert degrees == [2] and calls
    s.complex_failure = None
    assert certify_exactness(s) == ["coker(b_1) has dimension 2 in degree 2, Hilbert function of the quotient gives 1"]


def test_exactness_without_a_compressed_hilbert_function_fails_the_lemma_hypothesis(monkeypatch):
    # phi = Y_1^[2n-2] has hf = [1, 1, 1]: hf(1) = 1 < dim S_1 puts a linear form in ann(phi),
    # which is then not generated in degree n.  The Hilbert function is compressed exactly when
    # delta != 0, and hilbert_function refuses delta = 0, so the lemma's hypothesis is never
    # tested by certify_exactness: it raises before it ranks anything
    phi = InverseSystem(4, 2, {(2, 0, 0, 0): Fraction(1)})
    assert [hf_value(phi, e) for e in range(3)] == [1, 1, 1]
    s = Session(grid_resolution(4, 2), phi)
    degrees = ranked_degrees(monkeypatch)
    ranked = []
    rank_mod = Piece.rank_mod
    monkeypatch.setattr(Piece, "rank_mod", lambda self, p: ranked.append(self) or rank_mod(self, p))
    with pytest.raises(InadmissibleSystemError, match="delta != 0"):
        certify_exactness(s)
    assert degrees == ranked == []


@pytest.mark.parametrize("d", [3, 4])
def test_exactness_refuses_delta_zero_before_it_reads_any_other_fact(d):
    # phi = Y_1^[2] has delta = 0.  certify_exactness reads the session's Hilbert function
    # first, so the refusal does not wait for the r = 2 step of the complex fact, which d = 3
    # does not have: there the annihilation verdict came first
    phi = InverseSystem(d, 2, {(2,) + (0,) * (d - 1): Fraction(1)})
    s = Session(grid_resolution(d, 2), phi)
    with pytest.raises(InadmissibleSystemError, match="delta != 0"):
        certify_exactness(s)
    assert not {"b1_degree_failure", "complex_failure", "b1_annihilation_failure", "ideal_dim_n"} & vars(s).keys()


@pytest.mark.parametrize("bump", [
    Poly.monomial((3, 0, 0, 0), 5),                 # a degree-n term that does not annihilate
    Poly.monomial((0, 0, 0, 0), Fraction(1, 3)),    # a constant contracts phi to a multiple of phi
    Poly.monomial((7, 0, 0, 0), 2),                 # beyond the socle degree: contracts to 0
    None,                                            # a second copy of the next column
], ids=["degree-n", "constant", "above-socle", "copy"])
def test_annihilation_fact_agrees_with_contract_poly(bump):
    # a (4, 3) system with denominators, so that the integer test clears both sides
    base = grid_phi(4, 3)
    phi = InverseSystem(4, 3, {m: c / (k % 5 + 1) for k, (m, c) in enumerate(sorted(base.coeffs.items()))})
    res = build_resolution(phi)
    cols = dense(res.matrix(1))[0]
    entry = cols[3] if bump is None else (Poly(4, cols[2]) + bump).terms
    bad = with_b1_column(res, 2, entry)
    nu = phi.coeffs
    want = next((j for j, g in enumerate(dense(bad.matrix(1))[0]) if contract_poly(g, nu)), None)
    assert want == (None if bump is None or bump.degree() > 4 else 2)
    assert MatrixSession(bad, phi).b1_annihilation_failure == want
    assert Session(res, phi).b1_annihilation_failure is None
