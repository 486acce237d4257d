"""Resolution construction: anchors, complex property, skeleton, duality, route agreement."""

import copy
import inspect
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from gorlin.differentials import (
    Resolution,
    Skeleton,
    build_resolution,
    canonical_skeleton,
    readout_tables,
    self_dual_bases,
    twist_list,
)
from gorlin.exactness import Session, skeleton_block_failure
from gorlin.export import resolution_json
from gorlin.hookbasis import BasisElement, duality_basis, pairing, xd, y0
from gorlin.invsys import (
    InadmissibleSystemError,
    InverseSystem,
    delta_and_Q,
    random_invsys,
)
from gorlin.monomials import div_var, monomials_of_degree, mul_var, unit
from gorlin.polynomials import poly_str
from gorlin.verify import run_checks

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
    resolution_at,
    same_entries,
    scaled,
    squares_resolution,
)
from oracles import (
    Plan,
    PlanContext,
    Poly,
    Sums,
    b1_column,
    br_column,
    br_column_alt,
    build_plan,
    coeff,
    contract_poly,
    evaluate_plan,
    matrices,
    matrix_form,
    plus,
    q_of,
    record_cells,
    route_disagreement,
    skeleton_matrices,
    tilde_contract,
    transpose,
    x1_split,
)


def test_b1_identity_catalecticant_columns():
    res = squares_resolution(3)
    cols = [poly_str(p) for p in dense(res.matrix(1))[0]]
    assert cols == ["x1*x2", "x1*x3", "-x1^2 + x2^2", "x2*x3", "-x1^2 + x3^2"]


@pytest.mark.parametrize("d,n", GRID)
def test_b1_columns_annihilate(d, n):
    phi = grid_phi(d, n)
    res = grid_resolution(d, n)
    for g in res.matrix(1).entries[0].values():
        assert contract_poly(g, phi.coeffs) == {}


def test_b1_mod_x1():
    phi = grid_phi(4, 2)
    res = grid_resolution(4, 2)
    for (s, e), p in zip(res.matrix(1).cols, dense(res.matrix(1))[0]):
        red = Poly(4, p).subs_x1_zero()
        if e.kind == "X":
            assert red.is_zero()
        else:
            assert red == Poly.monomial(mul_var(e.m, e.a[0]), res.delta * s)


@pytest.mark.parametrize("d,n", GRID)
def test_complex_property(d, n):
    res = grid_resolution(d, n)
    for r in range(1, d):
        prod = res.matrix(r).mul(res.matrix(r + 1))
        assert not any(prod), (d, n, r)


def _system(label):
    return extra_phi(label) if label in EXTRA else grid_phi(*map(int, label.split("-")))


@pytest.mark.parametrize("system", [f"{d}-{n}" for d, n in GRID] + list(EXTRA))
def test_dual_path_equality(system):
    # the large-rational EXTRA system has a nontrivial // scale in tq and W
    assert route_disagreement(build_resolution(_system(system))) is None, system


def test_route_disagreement_names_an_altered_cofactor():
    import copy

    res = matrix_form(grid_resolution(4, 2))
    res.matrix(3).set(2, 1, plus(res.matrix(3).entry(2, 1), mul_var(unit(4), 1)))
    assert route_disagreement(res) == (3, 2, 1)


def test_shapes_and_twists():
    assert grid_resolution(4, 2).betti == (1, 9, 16, 9, 1)
    assert grid_resolution(4, 2).twists == (0, 2, 3, 4, 6)
    assert grid_resolution(5, 2).betti == (1, 14, 35, 35, 14, 1)
    assert grid_resolution(5, 3).betti == (1, 30, 81, 81, 30, 1)
    assert twist_list(3, 2) == (0, 2, 3, 5)


def test_interior_columns_reduce_to_kos_blocks():
    # mod x1, interior matrices become delta times the canonical strands
    for d, n in [(3, 2), (4, 2), (4, 3)]:
        res = grid_resolution(d, n)
        expected = skeleton_matrices(d, n)
        for r in range(1, d + 1):
            assert same_entries(res.matrix(r).mod_x1(), scaled(expected[r - 1], res.delta)), (d, n, r)


def test_skeleton_block_assertion_and_content():
    res = grid_resolution(4, 2)
    for r in range(2, 4):
        mat = res.matrix(r).mod_x1()
        for i, (_, re) in enumerate(mat.rows):
            for j, (_, ce) in enumerate(mat.cols):
                if re.kind != ce.kind:
                    assert not mat.entry(i, j)


def test_skeleton_asserts_block_structure():
    import copy

    res = matrix_form(grid_resolution(4, 2))
    mat = res.matrix(2)
    # plant a mixed-kind term that survives mod x1
    i, (_, re) = 0, mat.rows.elements[0]
    j = next(j for j, (_, ce) in enumerate(mat.cols) if ce.kind != re.kind)
    mat.set(i, j, plus(mat.entry(i, j), (0, 1, 0, 0)))
    witness = skeleton_block_failure(res, tuple(x1_split(m) for m in matrices(res)))
    assert witness == f"skeleton of b_2 differs from the canonical strand form at ({i}, {j})"


def test_skeleton_depends_only_on_delta():
    phi1 = random_invsys(4, 2, seed=7)
    phi2 = random_invsys(4, 2, seed=8)
    r1 = build_resolution(phi1)
    r2 = build_resolution(phi2)
    ratio = Fraction(r1.delta) / r2.delta
    for r in range(1, 5):
        a = r1.matrix(r).mod_x1()
        b = scaled(r2.matrix(r).mod_x1(), ratio)
        assert same_entries(a, b)


def test_bd_transpose_of_b1_in_dual_bases():
    for d, n in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]:
        res = grid_resolution(d, n)
        assert transpose(dense(res.matrix(1))) == dense(res.matrix(d))


def test_bd_rows_vs_b1_on_identity_instance():
    # the last matrix, paired from b_1, is the first one transposed
    res = squares_resolution(3)
    assert transpose(dense(res.matrix(1))) == dense(res.matrix(3))


def closed_cofactor(phi, r):
    """C_r by the closed-form writers, as {(row element, column element): {monomial: value}}.

    The writers of the tests' oracle run on a PlanContext, and each term is
    evaluated key by key on the sums of the Catalecticant record, apart from
    record_cells and evaluate_plan.  No writer has C_d, which the build
    pairs from C_1: None at r = d.
    """
    d, n = phi.d, phi.n
    if r == d:
        return None
    ctx, cat = PlanContext(d, n), Sums(delta_and_Q(phi))
    if r == 1:
        cols = [(e, b1_column(ctx, e)) for _, e in duality_basis(d, n, 1)]
    else:
        cols = [(e, br_column(ctx, r, e)) for _, e in duality_basis(d, n, r)]
    # key index 0 is no key, and the signed key -k is minus the sum of key k
    values = [0] + [getattr(cat, name)(u, v) for name, u, v in ctx.keys]

    def value(k):
        return values[k] if k >= 0 else -values[-k]

    out = {}
    for e, contributions in cols:
        for t, m, sign, plus, minus in contributions:
            entry = out.setdefault((t, e), {})
            entry[m] = entry.get(m, 0) + Fraction(sign * (value(plus) - value(minus)), cat.denom)
    return out


def straightened_cofactor(phi, r):
    """C_r by the oracles, in the form of closed_cofactor.

    Inside it is br_column_alt on the Catalecticant record; at the ends the
    x1 cofactors of the paper's generators delta * mu - x1 * q(mu(lift)),
    q_of(nu) on a dual element nu of degree n-1, and their pairing partners.
    """
    d, n = phi.d, phi.n
    cat = delta_and_Q(phi)
    sums, full = Sums(cat), tuple(range(2, d + 1))
    if r == 1:
        return {(y0(d), e): (q_of(cat, {div_var(e.m, e.a[0]): 1}) if e.kind == "X"
                             else -q_of(cat, tilde_contract(phi, mul_var(e.m, e.a[0])))).terms
                for _, e in duality_basis(d, n, 1)}
    if r == d:
        out = {(BasisElement("X", d - 1, full, m), xd(d)): (-q_of(cat, tilde_contract(phi, m))).terms
               for m in monomials_of_degree(d, n, low_var=2)}
        out.update({(BasisElement("Y", d - 1, full, m), xd(d)): (-q_of(cat, {m: 1})).terms
                    for m in monomials_of_degree(d, n - 1, low_var=2)})
        return out
    return {(t, e): {unit(d): Fraction(c, cat.denom)}
            for _, e in duality_basis(d, n, r) for t, c in br_column_alt(sums, r, e).items()}


# the closed-form writers, and the oracles the built cofactors must agree with
ROUTES = {"closed": closed_cofactor, "straightening": straightened_cofactor}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("system", [f"{d}-{n}" for d, n in GRID] + list(EXTRA))
def test_matrices_are_the_lift_of_the_skeleton(system, route):
    # b_r = delta * S_r + x1 * C_r, C_r constant inside and of degree n-1 at both ends;
    # each C_r of the built matrices is compared, entry by entry, with the
    # closed-form writers evaluated term by term, and with the straightening
    # oracles; br_column writes the interior maps that the build pairs, so it
    # checks them too
    phi = _system(system)
    d, n = phi.d, phi.n
    res = build_resolution(phi)
    x1 = Poly.monomial(mul_var(unit(d), 1))
    for r, skel in enumerate(skeleton_matrices(d, n), 1):
        cof = ROUTES[route](phi, r)
        if cof is None:
            continue
        cdeg = n - 1 if r in (1, d) else 0
        mat = res.matrix(r)
        for i, (rs, re) in enumerate(mat.rows):
            for j, (cs, ce) in enumerate(mat.cols):
                c = Poly(d, {m: rs * cs * v for m, v in cof.get((re, ce), {}).items()})
                assert all(sum(m) == cdeg for m in c.terms), (r, i, j)
                rest = Poly(d, mat.entry(i, j)) - Poly(d, skel.entry(i, j)).scale(res.delta)
                assert all(m[0] >= 1 and sum(m) == cdeg + 1 for m in rest.terms), (r, i, j)
                assert rest == x1 * c, (r, i, j)


def test_the_skeleton_tables_keep_few_bytes_per_entry():
    # what canonical_skeleton keeps at (7, 2), its bases and pairings built first, under tracemalloc:
    # an (i, j, v, s) tuple of small ints takes 72 bytes and its slot in the map 8, and an index above
    # 256 is one int shared by the row.  81 bytes per interior entry were measured (Python 3.11),
    # against 345 for the term dicts of a PolyMatrix; the bound leaves room for the int objects
    import gc
    import tracemalloc

    canonical_skeleton(7, 2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = canonical_skeleton.__wrapped__(7, 2)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(map(len, tables.inner))
    assert entries == 2208
    assert kept / entries < 120, kept / entries


def test_a_second_build_reuses_the_readout_tables():
    first = build_resolution(random_invsys(4, 3, 40))
    before = readout_tables.cache_info()
    res = build_resolution(random_invsys(4, 3, 41))
    after = readout_tables.cache_info()
    # the build reads C_2 with them, and the record C_3..C_h, none at d = 4
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    # the record holds the lower half, C_1 and C_2; C_3 and C_4 are paired from them
    assert len(res.cofactors) == (4 + 1) // 2
    # every build writes entries of its own, so altering one leaves the other intact
    assert all(ra[j] is not rb[j] for a, b in zip(matrices(first), matrices(res))
               for ra, rb in zip(a.entries, b.entries) for j in ra.keys() & rb.keys())
    # a matrix is built from the lift on each request: an entry of a returned b_1 altered in
    # place leaves the lift, b_1 and b_4 (paired from b_1) and the dump unchanged
    b1, b4 = (copy.deepcopy(res.matrix(r).entries) for r in (1, 4))
    cofactors, text = copy.deepcopy(res.cofactors), resolution_json(res)
    next(iter(res.matrix(1).entries[0].values()))[(0, 1, 1, 1)] = 1
    mats = matrices(res)
    next(iter(mats[0].entries[0].values()))[(0, 1, 1, 1)] = 1
    for r, want in ((1, b1), (4, b4)):
        assert res.matrix(r).entries == want
    assert mats[3].entries == b4
    assert res.cofactors == cofactors and resolution_json(res) == text


def test_a_built_resolution_is_one_frozen_record_of_phi_delta_and_its_cofactors():
    # the bases, the twists and the skeleton are facts of (d, n), read from no field, so one
    # replace of delta changes every map: its terms free of x1 scale with delta.  delta = 0
    # is refused, as delta_and_Q refuses it before a build (the matrix form of a record with
    # delta = 0, which no lift holds: test_verify.py).  The record takes C_1 and C_2 and reads
    # the rest of its cofactors out, so no replace can hand it other interior cofactors, and no
    # attribute can be set, deleted or added after it is made
    res = resolution_at(4, 3)
    assert list(inspect.signature(Resolution).parameters) == ["phi", "delta", "c1", "c2"]
    assert res.cofactors[0] is res.c1 and res.cofactors[1] is res.c2
    for name in ("phi", "delta", "c1", "c2", "cofactors", "extra"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(res, name, getattr(res, name, None))
        with pytest.raises(AttributeError, match="read-only"):
            delattr(res, name)
    with pytest.raises(TypeError, match="cofactors"):
        res.replace(cofactors=res.cofactors)
    for same in (copy.copy(res), copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
        assert same.phi == res.phi and same.c1 == res.c1 and same.cofactors == res.cofactors
    assert res.bases == tuple(duality_basis(4, 3, r) for r in range(5)) and res.bases is self_dual_bases(4, 3)
    assert res.twists == twist_list(4, 3) == (0, 3, 4, 5, 8)
    assert any(not m[0] for mat in matrices(res) for _, _, p in mat.nonzero() for m in p)
    assert Session(res, res.phi)._interior_product_vanishes(2)
    double = res.replace(delta=2 * res.delta)
    assert double.cofactors == res.cofactors and double.c2 is res.c2
    for r in range(1, 5):
        want = [{j: {m: c if m[0] else 2 * c for m, c in p.items()} for j, p in row.items()}
                for row in res.matrix(r).entries]
        assert double.matrix(r).entries == want, r
    with pytest.raises(ValueError, match="delta != 0"):
        res.replace(delta=0)


def _fractional(phi):
    """phi with its coefficients divided by 1..7 in turn, so that its record has Fraction cofactors."""
    coeffs = sorted(phi.coeffs.items())
    return InverseSystem(phi.d, phi.n, {m: Fraction(c, k % 7 + 1) for k, (m, c) in enumerate(coeffs)})


@pytest.mark.parametrize("system", [f"{d}-{n}" for d, n in GRID if d >= 5]
                         + ["6-2", "7-2", "8-2", "5-4", "fractional 5-2"])
def test_a_record_reads_its_interior_cofactors_out_of_c2(system):
    # a record made from C_1 and C_2 alone holds C_3..C_h of the closed-form plan, C_h whole at odd d;
    # on Fraction cofactors it reads them in int numerators over one denominator, an int where integral
    d, n = map(int, system.split()[-1].split("-"))
    res = build_resolution(_fractional(resolution_at(d, n).phi)) if "fractional" in system else resolution_at(d, n)
    want = evaluate_plan(build_plan(d, n), Sums(delta_and_Q(res.phi)), self_dual_bases(d, n))
    record = Resolution(res.phi, res.delta, res.c1, res.c2)
    assert len(record.cofactors) == (d + 1) // 2 and record.cofactors == res.cofactors == want
    values = [c for rows in record.cofactors[1:] for row in rows for c in row.values()]
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in values)
    assert any(type(c) is Fraction for c in values) == ("fractional" in system)


@pytest.mark.parametrize("d,n,lam", [(5, 2, -2), (5, 2, Fraction(1, 3)), (7, 2, Fraction(-3, 2))])
def test_a_replace_of_c2_reads_the_chain_out_again(d, n, lam):
    # C_2 scaled by lambda: every readout is linear in C_2, so C_3..C_h scale by lambda
    res = resolution_at(d, n)
    scaled = res.replace(c2=[{j: lam * c for j, c in row.items()} for row in res.c2])
    assert scaled.c1 is res.c1 and len(scaled.cofactors) == len(res.cofactors) == (d + 1) // 2
    for got, was in zip(scaled.cofactors[2:], res.cofactors[2:]):
        assert got == [{j: lam * c for j, c in row.items()} for row in was]
        assert all(type(c) is int or c.denominator > 1 for row in got for c in row.values())


ODD_GRID = [(d, n) for d, n in GRID if d % 2]


@pytest.mark.parametrize("d,n", ODD_GRID + [(7, 2)])
def test_the_middle_map_of_odd_d_is_written_on_one_side(d, n):
    # b_h pairs with itself, h = (d+1)//2: P_{h-1} is the identity in the self-dual bases, so
    # C_h and S_h are symmetric when h-1 is even and antisymmetric when it is odd, with an
    # empty diagonal; the oracle's plan records the side i <= j, half of the cells br_column
    # writes, and the build reads the middle map out whole, which is its own mirror
    h = (d + 1) // 2
    e = (-1) ** (h - 1)
    bases = [duality_basis(d, n, r) for r in range(d + 1)]
    assert pairing(bases[h - 1], bases[h]) == tuple((i, 1) for i in range(len(bases[h])))
    cells = build_plan(d, n).cells[h - 1]
    assert all(i <= j for i, j, _m, _sign, _plus, _minus in cells)
    ctx = PlanContext(d, n)
    assert 2 * len(cells) == sum(len(br_column(ctx, h, elt)) for _, elt in bases[h])
    if (d, n) == (5, 2):
        assert len(cells) == 299
    res = resolution_at(d, n)
    cof, skel = res.cofactor(h), skeleton_matrices(d, n)[h - 1].entries
    assert any(cof) and any(skel)
    for rows, signed in ((cof, lambda v: e * v), (skel, lambda p: {m: e * c for m, c in p.items()})):
        assert all(i not in row for i, row in enumerate(rows))
        assert all(rows[j].get(i) == signed(v) for i, row in enumerate(rows) for j, v in row.items())


def test_a_written_diagonal_cell_on_an_antisymmetric_middle_map_is_refused(monkeypatch):
    # at d = 3 the middle map b_2 is antisymmetric; a writer of the oracle's plan that puts a cell
    # on its diagonal is refused, and a record whose middle map has one fails the duality check
    import oracles

    def writer(ctx, r, elt, rows=None, j=0):
        out = br_column(ctx, r, elt, rows, j)
        if rows is not None and j == 0:
            target = next(t for t, i in rows.items() if i == 0)
            out.append((target, unit(ctx.d), 1, 1, 0))
        return out

    monkeypatch.setattr(oracles, "br_column", writer)
    with pytest.raises(ValueError, match="diagonal cell on the antisymmetric middle map b_2"):
        build_plan.__wrapped__(3, 2)
    assert build_plan.__wrapped__(4, 2).cells  # no map of even d pairs with itself
    res = changed_lift(grid_resolution(3, 2), 2, lambda rows: add_to(rows, 0, 0, 1))
    s = Session(res, res.phi)
    assert s.duality_failure == (1, 0, 0)
    assert run_checks(res, res.phi).results[5].line() == "FAIL duality: pairing product rule fails [r=1, pair (0, 0)]"


def test_a_column_without_a_private_entry_is_an_internal_error(monkeypatch, capsys):
    # C_3 at d = 5 is read out of LP(2) through a private entry of every column of S_2; a skeleton
    # where column 1 shares every entry of column 0 leaves column 0 none, and the CLI exits 4
    from gorlin import cli, differentials

    skel = canonical_skeleton(5, 2)
    # column 0's term at x_v in row i replaces column 1's there, or joins its row
    shared = {(i, v): s for i, j, v, s in skel.inner[0] if j == 0}
    cells = [t for t in skel.inner[0] if not (t[1] == 1 and (t[0], t[2]) in shared)]
    cells += [(i, 1, v, s) for (i, v), s in shared.items()]
    tables = Skeleton(skel.u, (tuple(sorted(cells, key=lambda t: t[0])), *skel.inner[1:]))
    monkeypatch.setattr(differentials, "canonical_skeleton", lambda d, n: tables)
    monkeypatch.setattr(differentials, "readout_tables", readout_tables.__wrapped__)
    with pytest.raises(ValueError, match="column 0 of S_2 has no private entry at d=5, n=2"):
        readout_tables.__wrapped__(5, 2)
    assert cli.main(["verify", "--d", "5", "--n", "2", "--seed", "1"]) == cli.EXIT_INTERNAL_ERROR
    assert "no private entry" in capsys.readouterr().err


@pytest.mark.parametrize("d,n", GRID + [(4, 4), (6, 2), (7, 2), (8, 2)])
def test_every_column_of_an_interior_skeleton_map_has_a_private_entry(d, n):
    # column k of S_r, 2 <= r <= d // 2, has a term s x_v, s = +-1, in a row i where no other column
    # has x_v: the pivot that reads row k of C_{r+1} out of LP(r).  The build reads with those of
    # r < h, and a session checks LP(r) with all of them, at r = h of even d as well
    skel = skeleton_matrices(d, n)
    tables = readout_tables(d, n).interior
    assert len(tables) == max(d // 2 - 1, 0)
    for r, (pivots, _) in enumerate(tables, 2):
        entries = skel[r - 1].entries
        assert len(pivots) == skel[r - 1].shape[1]
        for k, (i, v, s) in enumerate(pivots):
            x_v = mul_var(unit(d), v)
            assert entries[i][k].get(x_v) == s and s in (1, -1), (r, k)
            assert [j for j, p in entries[i].items() if x_v in p] == [k], (r, k)


@pytest.mark.parametrize("system", [f"{d}-{n}" for d, n in GRID] + ["fractional", *EXTRA])
def test_the_readout_cofactors_equal_the_closed_form_plan(system):
    # C_1 written from Q and tq, and C_2 read out of N = 0, against the oracle's plan evaluated on
    # the same record, on the grid and on both fractional systems; every value is an int when it
    # is integral (polynomials.exact), and a Fraction only otherwise
    phi = fractional_phi() if system == "fractional" else _system(system)
    d, n = phi.d, phi.n
    res = build_resolution(phi)
    want = evaluate_plan(build_plan(d, n), Sums(delta_and_Q(phi)), self_dual_bases(d, n))
    assert res.cofactors[:2] == want[:2]
    values = [c for row in res.cofactors[0] for cof in row.values() for c in cof.values()]
    values += [c for row in res.cofactors[1] for c in row.values()]
    assert values and all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in values)
    if system in ("fractional", "d=4 n=3 large-rational"):
        assert any(type(c) is Fraction for c in values)


def test_a_matrix_handed_out_is_a_new_copy():
    # altering a matrix handed out leaves the lift, and every matrix built from it later, as built
    res = build_resolution(random_invsys(4, 3, 41))
    want = [dense(m) for m in matrices(res)]
    for mat in (res.matrix(2), matrices(res)[3]):
        mat.set(0, 0, {mul_var(unit(4), 1): 1})
    assert [dense(m) for m in matrices(res)] == want


def test_terms_yields_the_rows_of_each_map_and_pairs_a_cofactor_once(monkeypatch):
    # the dumps read b_r one row at a time; a cofactor past the middle is paired before the first row,
    # and at r = d the skeleton S_d as well, from S_1
    from gorlin import differentials

    res = grid_resolution(5, 3)
    want = [res.matrix(r).entries for r in range(1, 6)]
    calls = []

    def counted(*args):
        calls.append(args[1])
        return paired(*args)

    paired = differentials.paired
    monkeypatch.setattr(differentials, "paired", counted)
    for r in range(1, 6):
        assert list(res.terms(r)) == want[r - 1]
    assert calls == [4, 5, 5]


def test_plan_context_keys_each_sum_once():
    # Q and W are symmetric, so an unordered pair has one key; tq is not
    ctx = PlanContext(4, 2)
    u, v = (0, 1, 0, 0), (0, 0, 1, 0)
    assert ctx.Q(u, v) == ctx.Q(v, u) and ctx.W(u, v) == ctx.W(v, u)
    assert ctx.tq(u, v) != ctx.tq(v, u)
    assert len(ctx.keys) == 4
    q, t = ctx.Q(u, v), ctx.tq(u, v)
    assert (ctx.keys[q - 1], ctx.keys[t - 1]) == (("Q", v, u), ("tq", u, v))
    # record_cells keeps a term's signed keys and multiplies its sign by the row and column signs of
    # the bases (cs = -1 here); delta times the skeleton is the lift's other part
    bases = [duality_basis(3, 2, r) for r in range(3)]
    (s0, e0), (s1, e1) = bases[1].elements[:2]
    cs, _ = bases[2].elements[0]
    assert cs == -1
    one = unit(3)
    cells = record_cells(bases[1], bases[2], [[(e0, one, 1, t, -q), (e1, one, -1, q, 0)]]
                         + [[]] * (len(bases[2]) - 1))
    assert cells == ((0, 0, one, s0 * cs, t, -q), (1, 0, one, -s1 * cs, q, 0))


def test_evaluate_reads_a_cell_as_sign_times_plus_minus_minus_on_signed_keys():
    # two keys whose sums are 5 and 3 over the denominator 2; the signed key -k reads minus key k
    u, v = (0, 1, 0, 0), (0, 0, 1, 0)
    cat = SimpleNamespace(Q=lambda a, b: 5, tq=lambda a, b: 3, denom=2)
    one = unit(4)
    cells = ((0, 0, one, 1, 1, -1),   # plus = -minus doubles key 1: 2 * 5
             (0, 1, one, -1, 0, 2),   # no plus key: -(0 - 3)
             (1, 0, one, 1, 2, -1),   # a negative minus: 3 + 5
             (1, 1, one, -1, -2, 1),  # -(-3 - 5)
             (2, 0, one, 1, 1, 2))    # 5 - 3
    plan = Plan((("Q", u, v), ("tq", u, v)), ((), cells))
    _, c2 = evaluate_plan(plan, cat, self_dual_bases(4, 2))
    assert c2[:3] == [{0: 5, 1: Fraction(3, 2)}, {0: 4, 1: 4}, {0: 1}] and not any(c2[3:])
    # over(num, denom) gives an int when denom divides num, and a Fraction only otherwise
    assert [type(c2[0][j]) for j in (0, 1)] == [int, Fraction]


@pytest.mark.parametrize("d,n", [(3, 2), (4, 3), (5, 2), (6, 2)])
def test_writers_reach_each_term_once(d, n):
    # record_cells places the term a writer gives and does not add to it
    ctx = PlanContext(d, n)
    columns = [b1_column(ctx, e) for _, e in duality_basis(d, n, 1)]
    columns += [br_column(ctx, r, e) for r in range(2, d) for _, e in duality_basis(d, n, r)]
    for col in columns:
        assert len({(t, m) for t, m, *_ in col}) == len(col)
        assert all(plus != minus and sign in (1, -1) for _, _, sign, plus, minus in col)


def test_column_input_validation():
    ctx = PlanContext(4, 2)
    xelt = BasisElement("X", 2, (2, 3), (0, 2, 0, 0))
    yelt = BasisElement("Y", 2, (2, 3), (0, 1, 0, 0))
    assert br_column(ctx, 2, xelt) and br_column(ctx, 2, yelt)
    bad = [(3, xelt), (3, yelt),  # r is not the degree of the generator
           (1, BasisElement("Y", 1, (2,), (0, 1, 0, 0))), (4, xd(4))]  # r outside 2..d-1
    for r, elt in bad:
        with pytest.raises(ValueError):
            br_column(ctx, r, elt)


def test_inadmissible_refused():
    zero = InverseSystem(3, 2, {})
    with pytest.raises(InadmissibleSystemError):
        build_resolution(zero)
    rank_deficient = InverseSystem(3, 2, {(2, 0, 0): Fraction(1)})
    with pytest.raises(InadmissibleSystemError):
        build_resolution(rank_deficient)


def test_selfdual_is_the_only_basis_family():
    phi = grid_phi(3, 2)
    assert build_resolution(phi, "selfdual").bases == grid_resolution(3, 2).bases
    with pytest.raises(ValueError, match="standard"):
        build_resolution(phi, "standard")


def test_d6_generality():
    # longer index lists exercise every straightening branch
    phi = random_invsys(6, 2, seed=21)
    res = build_resolution(phi)
    assert res.betti == (1, 20, 64, 90, 64, 20, 1)
    for r in range(1, 6):
        prod = res.matrix(r).mul(res.matrix(r + 1))
        assert not any(prod), r
    assert route_disagreement(res) is None
    assert transpose(dense(res.matrix(1))) == dense(res.matrix(6))


def test_deterministic_generation_anchor():
    # frozen values pin the seeded generator and the whole exact pipeline
    phi = random_invsys(3, 2, seed=1)
    assert build_resolution(phi).delta == Fraction(-75)
    assert coeff(random_invsys(4, 2, seed=7), (0, 2, 0, 0)) == Fraction(4)
    assert build_resolution(random_invsys(4, 2, seed=7)).delta == Fraction(-164)
