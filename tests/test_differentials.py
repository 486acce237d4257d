"""Resolution construction: anchors, complex property, skeleton, duality, route agreement."""

import copy
from fractions import Fraction

import pytest

from gorlin.differentials import (
    BuildContext,
    PlanContext,
    Resolution,
    _pairs,
    _record,
    b1_column,
    br_column,
    build_plan,
    build_resolution,
    canonical_skeleton,
    twist_list,
)
from gorlin.exactness import skeleton_block_failure, x1_split
from gorlin.export import resolution_json
from gorlin.hookbasis import BasisElement, duality_basis, xd, y0
from gorlin.invsys import (
    InadmissibleSystemError,
    InverseSystem,
    contract_poly,
    delta_and_Q,
    random_invsys,
)
from gorlin.monomials import div_var, monomials_of_degree, mul_var, unit
from gorlin.linalg import transpose
from gorlin.polynomials import Poly, poly_str

from conftest import (
    EXTRA,
    GRID,
    dense,
    extra_phi,
    grid_phi,
    grid_resolution,
    matrix_form,
    same_entries,
    scaled,
    squares_resolution,
)
from oracles import br_column_alt, q_of, route_disagreement, tilde_contract


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
        red = p.subs_x1_zero()
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
    res.matrix(3).set(2, 1, res.matrix(3).entry(2, 1) + Poly.monomial(mul_var(unit(4), 1)))
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
        expected = canonical_skeleton(d, n)
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
    mat.set(i, j, mat.entry(i, j) + Poly.monomial((0, 1, 0, 0)))
    witness = skeleton_block_failure(res, tuple(x1_split(m) for m in res.matrices))
    assert witness == f"skeleton of b_2 differs from the canonical strand form at ({i}, {j})"


def test_skeleton_depends_only_on_delta():
    phi1 = random_invsys(4, 2, seed=7)
    phi2 = random_invsys(4, 2, seed=8)
    r1 = build_resolution(phi1)
    r2 = build_resolution(phi2)
    ratio = r1.delta / r2.delta
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

    The writers run on a PlanContext, and each term is evaluated key by key
    on the numeric BuildContext, apart from _record and _evaluate.  No
    writer has C_d, which the build pairs from C_1: None at r = d.
    """
    d, n = phi.d, phi.n
    if r == d:
        return None
    ctx, num = PlanContext(d, n), BuildContext(phi, delta_and_Q(phi))
    if r == 1:
        cols = [(e, b1_column(ctx, e)) for _, e in duality_basis(d, n, 1)]
    else:
        cols = [(e, br_column(ctx, r, e)) for _, e in duality_basis(d, n, r)]
    values = [num.delta] + [getattr(num, name)(u, v) for name, u, v in ctx.keys]
    out = {}
    for e, contributions in cols:
        for t, m, pairs in contributions:
            entry = out.setdefault((t, e), {})
            entry[m] = entry.get(m, 0) + Fraction(sum(c * values[k] for c, k in pairs), num.denom)
    return out


def straightened_cofactor(phi, r):
    """C_r by the oracles, in the form of closed_cofactor.

    Inside it is br_column_alt on the numeric BuildContext; at the ends the
    x1 cofactors of the paper's generators delta * mu - x1 * q(mu(lift)),
    q_of(nu) on a dual element nu of degree n-1, and their pairing partners.
    """
    d, n = phi.d, phi.n
    cat = delta_and_Q(phi)
    full = tuple(range(2, d + 1))
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
    num = BuildContext(phi, cat)
    return {(t, e): {unit(d): Fraction(c, num.denom)}
            for _, e in duality_basis(d, n, r) for t, c in br_column_alt(num, r, e).items()}


# the closed-form writers, and the oracles the evaluated plan must agree with
ROUTES = {"closed": closed_cofactor, "straightening": straightened_cofactor}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("system", [f"{d}-{n}" for d, n in GRID] + list(EXTRA))
def test_matrices_are_the_lift_of_the_skeleton(system, route):
    # b_r = delta * S_r + x1 * C_r, C_r constant inside and of degree n-1 at both ends;
    # each C_r of the built matrices is compared, entry by entry, with the
    # writers evaluated term by term, and with the oracles; br_column still
    # writes the interior maps that the build pairs, so it checks them too
    phi = _system(system)
    d, n = phi.d, phi.n
    res = build_resolution(phi)
    x1 = Poly.monomial(mul_var(unit(d), 1))
    for r, skel in enumerate(canonical_skeleton(d, n), 1):
        cof = ROUTES[route](phi, r)
        if cof is None:
            continue
        cdeg = n - 1 if r in (1, d) else 0
        mat = res.matrix(r)
        for i, (rs, re) in enumerate(mat.rows):
            for j, (cs, ce) in enumerate(mat.cols):
                c = Poly(d, {m: rs * cs * v for m, v in cof.get((re, ce), {}).items()})
                assert all(sum(m) == cdeg for m in c.terms), (r, i, j)
                rest = mat.entry(i, j) - skel.entry(i, j).scale(res.delta)
                assert all(m[0] >= 1 and sum(m) == cdeg + 1 for m in rest.terms), (r, i, j)
                assert rest == x1 * c, (r, i, j)


def test_a_second_build_reuses_the_plan():
    first = build_resolution(random_invsys(4, 3, 40))
    before = build_plan.cache_info()
    res = build_resolution(random_invsys(4, 3, 41))
    after = build_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # the plan holds the lower half, b_1 and b_2; b_3 and b_4 are paired from them
    assert len(build_plan(4, 3).cells) == (4 + 1) // 2
    # every build writes entries of its own, so altering one leaves the other intact
    assert all(ra[j] is not rb[j] for a, b in zip(first.matrices, res.matrices)
               for ra, rb in zip(a.entries, b.entries) for j in ra.keys() & rb.keys())
    # a matrix is built from the lift on each request: an entry of a returned b_1 altered in
    # place leaves the lift, b_1 and b_4 (paired from b_1) and the dump unchanged
    b1, b4 = ([{j: dict(p.terms) for j, p in row.items()} for row in res.matrix(r).entries] for r in (1, 4))
    cofactors, text = copy.deepcopy(res.lift.cofactors), resolution_json(res)
    next(iter(res.matrix(1).entries[0].values())).add_term((0, 1, 1, 1), 1)
    mats = res.matrices
    next(iter(mats[0].entries[0].values())).add_term((0, 1, 1, 1), 1)
    for r, want in ((1, b1), (4, b4)):
        assert [{j: dict(p.terms) for j, p in row.items()} for row in res.matrix(r).entries] == want
    assert [{j: dict(p.terms) for j, p in row.items()} for row in mats[3].entries] == b4
    assert res.lift.cofactors == cofactors and resolution_json(res) == text


def test_a_built_matrix_cannot_be_set():
    res = build_resolution(random_invsys(4, 3, 41))
    for mat in (res.matrix(2), res.matrices[3]):
        with pytest.raises(TypeError, match="from_matrices"):
            mat.set(0, 0, Poly.monomial(mul_var(unit(4), 1)))
    # the matrix form keeps its matrices, which a caller may alter
    form = Resolution.from_matrices(res.phi, res.delta, res.bases, res.matrices, res.twists)
    form.matrix(2).set(0, 0, Poly.monomial(mul_var(unit(4), 1)))
    assert form.matrix(2).entry(0, 0) == Poly.monomial(mul_var(unit(4), 1)) and form.lift is None


def test_plan_context_keys_each_sum_once():
    # Q and W are symmetric, so an unordered pair has one key; tq is not
    ctx = PlanContext(4, 2)
    u, v = (0, 1, 0, 0), (0, 0, 1, 0)
    assert ctx.Q(u, v) == ctx.Q(v, u) and ctx.W(u, v) == ctx.W(v, u)
    assert ctx.tq(u, v) != ctx.tq(v, u)
    assert len(ctx.keys) == 4
    q, t = ctx.Q(u, v), ctx.tq(u, v)
    assert (ctx.keys[q - 1], ctx.keys[t - 1]) == (("Q", v, u), ("tq", u, v))
    # sign * (plus - minus) on signed keys, as (coefficient, key index) pairs
    assert _pairs(1, t, -q) == ((1, t), (1, q)) and _pairs(-1, -t) == ((1, t),)
    assert _pairs(1, 0, t) == ((-1, t),) and _pairs(-1, t, -t) == ((-2, t),)
    # _record signs each term by the bases; delta times the skeleton is the lift's other part
    bases = [duality_basis(3, 2, r) for r in range(3)]
    (s0, e0), (s1, e1) = bases[1].elements[:2]
    cs, _ = bases[2].elements[0]
    one = unit(3)
    cells = _record(bases[1], bases[2], [[(e0, one, _pairs(1, t, -q)), (e1, one, _pairs(-1, q))]]
                    + [[]] * (len(bases[2]) - 1))
    assert cells == tuple((i, 0, one, tuple((s * cs * c, k) for c, k in pairs))
                          for i, s, pairs in ((0, s0, ((1, t), (1, q))), (1, s1, ((-1, q),))))


@pytest.mark.parametrize("d,n", [(3, 2), (4, 3), (5, 2), (6, 2)])
def test_writers_reach_each_term_once(d, n):
    # _record places the term a writer gives and does not add to it
    ctx = PlanContext(d, n)
    columns = [b1_column(ctx, e) for _, e in duality_basis(d, n, 1)]
    columns += [br_column(ctx, r, e) for r in range(2, d) for _, e in duality_basis(d, n, r)]
    for col in columns:
        assert len({(t, m) for t, m, _ in col}) == len(col)
        assert all(pairs and len({k for _, k in pairs}) == len(pairs) for _, _, pairs in col)


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
    assert random_invsys(4, 2, seed=7).t((0, 2, 0, 0)) == Fraction(4)
    assert build_resolution(random_invsys(4, 2, seed=7)).delta == Fraction(-164)
