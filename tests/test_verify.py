"""The check suite: passes on good instances, fails with witnesses on broken ones."""

import dataclasses
import sys
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, Phase, assume, given, seed, settings, strategies as st

from gorlin.differentials import build_resolution, canonical_skeleton
from gorlin.exactness import (
    Session,
    certify_exactness,
    first_nonzero_product,
    ideal_dims,
    rank_mod_p,
)
from gorlin.hookbasis import OrderedBasis
from gorlin.invsys import InadmissibleSystemError, InverseSystem, hf_value, random_invsys
from gorlin.linalg import det_and_adjugate
from gorlin.monomials import monomials_of_degree, mul_var, unit
from gorlin.polymatrix import PolyMatrix
from gorlin.polynomials import poly_str
from gorlin.verify import (
    check_ann_match,
    check_betti_and_degrees,
    check_complex,
    check_duality,
    check_euler_hilbert,
    check_skeleton,
    check_wlp,
    run_checks,
)

from conftest import (
    EXTRA,
    GRID,
    add_to,
    changed,
    changed_form,
    changed_lift,
    constant,
    extra_phi,
    dense,
    fractional_phi,
    grid_phi,
    grid_resolution,
    resolution_at,
    same_entries,
    squares_phi,
    squares_resolution,
    swap_variables,
)
from oracles import (
    MatrixSession,
    Poly,
    catalecticant_matrix,
    certify_exactness_direct,
    golden_skeleton_d4_n2,
    lift_fact_failure,
    linear_part_vanishes,
    matrices,
    matrix_check,
    matrix_form,
    matrix_report,
    plus,
    route_disagreement,
    rref_by_fractions,
    skeleton_matrices,
    wlp_by_rank,
)


def perturbed(res, r=2, i=0, j=0, bump=None):
    """A matrix-form copy of res with the Poly bump added to entry (i, j) of b_r, a state that no lift need hold."""
    bad = matrix_form(res)
    d = res.d
    bump = bump if bump is not None else constant(d, 1)
    bad.matrix(r).set(i, j, (Poly(d, bad.matrix(r).entry(i, j)) + bump).terms)
    return bad


def with_delta_zero(lift):
    """The matrix form of lift with delta = 0, b_r = x1 C_r: a record that no lift holds, as Resolution refuses it."""
    form = matrix_form(lift)
    x1_parts = tuple(PolyMatrix(mat.rows, mat.cols, [
        {j: part for j, p in row.items() if (part := {m: c for m, c in p.items() if m[0]})} for row in mat.entries])
        for mat in form.matrices)
    return dataclasses.replace(form, delta=0, matrices=x1_parts)


def x1_power(d, e):
    return Poly.monomial(tuple(e if k == 0 else 0 for k in range(d)))


def test_all_checks_pass_d3_squares():
    phi = squares_phi(3)
    res = squares_resolution(3)
    report = run_checks(res, phi)
    assert report.passed, report.to_text()


def test_all_checks_pass_d4_random():
    phi = grid_phi(4, 2)
    res = grid_resolution(4, 2)
    report = run_checks(res, phi)
    assert report.passed, report.to_text()
    assert tuple(dense(m) for m in skeleton_matrices(4, 2)) == golden_skeleton_d4_n2()


def test_check_complex_witness():
    # x1 more at entry (1, 2) of b_2: the lift's C_2 changes there, and C_3 with it
    res = grid_resolution(4, 2)
    bad = changed_lift(res, 2, lambda rows: add_to(rows, 1, 2, 1))
    assert bad.matrix(2).entry(1, 2) == plus(res.matrix(2).entry(1, 2), mul_var(unit(4), 1))
    out = check_complex(Session(bad, bad.phi))
    assert not out.passed
    assert out.witness == "b_1 b_2 at (0, 2) = -24*x1^3 - 38*x1^2*x2 - 36*x1^2*x3 - 16*x1^2*x4"


def complex_witness(res):
    """The witness check_complex prints for the first nonzero product over all matrices."""
    r, i, j, p = first_nonzero_product(dict(enumerate(matrices(res), 1)))
    return f"b_{r} b_{r + 1} at ({i}, {j}) = {poly_str(p)}"


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (5, 2)])
def test_complex_check_multiplies_past_the_middle_when_duality_fails(d, n):
    # a bump in b_d alone breaks the pairing rule at r = 0, a state no lift
    # holds, and makes only b_{d-1} b_d nonzero, a product past the middle
    res = grid_resolution(d, n)
    bad = perturbed(res, r=d, i=0, j=0, bump=x1_power(d, n))
    assert MatrixSession(bad, bad.phi).duality_failure[0] == 0
    assert first_nonzero_product(dict(enumerate(matrices(bad), 1)))[0] == d - 1
    (out,) = matrix_report(MatrixSession(bad, bad.phi), ["complex"]).results
    assert not out.passed and out.witness == complex_witness(bad)


def test_complex_check_finds_a_self_dual_defect_before_the_middle():
    # x1^2 more in b_1, a term x1 more of C_1: the lift pairs it into b_d, so
    # the pairing rule still holds (proved on the matrices), b_1 b_2 and its
    # mirror b_3 b_4 are both nonzero, and the first is the witness
    res = grid_resolution(4, 2)
    dual = changed_lift(res, 1, lambda rows: add_to(rows, 0, 0, 1, mul_var(unit(4), 1)))
    assert Poly(4, dual.matrix(1).entry(0, 0)) == Poly(4, res.matrix(1).entry(0, 0)) + x1_power(4, 2)
    assert MatrixSession(matrix_form(dual), res.phi).duality_failure is None
    s = Session(dual, res.phi)
    assert s.complex_failure[0] == 1
    assert any(dual.matrix(3).mul(dual.matrix(4)))
    (out,) = run_checks(dual, res.phi, checks=["complex"]).results
    assert not out.passed and out.witness == complex_witness(dual)


def _counting_products(monkeypatch, res):
    """Count the products b_r b_{r+1} of res that PolyMatrix.mul forms, by "b_r b_{r+1}".

    A product is known by the bases of its factors, as a built resolution
    hands out a new matrix on each request.
    """
    counts = Counter()
    mul = PolyMatrix.mul

    def counting_mul(self, other):
        for r in range(1, res.d):
            if self.rows is res.bases[r - 1] and other.rows is res.bases[r] and other.cols is res.bases[r + 1]:
                counts[f"b_{r} b_{r + 1}"] += 1
        return mul(self, other)

    monkeypatch.setattr(PolyMatrix, "mul", counting_mul)
    return counts


def _entry_of_kind(res, r, kind):
    """The first (i, j) of b_r whose row and column elements are both of the kind, and nonzero."""
    mat = res.matrix(r)
    return next((i, j) for i, (_, re) in enumerate(mat.rows) for j, (_, ce) in enumerate(mat.cols)
                if re.kind == ce.kind == kind and mat.entry(i, j))


@pytest.mark.parametrize("bump", ["3*x1", "x1*x2"])
@pytest.mark.parametrize("d,n,r,kind", [(4, 2, 3, "Y"), (5, 2, 3, "X"), (5, 3, 3, "Y"), (4, 3, 3, "X"), (5, 2, 4, "Y"),
                                        (6, 2, 3, "Y"), (6, 2, 4, "X")])
def test_complex_check_on_a_changed_x1_cofactor(monkeypatch, d, n, r, kind, bump):
    # only the terms with x1 of b_r change, for an r >= 3 that leaves b_1 b_2
    # zero, and not those of its partner, so no lift holds it: the skeleton still
    # holds, and the linear part of an interior product does not vanish (3*x1)
    # or is not read at all (x1*x2, not a multiple of x1 alone); that product is
    # multiplied out for the witness of the full product.  At (6, 2) and r = 4
    # the witness is b_3 b_4, the first product that the r >= 3 step of the
    # induction takes up
    res = resolution_at(d, n)
    i, j = _entry_of_kind(res, r, kind)
    x1 = x1_power(d, 1)
    x1x2 = x1 * Poly.monomial(mul_var(unit(d), 2))
    bad = perturbed(res, r=r, i=i, j=j, bump=x1.scale(3) if bump == "3*x1" else x1x2)
    s = MatrixSession(bad, bad.phi)
    assert s.skeleton_failure is None
    counts = _counting_products(monkeypatch, bad)
    want = first_nonzero_product(dict(enumerate(matrices(bad), 1)))
    assert want is not None and 2 <= want[0] <= d - 2
    assert s.complex_failure == want
    k = want[0]
    assert counts[f"b_{k} b_{k + 1}"] == 2  # once in the full product above, once as the fallback
    (out,) = matrix_report(MatrixSession(bad, bad.phi), ["complex"]).results
    assert not out.passed and out.witness == complex_witness(bad)


@pytest.mark.parametrize("d,n,r", [(4, 2, 3), (5, 2, 3), (5, 3, 3), (5, 2, 4)])
def test_complex_check_on_a_changed_skeleton_term(monkeypatch, d, n, r):
    # only the skeleton part of b_r changes: the skeleton fact fails, so the
    # fast path falls back and every product up to the witness, which lies
    # at an interior r, is multiplied out; the witness is that of the full product
    res = grid_resolution(d, n)
    i, j = _entry_of_kind(res, r, "Y")
    (m, c), = Poly(d, res.matrix(r).entry(i, j)).subs_x1_zero().terms.items()
    bad = perturbed(res, r=r, i=i, j=j, bump=Poly.monomial(m, -2 * c))
    s = MatrixSession(bad, bad.phi)
    assert s.skeleton_failure is not None
    assert all(same_entries(bad.matrix(k), res.matrix(k)) or k == r for k in range(1, d + 1))
    counts = _counting_products(monkeypatch, bad)
    want = first_nonzero_product(dict(enumerate(matrices(bad), 1)))
    assert want is not None and 2 <= want[0] <= d - 2
    assert s.complex_failure == want
    assert set(counts) == {f"b_{k} b_{k + 1}" for k in range(1, want[0] + 1)}
    (out,) = matrix_report(MatrixSession(bad, bad.phi), ["complex"]).results
    assert not out.passed and out.witness == complex_witness(bad)


def test_complex_check_reads_only_multiples_of_x1_as_the_cofactor():
    # every c*x1 of b_2 becomes c*x1*x2 and every c*x1 of b_3 becomes c*x1*x3:
    # the skeleton still holds and neither matrix has a term c*x1 left, but
    # b_2 b_3 is not zero, so the split must not prove it
    res = grid_resolution(4, 2)
    bad = matrix_form(res)
    x1 = x1_power(4, 1)
    (m1,) = x1.terms
    for r, v in ((2, 2), (3, 3)):
        x1xv = x1 * Poly.monomial(mul_var(unit(4), v))
        mat = bad.matrix(r)
        for i, j, p in list(mat.nonzero()):
            if m1 in p:
                mat.set(i, j, (Poly(4, p) - x1.scale(p[m1]) + x1xv.scale(p[m1])).terms)
    s = MatrixSession(bad, bad.phi)
    assert s.skeleton_failure is None
    assert not s._interior_product_vanishes(2)
    assert first_nonzero_product({2: bad.matrix(2), 3: bad.matrix(3)}) is not None
    assert s.complex_failure == first_nonzero_product(dict(enumerate(matrices(bad), 1)))


def test_complex_check_proves_the_interior_products_without_multiplying(monkeypatch):
    # (6, 2) has two interior products below the middle, the large-rational (4, 3) system
    # has Fraction cofactors, (4, 4) has its one interior product at r = 2 = h, checked
    # against the pairing transpose of C_2, and (8, 2) has three, the last at r = h
    for res in (resolution_at(6, 2), build_resolution(extra_phi(EXTRA[1])), resolution_at(4, 4),
                resolution_at(8, 2)):
        counts = _counting_products(monkeypatch, res)
        assert Session(res, res.phi).complex_failure is None
        assert counts == Counter({"b_1 b_2": 1})
        monkeypatch.undo()


@pytest.mark.parametrize("d,n", [(5, 2), (6, 2), (7, 2), (8, 2), (4, 4)])
def test_a_session_reads_out_only_the_middle_product_of_even_d(monkeypatch, d, n):
    # a record reads C_3..C_h out of C_2, so LP(r) holds by construction below the middle, and
    # a session reads out one cofactor, C_h at r = h of even d, to compare with the paired C_{h+1}
    from gorlin import exactness

    res, calls = resolution_at(d, n), []
    read_out = exactness.read_out
    monkeypatch.setattr(exactness, "read_out", lambda rows, *tables: calls.append(rows) or read_out(rows, *tables))
    assert Session(res, res.phi).complex_failure is None
    assert calls == ([res.cofactor(d // 2)] if d % 2 == 0 else [])


def test_complex_check_multiplies_b2_b3_when_the_b1_columns_are_not_known_independent(monkeypatch):
    # the r = 2 step of the induction needs dim I_n = beta_1; one short of it,
    # b_2 b_3 is multiplied out, and it is still zero
    res = grid_resolution(4, 2)
    s = Session(res, res.phi)
    s.ideal_dim_n = res.betti[1] - 1
    counts = _counting_products(monkeypatch, res)
    assert s.complex_failure is None
    assert counts == Counter({"b_1 b_2": 1, "b_2 b_3": 1})


@pytest.mark.parametrize("premise", ["degree", "annihilation", "hf(n)", "hf(n+1)"])
def test_complex_check_multiplies_b2_b3_when_a_fact_of_the_ideal_fails(monkeypatch, premise):
    # the r = 2 step of the induction needs I = J = S J_n and beta_2 linear syzygies of b_1 (the
    # test above fails its dim I_n = beta_1): every column of degree n, every column annihilating
    # phi, dim I_n = dim S_n - hf(n), and beta_1 d - dim J_{n+1} = beta_2.  With any one failed,
    # b_2 b_3 is multiplied out, and it is still zero
    res = grid_resolution(4, 2)
    s = Session(res, res.phi)
    n = res.n
    if premise == "degree":
        s.b1_degree_failure = (0, n + 1)
    elif premise == "annihilation":
        s.b1_annihilation_failure = 0
    else:
        e, hf = (n if premise == "hf(n)" else n + 1), s.hf
        s.hf = lambda k: hf(k) + (k == e)
    counts = _counting_products(monkeypatch, res)
    assert s.complex_failure is None
    assert counts == Counter({"b_1 b_2": 1, "b_2 b_3": 1})


@pytest.mark.parametrize("d,n", [(5, 2), (6, 2), (7, 2), (5, 3)])
def test_complex_check_compares_a_changed_c3_with_its_readout(monkeypatch, d, n):
    # one entry of C_3 gains 1, so b_1 b_2 stays zero and b_2 b_3 is the first nonzero product
    # (at d = 5, C_3 is the self-paired middle map, and the pairing rule fails as well): a record
    # reads C_3 out of C_2, so only the matrix form holds this, and its r = 2 step compares C_3
    # with the readout of C_2, fails, and multiplies b_2 b_3 for the witness of the full product
    bad = changed_form(resolution_at(d, n), 3, lambda rows: add_to(rows, 0, 0, 1))
    want = first_nonzero_product(dict(enumerate(matrices(bad), 1)))
    assert want[0] == 2
    verdicts = []
    vanishes = MatrixSession._interior_product_vanishes

    def recording(self, r):
        verdicts.append((r, vanishes(self, r)))
        return verdicts[-1][1]

    monkeypatch.setattr(MatrixSession, "_interior_product_vanishes", recording)
    counts = _counting_products(monkeypatch, bad)
    assert MatrixSession(bad, bad.phi).complex_failure == want
    assert verdicts == [(2, False)]
    assert counts == Counter({"b_1 b_2": 1, "b_2 b_3": 1})
    (out,) = matrix_report(MatrixSession(bad, bad.phi), ["complex"]).results
    assert not out.passed and out.witness == complex_witness(bad)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_readout_verdict_agrees_with_the_linear_part_on_changed_lifts(data):
    # one entry of C_r, 3 <= r <= h, gains c in the matrix form (no record holds it), so
    # b_{r-1} b_r is the first nonzero product: at every r' from 2 to r - 1, the verdict of the
    # matrix route, the readout of C_{r'} against C_{r'+1}, is that of the linear part multiplied
    # out (oracles.linear_part_vanishes), False at r' = r - 1 alone
    d, n = data.draw(st.sampled_from([(5, 2), (6, 2), (7, 2), (5, 3)]), label="(d, n)")
    res = resolution_at(d, n)
    r = data.draw(st.integers(3, (d + 1) // 2), label="r")
    i = data.draw(st.integers(0, len(res.bases[r - 1]) - 1), label="row")
    j = data.draw(st.integers(0, len(res.bases[r]) - 1), label="column")
    c = data.draw(st.sampled_from([-2, -1, 1, Fraction(1, 3)]), label="c")
    bad = changed_form(res, r, lambda rows: add_to(rows, i, j, c))
    s, skel = MatrixSession(bad, bad.phi), skeleton_matrices(d, n)
    assert first_nonzero_product(dict(enumerate(matrices(bad), 1)))[0] == r - 1
    for k in range(2, r):
        want = linear_part_vanishes(skel[k - 1].entries, s.cofactor(k), skel[k].entries, s.cofactor(k + 1),
                                    skel[k].shape[1])
        assert want == (k < r - 1)
        assert s._interior_product_vanishes(k) == want, k


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_complex_fact_agrees_with_the_full_product_on_changed_cofactors(data):
    # a changed lift: one entry of an interior C_r gains c, or the whole C_r is
    # scaled by lambda != 1, and C_{d+1-r} follows by the pairing rule; whatever
    # the induction proves zero must be zero, so the witness is that of the full
    # product.  A record re-reads C_3..C_h out of a changed C_2; a changed C_r,
    # r >= 3, is held by the matrix form alone
    d, n = data.draw(st.sampled_from([(4, 2), (5, 2), (6, 2)]), label="(d, n)")
    res = resolution_at(d, n)
    if data.draw(st.booleans(), label="scale C_r"):
        # scaling keeps the self-paired middle map of odd d its own transpose
        r = data.draw(st.integers(2, (d + 1) // 2), label="r")
        lam = data.draw(st.sampled_from([0, -1, 2, Fraction(1, 3)]), label="lambda")

        def edit(rows):
            rows[:] = [{j: lam * c for j, c in row.items()} if lam else {} for row in rows]
    else:
        r = data.draw(st.integers(2, d // 2), label="r")  # not the self-paired middle map
        i = data.draw(st.integers(0, len(res.bases[r - 1]) - 1), label="row")
        j = data.draw(st.integers(0, len(res.bases[r]) - 1), label="column")
        c = data.draw(st.sampled_from([-2, -1, 1, 3]), label="c")

        def edit(rows):
            add_to(rows, i, j, c)
    bad, session = changed(res, r, edit)
    assert session(bad, bad.phi).complex_failure == first_nonzero_product(dict(enumerate(matrices(bad), 1)))


def test_complex_check_multiplies_the_interior_products_without_the_skeleton_fact(monkeypatch):
    # a session on a lift refuses to start without the strand certificate, its premise; the
    # matrix route takes no premise, and multiplies the interior product that the induction reads
    from gorlin import exactness

    res = grid_resolution(5, 2)
    form = matrix_form(res)
    counts = _counting_products(monkeypatch, form)
    monkeypatch.setattr(exactness, "strand_certificate", lambda d, n: ("dual strand does not compose to zero",))
    with pytest.raises(ValueError, match="fails its strand certificate: dual strand"):
        Session(res, res.phi)
    assert MatrixSession(form, res.phi).complex_failure is None
    assert counts == Counter({"b_1 b_2": 1, "b_2 b_3": 1})


def test_complex_check_multiplies_the_interior_products_when_delta_is_zero(monkeypatch):
    # a record with delta = 0 is refused.  Its matrix form b_r = x1 C_r is a state where the
    # induction does not apply: b_{r-1} M = 0 gives M = 0 only through delta S_{r-1} M = 0.
    # With C_1 = 0 as well, so that b_1 = 0, each product is multiplied, and is zero, as
    # C_r C_{r+1} is for the interior constants
    lift = changed_lift(resolution_at(6, 2), 1, lambda rows: rows[0].clear())
    with pytest.raises(ValueError, match="delta != 0"):
        lift.replace(delta=0)
    form = with_delta_zero(lift)
    counts = _counting_products(monkeypatch, form)
    assert MatrixSession(form, lift.phi).complex_failure is None
    assert counts == Counter({"b_1 b_2": 1, "b_2 b_3": 1, "b_3 b_4": 1})


def test_check_betti_catches_quadratic_entry():
    res = grid_resolution(3, 2)
    bad = perturbed(res, r=2, i=0, j=0, bump=Poly.monomial((0, 2, 0)))
    out = check_betti_and_degrees(MatrixSession(bad, bad.phi))
    assert not out.passed


def test_check_betti_catches_constant():
    # a constant bump breaks the degree pattern, in a zero entry and in a nonzero one
    res = grid_resolution(3, 2)
    b2 = res.matrix(2)
    zero = next((2, i, j) for i in range(len(b2.rows)) for j in range(len(b2.cols)) if not b2.entry(i, j))
    assert res.matrix(1).entry(0, 0)
    for r, i, j in (zero, (1, 0, 0)):
        bad = perturbed(res, r=r, i=i, j=j, bump=constant(3, 1))
        out = check_betti_and_degrees(MatrixSession(bad, bad.phi))
        assert not out.passed and out.summary == "entry degree pattern broken", (r, i, j)


def test_check_betti_catches_a_wrong_twist_list():
    # a built resolution takes its twists from (d, n); the matrix form keeps them as given
    res = grid_resolution(3, 2)
    twists = res.twists[:-1] + (res.twists[-1] + 1,)
    bad = dataclasses.replace(matrix_form(res), twists=twists)
    out = check_betti_and_degrees(MatrixSession(bad, bad.phi))
    assert res.twists == (0, 2, 3, 5)
    assert (out.passed, out.summary) == (False, "twist list is wrong")
    assert out.witness == "got (0, 2, 3, 6), expected (0, 2, 3, 5)"


def test_check_betti_catches_a_basis_that_lost_an_element():
    res = grid_resolution(3, 2)
    first = res.bases[1]
    bases = (res.bases[0], OrderedBasis(first.d, first.n, first.r, first.elements[:-1])) + res.bases[2:]
    bad = dataclasses.replace(matrix_form(res), bases=bases)
    out = check_betti_and_degrees(MatrixSession(bad, bad.phi))
    assert res.betti == (1, 5, 5, 1) and bad.betti == (1, 4, 5, 1)
    assert (out.passed, out.summary) == (False, "Betti numbers differ from the closed formula")
    assert out.witness == "got (1, 4, 5, 1), expected (1, 5, 5, 1)"


def test_check_betti_reports_the_first_broken_entry_in_row_major_order():
    # in the last row of b_2, an x1^2 written into an empty cell left of a nonzero entry goes last
    # in the row dict but comes first in row-major order; the constant bump right of it is not
    # the witness.  With b_2 intact, a broken last entry of b_d is the witness.
    res = grid_resolution(4, 2)
    b2 = res.matrix(2)
    i = len(b2.rows) - 1
    j1 = max(b2.entries[i])
    j0 = next(j for j in range(j1) if j not in b2.entries[i])
    bad = perturbed(res, r=2, i=i, j=j1, bump=constant(4, 1))
    bad.matrix(2).set(i, j0, x1_power(4, 2).terms)
    assert list(bad.matrix(2).entries[i])[-1] == j0
    out = check_betti_and_degrees(MatrixSession(bad, bad.phi))
    assert out.witness == f"b_2 entry ({i}, {j0}) = x1^2, expected degree 1"
    k = len(res.matrix(4).rows) - 1
    bad = perturbed(res, r=4, i=k, j=0, bump=x1_power(4, 3))
    out = check_betti_and_degrees(MatrixSession(bad, bad.phi))
    assert out.witness == f"b_4 entry ({k}, 0) = {poly_str(bad.matrix(4).entry(k, 0))}, expected degree 2"
    assert "x1^3" in out.witness


def test_euler_identity_values():
    # (1-t)^4 (1+4t+t^2) and (1-t)^3 (1+3t+t^2)
    out = check_euler_hilbert(Session(grid_resolution(4, 2), grid_phi(4, 2)))
    assert out.passed and "[1, 0, -9, 16, -9, 0, 1]" in out.summary
    out = check_euler_hilbert(Session(grid_resolution(3, 2), grid_phi(3, 2)))
    assert out.passed and "[1, 0, -5, 5, 0, -1]" in out.summary


def test_ann_check_and_witness():
    out = check_ann_match(Session(squares_resolution(3), squares_phi(3)))
    assert out.passed
    bad = perturbed(squares_resolution(3), r=1, i=0, j=0, bump=Poly.monomial((0, 2, 0)))
    out = check_ann_match(MatrixSession(bad, squares_phi(3)))
    assert not out.passed


@pytest.mark.parametrize("d,n,witness", [
    (3, 2, "rank(columns)=4, rank(oracle)=5, rank(union)=5, beta_1=5"),
    (4, 2, "rank(columns)=8, rank(oracle)=9, rank(union)=9, beta_1=9"),
])
def test_ann_check_witness_for_a_duplicated_column(d, n, witness):
    # column 0 replaced by column 1, both X columns, where b_1 is x1 C_1: a changed
    # C_1, and every column still annihilates phi
    res = grid_resolution(d, n)
    assert [e.kind for _, e in res.bases[1]][:2] == ["X", "X"]
    bad = changed_lift(res, 1, lambda rows: rows[0].__setitem__(0, rows[0][1]))
    assert bad.matrix(1).entry(0, 0) == res.matrix(1).entry(0, 1)
    out = check_ann_match(Session(bad, grid_phi(d, n)))
    assert not out.passed
    assert out.summary == "column span differs from the degree-n annihilator" and out.witness == witness


def test_golden_skeleton_data_shapes():
    b1, b2, b3, b4 = golden_skeleton_d4_n2()
    assert (len(b1), len(b1[0])) == (1, 9)
    assert (len(b2), len(b2[0])) == (9, 16)
    assert (len(b3), len(b3[0])) == (16, 9)
    assert (len(b4), len(b4[0])) == (9, 1)


def test_check_skeleton_golden_and_witness():
    res = grid_resolution(4, 2)
    out = check_skeleton(Session(res, res.phi))
    assert out.passed
    assert tuple(dense(m) for m in skeleton_matrices(4, 2)) == golden_skeleton_d4_n2()
    bad = perturbed(res, r=2, i=0, j=0, bump=Poly.monomial((0, 1, 0, 0)))
    out = matrix_check(MatrixSession(bad, bad.phi), "skeleton")
    assert not out.passed


def test_check_skeleton_names_the_failed_strand(monkeypatch):
    from gorlin import verify

    failure = "dual strand fails in degree 5: homology at position 2 (defect 1)"
    monkeypatch.setattr(verify, "strand_certificate", lambda d, n: (failure,))
    res = grid_resolution(3, 2)
    out = check_skeleton(Session(res, res.phi))
    assert not out.passed
    assert out.summary == "a skeleton strand fails its certificate" and out.witness == failure


def test_check_skeleton_fails_on_an_entry_between_an_x_and_a_y_element(monkeypatch):
    # x2 at an X-row/Y-column zero of S_2 and its pairing mirror in S_3, two triples added to the
    # tables: the strands are untouched and the pairing rule still holds on the skeleton, so only
    # the block scan of the strand certificate sees the mixed entry.  B is altered to match, so
    # the skeleton comparison of the matrix form passes as well.
    from gorlin import differentials, exactness, verify
    from gorlin.differentials import Skeleton
    from gorlin.exactness import strand_certificate
    from gorlin.hookbasis import pairing
    from oracles import duality_failure

    res = matrix_form(grid_resolution(4, 2))
    skel, s2 = canonical_skeleton(4, 2), skeleton_matrices(4, 2)[1]
    i = next(i for i, (_, e) in enumerate(s2.rows) if e.kind == "X")
    j = next(j for j, (_, e) in enumerate(s2.cols) if e.kind == "Y" and not s2.entry(i, j))
    (ii, s1), (kk, t1) = pairing(res.bases[2], res.bases[2])[j], pairing(res.bases[1], res.bases[3])[i]
    x2 = Poly.monomial(mul_var(unit(4), 2))
    inner = [list(cells) for cells in skel.inner]
    for (r, a, b), c in (((2, i, j), 1), ((3, ii, kk), -s1 * t1)):
        assert (a, b) not in {t[:2] for t in inner[r - 2]}
        # after the triples of row a, so each table stays in row order
        inner[r - 2].insert(sum(t[0] <= a for t in inner[r - 2]), (a, b, 2, c))
        res.matrix(r).set(a, b, (Poly(4, res.matrix(r).entry(a, b)) + x2.scale(c * res.delta)).terms)
    tables = Skeleton(skel.u, tuple(map(tuple, inner)))
    for module in (differentials, exactness):
        monkeypatch.setattr(module, "canonical_skeleton", lambda d, n: tables)
    assert duality_failure(res.bases, skeleton_matrices(4, 2)) is None
    monkeypatch.setattr(verify, "strand_certificate", strand_certificate.__wrapped__)
    s = MatrixSession(res, res.phi)
    assert s.skeleton_failure is None and s.duality_failure is None
    out = matrix_check(s, "skeleton")
    assert not out.passed, out.line()
    assert out.witness == "skeleton map out of position 2 joins an X and a Y element in row 0"


@pytest.mark.parametrize("d,n", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_check_duality(d, n):
    res = grid_resolution(d, n)
    out = check_duality(Session(res, res.phi))
    assert out.passed, out.line()


@pytest.mark.parametrize("d,n,h", [(3, 2, 2), (5, 2, 3), (5, 3, 3)])
def test_a_middle_cofactor_that_is_not_its_own_mirror_fails_duality_as_on_the_matrices(d, n, h):
    # the middle map of odd d is read out whole, so the session compares C_h with its pairing
    # transpose; a changed entry off its mirror fails duality and lets the complex check reach past
    # the middle, with the reports of the matrix route, which proves the rule on every pair.  At
    # d = 5 a record reads C_3 out of C_2, so the changed C_3 is held by the matrix form alone, and
    # a record with a changed C_2 reads out a C_3 that is not its own mirror
    res = grid_resolution(d, n)
    bad, _ = changed(res, h, lambda rows: add_to(rows, 1, 0, 1))
    full = MatrixSession(matrix_form(bad), bad.phi)
    assert full.duality_failure == (h - 1, 0, 1)
    matrix = matrix_report(full)
    assert not matrix.passed and matrix.results[0].witness == complex_witness(bad)
    if h > 2:
        bad = changed_lift(res, 2, lambda rows: add_to(rows, 0, 0, 1))
        full = MatrixSession(matrix_form(bad), bad.phi)
        assert full.duality_failure is not None and full.duality_failure[0] == h - 1
    s = Session(bad, bad.phi)
    assert s.duality_failure == full.duality_failure
    lift, matrix = run_checks(bad, bad.phi), matrix_report(full)
    assert not lift.passed and lift.to_text() == matrix.to_text()
    assert lift.results[0].witness == complex_witness(bad)


def test_check_duality_reaches_every_pair():
    # b_2 entry (0, 1) enters the product rule only at r = 1, pair (1, 0), and
    # at r = 3, both outside the 200 pairs per r a random.Random(0) sample draws
    res = grid_resolution(5, 2)
    bad = perturbed(res, r=2, i=0, j=1, bump=Poly.monomial(mul_var(unit(5), 2)))
    out = matrix_check(MatrixSession(bad, bad.phi), "duality")
    assert not out.passed and out.witness == "r=1, pair (1, 0)", out.line()


def test_check_wlp_passes_and_swapped_variable():
    phi = grid_phi(4, 2)
    res = grid_resolution(4, 2)
    assert check_wlp(Session(res, phi)).passed
    swapped = swap_variables(phi, 1, 2)
    res2 = build_resolution(swapped)
    assert check_wlp(Session(res2, swapped)).passed


def _count_ranks(monkeypatch):
    from gorlin import linalg

    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: calls.append(rows) or rank(rows))
    return calls


def test_check_wlp_ranks_one_matrix(monkeypatch):
    # with a fact of the proof failing (here the skeleton of b_2 of the matrix
    # form), the image is ranked; the annihilator rows are a kernel basis, so
    # only the union needs a rank
    res = grid_resolution(4, 2)
    bad = perturbed(res, r=2, i=0, j=0, bump=Poly.monomial(mul_var(unit(4), 2)))
    s = MatrixSession(bad, grid_phi(4, 2))
    s.hilbert, s.b1_annihilation_failure  # proved before counting
    assert s.skeleton_failure is not None
    calls = _count_ranks(monkeypatch)
    out = matrix_check(s, "wlp")
    assert out.passed, out.line()
    assert len(calls) == 1
    assert out == check_wlp(Session(res, grid_phi(4, 2)))


@pytest.mark.parametrize("fact", ["delta", "strand certificate", "annihilation"])
def test_check_wlp_holds_when_a_fact_of_its_old_proof_fails(monkeypatch, fact):
    # WLP is a fact of phi, from delta(phi) != 0 alone, so it holds whatever B is: on the matrix
    # form of a record with delta = 0 (b_1 = x1 C_1 with the Y cofactors dropped, so every column
    # still annihilates phi), on the matrix form with a failed strand certificate (a lift's
    # session refuses to start then), and on a lift whose C_1 no longer annihilates phi.  check_wlp
    # ranks nothing on each, and the image of x1, ranked once beside the annihilator, agrees
    from gorlin import exactness

    res = grid_resolution(4, 2)
    intact = check_wlp(Session(res, grid_phi(4, 2)))
    if fact == "delta":
        ys = [j for j, (_, e) in enumerate(res.bases[1]) if e.kind == "Y"]
        s = MatrixSession(with_delta_zero(changed_lift(res, 1, lambda rows: [rows[0].pop(j) for j in ys])),
                          grid_phi(4, 2))
    elif fact == "strand certificate":
        monkeypatch.setattr(exactness, "strand_certificate", lambda d, n: ("monomial strand does not compose to zero",))
        with pytest.raises(ValueError, match="strand certificate"):
            Session(res, grid_phi(4, 2))
        s = MatrixSession(matrix_form(res), grid_phi(4, 2))
    else:
        s = Session(changed_lift(res, 1, lambda rows: add_to(rows, 0, 0, 1, mul_var(unit(4), 1))), grid_phi(4, 2))
    s.hilbert, s.b1_annihilation_failure  # proved before counting
    assert (s.b1_annihilation_failure is not None) == (fact == "annihilation")
    calls = _count_ranks(monkeypatch)
    out = check_wlp(s)
    assert out.passed and not calls, out.line()
    assert wlp_by_rank(s) == out == intact and len(calls) == 1


def test_check_wlp_reads_the_session_facts(monkeypatch):
    # delta != 0 gives every nonzero linear form maximal rank in every degree (check_wlp), and
    # the session's Hilbert function refuses delta = 0, so an intact resolution passes with no rank
    for d, n in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        s = Session(grid_resolution(d, n), grid_phi(d, n))
        s.hilbert  # proved before counting
        calls = _count_ranks(monkeypatch)
        out = check_wlp(s)
        assert out.passed and not calls, (d, n)
        assert out.summary == f"x1 * (degree {n - 1}) covers degree {n} of the quotient (dimension {s.hf(n)})"


@pytest.mark.parametrize("system", [f"{d}-{n}" for d, n in GRID] + ["fractional"])
def test_every_nonzero_linear_form_has_maximal_rank_in_every_degree(system):
    # check_wlp's proof from delta != 0 alone, against ranks in Fraction arithmetic: for l = x1, a
    # bare other variable and random integer forms, g -> (l g) o phi on S_i has the rank
    # min(hf(i), hf(i+1)) for every i = 0..2n-3, hf(i) the rank of Cat_i
    import random

    phi = fractional_phi() if system == "fractional" else grid_phi(*map(int, system.split("-")))
    d, n = phi.d, phi.n
    rng = random.Random(system)
    forms = [[int(k == 0) for k in range(d)], [int(k == d - 1) for k in range(d)]]
    while len(forms) < 5:
        form = [rng.randint(-3, 3) for _ in range(d)]
        if any(form):
            forms.append(form)
    cats = [catalecticant_matrix(phi, j) for j in range(2 * n - 1)]
    hf = [len(rref_by_fractions(cat)[1]) for cat in cats]
    for i in range(2 * n - 2):
        rows = {m: k for k, m in enumerate(monomials_of_degree(d, i + 1))}
        for form in forms:
            # row g: the coefficients of (l g) o phi, the sum of l_k times row x_k g of Cat_{i+1}
            image = [[sum(c * cats[i + 1][rows[mul_var(g, k + 1)]][col] for k, c in enumerate(form) if c)
                      for col in range(len(cats[i + 1][0]))] for g in monomials_of_degree(d, i)]
            assert len(rref_by_fractions(image)[1]) == min(hf[i], hf[i + 1]), (form, i)
    res = build_resolution(phi)
    assert run_checks(res, phi, ["wlp"]).passed


def test_the_wlp_check_alone_reads_no_fact_of_b(monkeypatch):
    # run_checks(["wlp"]) reads the Hilbert function, whose one rank delta_and_Q keeps on the
    # system: it builds no matrix, proves no fact of b_1 or of the products, and ranks nothing.
    # The strand certificate is read once, by the session, as its premise
    from gorlin import exactness
    from gorlin.differentials import Resolution

    phi = random_invsys(4, 3, 5)
    res = build_resolution(phi)
    counts = Counter()
    _count_calls(monkeypatch, counts, "strand_certificate", exactness.strand_certificate)
    for name in ("matrix", "terms"):
        monkeypatch.setattr(Resolution, name, lambda *args, f=getattr(Resolution, name), name=name:
                            counts.update([name]) or f(*args))
    for name in ("complex_failure", "duality_failure", "ann_dim_n", "b1_degree_failure", "b1_annihilation_failure",
                 "ideal_dim_n"):
        fact = vars(Session)[name].func
        monkeypatch.setattr(Session, name, property(lambda s, f=fact, name=name: counts.update([name]) or f(s)))
    calls = _count_ranks(monkeypatch)
    report = run_checks(res, phi, ["wlp"])
    assert report.passed and not calls
    assert counts == Counter({"strand_certificate": 1})


def test_exactness_methods_agree():
    for d, n in [(3, 2), (4, 2)]:
        phi = grid_phi(d, n)
        res = grid_resolution(d, n)
        direct = certify_exactness_direct(Session(res, phi), 2 * n + d)
        les = certify_exactness(Session(res, phi))
        assert direct == les == []


@st.composite
def permuted_systems(draw):
    """An inverse system with large or fractional coefficients, and a permutation of x2..xd."""
    d, n = draw(st.sampled_from([(3, 2), (3, 3), (4, 2)]))
    coeff = st.one_of(st.integers(-2**40, 2**40),
                      st.fractions(min_value=-2**40, max_value=2**40, max_denominator=1000))
    phi = InverseSystem(d, n, {m: draw(coeff) for m in monomials_of_degree(d, 2 * n - 2)})
    return phi, draw(st.permutations(range(2, d + 1)))


# no shrinking: every example builds and verifies two resolutions, so shrinking
# a failure would take minutes before it is reported.  A fixed seed keeps the
# draws (all three (d, n), about 1 s in total) when the body is edited; with
# derandomize=True they would follow a digest of the source text.
@seed(15)
@settings(max_examples=12, deadline=None, database=None,
          phases=[p for p in Phase if p is not Phase.shrink])
@given(permuted_systems())
def test_routes_agree_and_verdicts_survive_a_permutation(case):
    phi, perm = case
    assume(det_and_adjugate(catalecticant_matrix(phi, phi.n - 1))[0] != 0)
    res = build_resolution(phi)
    s = Session(res, phi)
    assert (certify_exactness(s) == []) == (certify_exactness_direct(s, 2 * phi.n + phi.d) == [])
    swapped, perm = phi, list(perm)
    for k in range(len(perm)):  # one swap puts each variable in its place
        j = perm.index(k + 2)
        if j != k:
            perm[j], perm[k] = perm[k], perm[j]
            swapped = swap_variables(swapped, k + 2, j + 2)
    verdicts = [(r.name, r.passed) for r in run_checks(res, phi).results]
    res2 = build_resolution(swapped)
    assert [(r.name, r.passed) for r in run_checks(res2, swapped).results] == verdicts


def test_exactness_detects_broken_complex():
    res = grid_resolution(3, 2)
    bad = perturbed(res, r=2, i=0, j=0, bump=Poly.monomial((1, 0, 0)))
    out = certify_exactness_direct(MatrixSession(bad, grid_phi(3, 2)), 7)
    assert out and "complex" in out[0]


def test_exactness_detects_missing_syzygies():
    # zeroing the middle matrices keeps b b = 0 but destroys exactness
    res = grid_resolution(3, 2)
    bad = matrix_form(res)
    for r in (2, 3):
        for row in bad.matrix(r).entries:
            row.clear()
    out = certify_exactness_direct(MatrixSession(bad, grid_phi(3, 2)), 7)
    assert out and any("degree" in f for f in out)
    s = MatrixSession(bad, grid_phi(3, 2))
    out = matrix_check(s, "exactness")
    # the skeleton no longer matches the canonical strands
    assert not out.passed and out.summary == "B is not certified to resolve S/ann(phi)"
    assert out.witness == s.skeleton_failure is not None


def test_exactness_distinguishes_only_dimensions():
    # a resolution of a different system with the same Hilbert function passes
    # the direct oracle, which compares only dimensions; the annihilator check
    # tells them apart, and so does certify_exactness, which rests on the same
    # fact (test_exactness_fails_for_the_resolution_of_another_system)
    phi = grid_phi(3, 2)
    other = random_invsys(3, 2, seed=99)
    res_other = build_resolution(other)
    assert certify_exactness_direct(Session(res_other, phi), 7) == []
    assert not check_ann_match(Session(res_other, phi)).passed


@pytest.mark.parametrize("d,n,seed,other", [(3, 2, 99, 1), (4, 3, 7, 1)])
def test_exactness_fails_for_the_resolution_of_another_system(d, n, seed, other):
    # B resolves the quotient of the system it was built from, whose Hilbert
    # function is that of the system it is checked against; its first column
    # does not annihilate that system, so exactness is not certified
    report = run_checks(build_resolution(random_invsys(d, n, seed)), random_invsys(d, n, other))
    verdicts = {r.name: r for r in report.results}
    assert verdicts["betti"].passed and verdicts["euler"].passed
    assert not verdicts["ann"].passed and verdicts["ann"].witness.startswith("column 0 = ")
    assert not verdicts["exactness"].passed
    assert verdicts["exactness"].witness == "column 0 of b_1 does not annihilate phi, so I is not in ann(phi)"


def test_a_b1_term_of_the_wrong_degree_fails_the_checks_without_raising():
    # x1^3 (x1 times a term x1^2 of C_1) contracts phi to 0, so the annihilation fact
    # holds; the degree-n piece of b_1 has no row for the term, and the checks that
    # read dim I_n used to raise KeyError
    phi = random_invsys(3, 2, 1)
    res = changed_lift(build_resolution(phi), 1, lambda rows: add_to(rows, 0, 0, 1, (2, 0, 0)))
    assert res.matrix(1).entry(0, 0) == plus(build_resolution(phi).matrix(1).entry(0, 0), (3, 0, 0))
    verdicts = {r.name: r for r in run_checks(res, phi).results}
    assert not verdicts["exactness"].passed
    assert verdicts["exactness"].witness == "column 0 of b_1 has a term of degree 3, not n = 2"
    assert not verdicts["ann"].passed and verdicts["ann"].witness == "column 0 has a term of degree 3"


def test_ideal_dims_growth():
    phi = grid_phi(3, 2)
    res = grid_resolution(3, 2)
    # dim I_n = dim S_n - HF(n); the degrees above follow from it
    # (test_the_ideal_of_b1_is_ann_phi_in_every_degree)
    assert ideal_dims(Session(res, phi)) == 5 == comb(4, 2) - hf_value(phi, 2)


def test_rank_mod_p_small():
    triples = [(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 4)]
    assert rank_mod_p(2, 2, triples, 65521) == 1
    triples = [(i, i, 1) for i in range(5)]
    assert rank_mod_p(5, 5, triples, 65521) == 5
    assert rank_mod_p(0, 3, [], 65521) == 0


def test_rank_mod_p_matches_exact_on_random():
    import random as _r

    from gorlin import linalg

    rng = _r.Random(0)
    for _ in range(20):
        nr, nc = rng.randint(1, 40), rng.randint(1, 40)
        triples = []
        for i in range(nr):
            for j in range(nc):
                if rng.random() < 0.3:
                    triples.append((i, j, rng.randint(-9, 9)))
        rows = [[Fraction(0)] * nc for _ in range(nr)]
        for i, j, v in triples:
            rows[i][j] += v
        assert rank_mod_p(nr, nc, triples, 65521) == linalg.rank(rows)


def test_run_checks_selection_and_errors():
    phi = squares_phi(3)
    res = squares_resolution(3)
    report = run_checks(res, phi, checks=["complex", "betti"])
    assert len(report.results) == 2 and report.passed
    with pytest.raises(ValueError):
        run_checks(res, phi, checks=["nope"])


def test_exactness_against_naive_rank_oracle():
    # literal spec computation on a small case: dim ker [b_r]_e == rank [b_{r+1}]_e
    # with plain exact elimination, compared against the certified engine
    from gorlin.exactness import graded_piece

    phi = grid_phi(3, 2)
    res = grid_resolution(3, 2)
    d, twists, betti = res.d, res.twists, res.betti
    for e in range(0, 8):
        ranks = {}
        dims = {}
        for r in range(1, d + 1):
            dims[r] = betti[r] * comb(e - twists[r] + d - 1, d - 1) if e >= twists[r] else 0
            piece = graded_piece(res.matrix(r), e - twists[r - 1], e - twists[r])
            ranks[r] = piece.rank_exact()
        ranks[d + 1] = 0
        for r in range(1, d + 1):
            ker = dims[r] - ranks[r]
            assert ker == ranks[r + 1], (r, e)
        assert comb(e + d - 1, d - 1) - ranks[1] == hf_value(phi, e)
    assert certify_exactness_direct(Session(res, phi), 7) == []


def test_fractional_coefficients_full_pipeline():
    # non-integer inverse systems exercise denominator clearing everywhere
    from fractions import Fraction as F

    base = grid_phi(3, 2)
    coeffs = dict(base.coeffs)
    keys = sorted(coeffs)
    coeffs[keys[0]] = coeffs[keys[0]] / 3
    coeffs[keys[1]] = coeffs[keys[1]] + F(2, 7)
    from gorlin.invsys import InverseSystem

    phi = InverseSystem(3, 2, coeffs)
    res = build_resolution(phi)
    report = run_checks(res, phi)
    assert report.passed, report.to_text()
    assert route_disagreement(res) is None


def test_exactness_beyond_default_bound():
    phi = grid_phi(3, 2)
    res = grid_resolution(3, 2)
    assert certify_exactness_direct(Session(res, phi), 12) == []
    assert certify_exactness(Session(res, phi)) == []


@pytest.mark.parametrize("e", [2, 4, 9])
def test_h1_identity_is_checked_wherever_h1k_is_nonzero(monkeypatch, e):
    # one more dimension of dual-strand bottom homology in degree e, below,
    # at and past the bound 2n = 4, is homology of B in position 1
    from gorlin import exactness

    h1k = exactness.dual_strand_h1k(3, 2)
    h1k[e] = h1k.get(e, 0) + 1
    monkeypatch.setattr(exactness, "dual_strand_h1k", lambda d, n: h1k)
    out = certify_exactness(Session(grid_resolution(3, 2), grid_phi(3, 2)))
    assert out == [f"homology at position 1 in degree {e} has dimension 1"]


@pytest.mark.parametrize("d", [3, 4, 5])
def test_full_suite_identity_catalecticant_family(d):
    phi = squares_phi(d)
    res = build_resolution(phi)
    report = run_checks(res, phi)
    assert report.passed, report.to_text()


def test_report_serialization():
    phi = squares_phi(3)
    res = squares_resolution(3)
    report = run_checks(res, phi, checks=["complex"])
    txt = report.to_text()
    assert "PASS complex" in txt and "ALL CHECKS PASSED" in txt
    doc = report.to_json_dict()
    assert doc["passed"] is True and doc["checks"][0]["name"] == "complex"


def test_session_facts_do_not_carry_into_a_perturbed_copy():
    phi = grid_phi(4, 2)
    res = grid_resolution(4, 2)
    assert run_checks(res, phi).passed
    bad = perturbed(res, r=2, i=1, j=2, bump=Poly.monomial(mul_var(unit(4), 2)))
    verdicts = {r.name: r.passed for r in matrix_report(MatrixSession(bad, phi)).results}
    assert not verdicts["complex"]
    assert not verdicts["exactness"]


def _count_calls(monkeypatch, counts, name, original, wanted=lambda *args: True):
    """Count the wanted calls of original under every gorlin name bound to it."""
    def wrapper(*args, **kwargs):
        if wanted(*args):
            counts[name] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("gorlin") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


def test_run_checks_proves_each_fact_once(monkeypatch):
    import oracles
    from gorlin import exactness, invsys, linalg

    phi = grid_phi(4, 2)
    res = grid_resolution(4, 2)
    counts = _counting_products(monkeypatch, res)
    exactness.strand_certificate.cache_clear()
    # dim ann(phi)_n is read off the pivots of one rref of the degree-n catalecticant
    _count_calls(monkeypatch, counts, "rref", linalg.rref)
    _count_calls(monkeypatch, counts, "hilbert_function", invsys.hilbert_function)
    _count_calls(monkeypatch, counts, "ideal_dims", exactness.ideal_dims)
    assert run_checks(res, phi).passed
    # under the pairing rule the products past the middle mirror those before it,
    # and the interior product b_2 b_3 is read off the lift on the fact that the
    # skeleton is a complex, part of the strand certificate, a cached fact of (d, n)
    assert exactness.strand_certificate.cache_info().misses == 1
    assert counts == Counter({"b_1 b_2": 1, "rref": 1, "hilbert_function": 1, "ideal_dims": 1})
    # the matrix form proves the facts the lift holds by construction, each once as well
    monkeypatch.undo()
    form = matrix_form(res)
    counts = _counting_products(monkeypatch, form)
    for name in ("skeleton_block_failure", "duality_failure", "x1_split"):
        monkeypatch.setattr(oracles, name, lambda *args, f=getattr(oracles, name), name=name:
                            counts.update([name]) or f(*args))
    _count_calls(monkeypatch, counts, "rref", linalg.rref)
    _count_calls(monkeypatch, counts, "hilbert_function", invsys.hilbert_function)
    assert matrix_report(MatrixSession(form, phi)).passed
    assert counts == Counter({"b_1 b_2": 1, "duality_failure": 1, "skeleton_block_failure": 1, "x1_split": 4,
                              "rref": 1, "hilbert_function": 1})


def test_a_passing_run_on_the_lift_cuts_no_piece_of_b1_and_forms_no_annihilator_basis(monkeypatch):
    # dim I_n is read off the X cofactors and dim ann(phi)_n off one rref of a table
    from gorlin import exactness, invsys

    counts = Counter()
    _count_calls(monkeypatch, counts, "graded_piece", exactness.graded_piece)
    _count_calls(monkeypatch, counts, "ann_degree", invsys.ann_degree)
    for d, n in GRID:
        assert run_checks(grid_resolution(d, n), grid_phi(d, n)).passed
    assert counts == Counter()


@pytest.mark.parametrize("system", [f"{d}-{n}" for d, n in GRID] + list(EXTRA))
def test_facts_by_construction_hold_on_the_matrices(system):
    # the pairing rule, the x1 split and the skeleton, computed on the matrices built
    # from the lift, and the full report of their matrix form against the lift route's
    phi = extra_phi(system) if system in EXTRA else grid_phi(*map(int, system.split("-")))
    assert lift_fact_failure(build_resolution(phi)) is None


@st.composite
def changed_lifts(draw):
    """(a changed lift, its session class, a label): a small system with one perturbation of its lift's cofactors.

    The system has integer coefficients, Fraction ones (or is fractional_phi()),
    or permuted variables.  The perturbation is a term of C_1, a constant of an
    interior C_r, a term of C_1 of a degree other than n-1, or two columns of a
    C_r swapped; r is never the self-paired middle map of odd d, so the lift
    keeps the pairing rule.  A changed C_r, r >= 3, is held by the matrix form
    alone, with a MatrixSession (conftest.changed).
    """
    kind = draw(st.sampled_from(["interior constant", "C_1 term", "wrong degree", "swapped columns"]),
                label="perturbation")
    system = draw(st.sampled_from(["integer", "fraction", "fractional_phi", "permuted"]), label="system")
    if system == "fractional_phi":
        phi = fractional_phi()
    else:
        points = [(3, 2), (3, 3), (4, 2), (5, 2), (6, 2)][2 if kind == "interior constant" else 0:]
        d, n = draw(st.sampled_from(points), label="(d, n)")
        phi = random_invsys(d, n, draw(st.integers(0, 30), label="seed"))
        if system == "fraction":
            phi = InverseSystem(d, n, {m: Fraction(c, draw(st.integers(1, 9))) for m, c in sorted(phi.coeffs.items())})
        elif system == "permuted":
            perm = draw(st.permutations(range(d)), label="permutation")
            phi = InverseSystem(d, n, {tuple(m[k] for k in perm): c for m, c in phi.coeffs.items()})
    try:
        res = build_resolution(phi)
    except InadmissibleSystemError:
        assume(False)
    d, n = phi.d, phi.n
    coefficient = st.sampled_from([-2, -1, 1, 3, Fraction(1, 2)])
    if kind == "swapped columns":
        r = draw(st.integers(1, d // 2), label="r")
        columns = st.lists(st.integers(0, len(res.bases[r]) - 1), min_size=2, max_size=2, unique=True)
        j, k = draw(columns, label="columns")

        def edit(rows):
            for row in rows:
                cells = {c: row.pop(c) for c in (j, k) if c in row}
                row.update({k if c == j else j: v for c, v in cells.items()})
    elif kind == "interior constant":
        r = draw(st.integers(2, d // 2), label="r")
        i = draw(st.integers(0, len(res.bases[r - 1]) - 1), label="row")
        j = draw(st.integers(0, len(res.bases[r]) - 1), label="column")
        c = draw(coefficient, label="c")

        def edit(rows):
            add_to(rows, i, j, c)
    else:
        r = 1
        e = n - 1 if kind == "C_1 term" else draw(st.sampled_from(sorted({0, n - 2, n})), label="degree")
        j = draw(st.integers(0, len(res.bases[1]) - 1), label="column")
        m = draw(st.sampled_from(monomials_of_degree(d, e)), label="monomial")
        c = draw(coefficient, label="c")

        def edit(rows):
            add_to(rows, 0, j, c, m)
    return *changed(res, r, edit), f"{system} {kind}"


# no shrinking, as for test_routes_agree_and_verdicts_survive_a_permutation
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=[p for p in Phase if p is not Phase.shrink], suppress_health_check=[HealthCheck.filter_too_much])
@given(changed_lifts())
def test_the_lift_and_the_matrix_route_agree_on_a_changed_lift(case):
    # run_checks on the lift against the eight checks on a MatrixSession of its matrices,
    # which proves from them every fact that the lift holds by construction; the two
    # share the induction on the interior products, so the complex witness is also
    # that of the full product.  A matrix form has no lift to compare
    res, session, label = case
    full = matrix_report(MatrixSession(matrix_form(res), res.phi))
    if session is Session:
        assert run_checks(res, res.phi).to_text() == full.to_text(), label
    assert full.results[0].witness == complex_witness(res), label


@pytest.mark.parametrize("d,n", [(4, 2), (5, 2)])
def test_run_checks_on_the_lift_computes_no_fact_it_holds_by_construction(monkeypatch, d, n):
    from gorlin import exactness

    res = resolution_at(d, n)
    exactness.strand_certificate.cache_clear()  # so that the certificate runs under the counts
    counts = Counter()
    _count_calls(monkeypatch, counts, "skeleton_block_failure", exactness.skeleton_block_failure)
    assert run_checks(res, res.phi).passed
    assert exactness.strand_certificate.cache_info().misses == 1
    # the lift holds the skeleton and the x1 split by construction (the x1 split of a matrix is
    # read by the tests' matrix form alone), and so does the pairing rule on every map but the
    # middle one of odd d, which the session compares with its own transpose
    assert counts == Counter()
