"""The check suite: passes on good instances, fails with witnesses on broken ones."""

import copy
import sys
from collections import Counter
from fractions import Fraction

import pytest

from gorlin.differentials import build_resolution, build_resolution_via_straightening
from gorlin.exactness import Session, certify_exactness, ideal_dims, rank_mod_p
from gorlin.invsys import hf_value, random_invsys
from gorlin.monomials import mul_var, unit
from gorlin.polymatrix import PolyMatrix
from gorlin.polynomials import Poly
from gorlin.verify import (
    check_ann_match,
    check_betti_and_degrees,
    check_complex,
    check_duality,
    check_euler_hilbert,
    check_skeleton,
    check_wlp,
    golden_skeleton_d4_n2,
    run_checks,
)

from conftest import grid_phi, grid_resolution, squares_phi, squares_resolution


def perturbed(res, r=2, i=0, j=0, bump=None):
    bad = copy.deepcopy(res)
    d = res.d
    bump = bump if bump is not None else Poly.constant(d, 1)
    bad.matrix(r).entries[i][j] = bad.matrix(r).entries[i][j] + bump
    return bad


def test_all_checks_pass_d3_squares():
    phi = squares_phi(3)
    res = squares_resolution(3, ordering="selfdual")
    report = run_checks(res, phi)
    assert report.passed, report.to_text()


def test_all_checks_pass_d4_random():
    phi = grid_phi(4, 2)
    res = grid_resolution(4, 2, ordering="selfdual")
    report = run_checks(res, phi)
    assert report.passed, report.to_text()
    assert "golden" in next(r for r in report.results if r.name == "skeleton").summary


def test_check_complex_witness():
    res = grid_resolution(4, 2)
    bad = perturbed(res, r=2, i=1, j=2, bump=Poly.monomial(mul_var(unit(4), 1)))
    out = check_complex(Session(bad, bad.phi))
    assert not out.passed and "(1, 2)" in (out.witness or "") or "b_" in (out.witness or "")


def test_check_betti_catches_quadratic_entry():
    res = grid_resolution(3, 2)
    bad = perturbed(res, r=2, i=0, j=0, bump=Poly.monomial((0, 2, 0)))
    out = check_betti_and_degrees(Session(bad, bad.phi))
    assert not out.passed


def test_check_betti_catches_constant():
    res = grid_resolution(3, 2)
    bad = perturbed(res, r=1, i=0, j=0, bump=Poly.constant(3, 1))
    out = check_betti_and_degrees(Session(bad, bad.phi))
    assert not out.passed


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
    out = check_ann_match(Session(bad, squares_phi(3)))
    assert not out.passed


def test_golden_skeleton_data_shapes():
    b1, b2, b3, b4 = golden_skeleton_d4_n2()
    assert (len(b1), len(b1[0])) == (1, 9)
    assert (len(b2), len(b2[0])) == (9, 16)
    assert (len(b3), len(b3[0])) == (16, 9)
    assert (len(b4), len(b4[0])) == (9, 1)


def test_check_skeleton_golden_and_witness():
    res = grid_resolution(4, 2, ordering="selfdual")
    out = check_skeleton(Session(res, res.phi))
    assert out.passed and "golden" in out.summary
    bad = perturbed(res, r=2, i=0, j=0, bump=Poly.monomial((0, 1, 0, 0)))
    out = check_skeleton(Session(bad, bad.phi))
    assert not out.passed


def test_check_duality_needs_selfdual_ordering():
    res = grid_resolution(4, 2)
    out = check_duality(Session(res, res.phi))
    assert not out.passed and "ordering" in (out.witness or "")


@pytest.mark.parametrize("d,n", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_check_duality(d, n):
    res = grid_resolution(d, n, ordering="selfdual")
    out = check_duality(Session(res, res.phi))
    assert out.passed, out.line()


def test_check_wlp_passes_and_swapped_variable():
    phi = grid_phi(4, 2)
    res = grid_resolution(4, 2)
    assert check_wlp(Session(res, phi)).passed
    swapped = phi.swap_variables(1, 2)
    res2 = build_resolution(swapped)
    assert check_wlp(Session(res2, swapped)).passed


def test_exactness_methods_agree():
    for d, n in [(3, 2), (4, 2)]:
        phi = grid_phi(d, n)
        res = grid_resolution(d, n)
        direct = certify_exactness(Session(res, phi, 2 * n + d), method="direct")
        les = certify_exactness(Session(res, phi, 2 * n + d), method="les")
        assert direct.ok and les.ok


def test_exactness_detects_broken_complex():
    res = grid_resolution(3, 2)
    bad = perturbed(res, r=2, i=0, j=0, bump=Poly.monomial((1, 0, 0)))
    out = certify_exactness(Session(bad, grid_phi(3, 2), 7), method="direct")
    assert not out.ok and "complex" in out.failures[0]


def test_exactness_detects_missing_syzygies():
    # zeroing the middle matrices keeps b b = 0 but destroys exactness
    res = grid_resolution(3, 2)
    bad = copy.deepcopy(res)
    for r in (2, 3):
        mat = bad.matrix(r)
        for i in range(len(mat.rows)):
            for j in range(len(mat.cols)):
                mat.entries[i][j] = Poly.zero(3)
    out = certify_exactness(Session(bad, grid_phi(3, 2), 7), method="direct")
    assert not out.ok and any("degree" in f for f in out.failures)
    out = certify_exactness(Session(bad, grid_phi(3, 2), 7), method="les")
    assert not out.ok  # the skeleton no longer matches the canonical strands


def test_exactness_distinguishes_only_dimensions():
    # a resolution of a different system with the same Hilbert function passes
    # the dimension-based exactness check; the annihilator check tells them apart
    phi = grid_phi(3, 2)
    other = random_invsys(3, 2, seed=99)
    res_other = build_resolution(other)
    assert certify_exactness(Session(res_other, phi, 7), method="direct").ok
    assert not check_ann_match(Session(res_other, phi)).passed


def test_ideal_dims_growth():
    phi = grid_phi(3, 2)
    res = grid_resolution(3, 2)
    dims = ideal_dims(res, 6)
    assert dims[0] == 0 and dims[1] == 0
    assert dims[2] == 5
    # matches dim S_e - HF for every degree
    from math import comb

    for e, v in dims.items():
        assert comb(e + 2, 2) - v == hf_value(phi, e)


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
    res = squares_resolution(3, ordering="selfdual")
    report = run_checks(res, phi, checks=["complex", "betti"])
    assert len(report.results) == 2 and report.passed
    with pytest.raises(ValueError):
        run_checks(res, phi, checks=["nope"])


def test_exactness_against_naive_rank_oracle():
    # literal spec computation on a small case: dim ker [b_r]_e == rank [b_{r+1}]_e
    # with plain exact elimination, compared against the certified engine
    from math import comb

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
    out = certify_exactness(Session(res, phi, 7), method="direct")
    assert out.ok


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
    res = build_resolution(phi, ordering="selfdual")
    report = run_checks(res, phi)
    assert report.passed, report.to_text()
    alt = build_resolution_via_straightening(phi, ordering="selfdual")
    assert all(res.matrix(r).same_entries(alt.matrix(r)) for r in range(1, 4))


def test_exactness_beyond_default_bound():
    phi = grid_phi(3, 2)
    res = grid_resolution(3, 2)
    assert certify_exactness(Session(res, phi, 12), method="direct").ok
    assert certify_exactness(Session(res, phi, 12), method="les").ok


@pytest.mark.parametrize("d", [3, 4, 5])
def test_full_suite_identity_catalecticant_family(d):
    phi = squares_phi(d)
    res = build_resolution(phi, ordering="selfdual")
    report = run_checks(res, phi)
    assert report.passed, report.to_text()


def test_report_serialization():
    phi = squares_phi(3)
    res = squares_resolution(3, ordering="selfdual")
    report = run_checks(res, phi, checks=["complex"])
    txt = report.to_text()
    assert "PASS complex" in txt and "ALL CHECKS PASSED" in txt
    doc = report.to_json_dict()
    assert doc["passed"] is True and doc["checks"][0]["name"] == "complex"


def test_session_facts_do_not_carry_into_a_perturbed_copy():
    phi = grid_phi(4, 2)
    res = grid_resolution(4, 2, ordering="selfdual")
    assert run_checks(res, phi).passed
    bad = perturbed(res, r=2, i=1, j=2, bump=Poly.monomial(mul_var(unit(4), 2)))
    verdicts = {r.name: r.passed for r in run_checks(bad, phi).results}
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
    from gorlin import exactness, invsys

    phi = grid_phi(4, 2)
    res = grid_resolution(4, 2, ordering="selfdual")
    n = res.n
    counts = Counter()
    mul = PolyMatrix.mul

    def counting_mul(self, other):
        for r in range(1, res.d):
            if self is res.matrix(r) and other is res.matrix(r + 1):
                counts[f"b_{r} b_{r + 1}"] += 1
        return mul(self, other)

    monkeypatch.setattr(PolyMatrix, "mul", counting_mul)
    _count_calls(monkeypatch, counts, "skeleton_block_failure", exactness.skeleton_block_failure)
    _count_calls(monkeypatch, counts, "ann_degree", invsys.ann_degree,
                 lambda p, j: p is phi and j == n)
    _count_calls(monkeypatch, counts, "hilbert_function", invsys.hilbert_function)
    assert run_checks(res, phi).passed
    assert counts == Counter({
        **{f"b_{r} b_{r + 1}": 1 for r in range(1, res.d)},
        "skeleton_block_failure": 1,
        "ann_degree": 1,
        "hilbert_function": 1,
    })
