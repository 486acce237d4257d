"""Acceptance criteria, one test each, with a pass/fail line per criterion.

Run with:  pytest tests/test_acceptance.py -v -s
All tolerances are exact (rational arithmetic); runtime targets are asserted
where the criteria state them.
"""

import subprocess
import sys
import time
from fractions import Fraction

from gorlin.differentials import build_resolution
from gorlin.exactness import Session, certify_exactness
from gorlin.invsys import (
    InverseSystem,
    ann_degree,
    random_invsys,
    save_invsys,
    sum_of_powers,
)
from gorlin.linalg import rank
from gorlin.monomials import monomials_of_degree
from gorlin.polynomials import poly_str
from gorlin.verify import check_duality, check_euler_hilbert, check_wlp

from conftest import (
    GRID,
    constant_term,
    dense,
    grid_phi,
    grid_resolution,
    is_homogeneous,
    scaled,
    swap_variables,
)
from oracles import Poly, contract_poly, golden_skeleton_d4_n2, route_disagreement, transpose


def passline(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_betti_shapes_d4_n2():
    t0 = time.time()
    phi = random_invsys(4, 2, seed=77)
    res = build_resolution(phi)
    elapsed = time.time() - t0
    shapes = [res.matrix(r).shape for r in range(1, 5)]
    assert shapes == [(1, 9), (9, 16), (16, 9), (9, 1)]
    assert res.twists == (0, 2, 3, 4, 6)
    assert elapsed < 1.0
    passline(1, f"d=4, n=2 shapes {shapes}, twists {res.twists} ({elapsed:.2f}s)")


def test_criterion_2_golden_skeleton_d4_n2():
    t0 = time.time()
    phi = random_invsys(4, 2, seed=7)
    res = build_resolution(phi)
    golden = golden_skeleton_d4_n2()
    delta_inv = Fraction(1) / res.delta
    for r in range(1, 5):
        reduced = scaled(res.matrix(r).mod_x1(), delta_inv)
        assert dense(reduced) == golden[r - 1], f"matrix {r}"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    passline(2, f"mod-x1 matrices equal delta times the golden d=4, n=2 skeleton ({elapsed:.2f}s)")


def test_criterion_3_complex_minimality_linearity_grid():
    t0 = time.time()
    for d, n in GRID:
        phi = grid_phi(d, n)
        res = build_resolution(phi)
        for r in range(1, d):
            prod = res.matrix(r).mul(res.matrix(r + 1))
            assert not any(prod), (d, n, r)
        for r in range(1, d + 1):
            want = n if r in (1, d) else 1
            for _, _, p in res.matrix(r).nonzero():
                assert is_homogeneous(p) and Poly(d, p).degree() == want
                assert not constant_term(p)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    passline(3, f"complex, minimal, degree pattern (n,1,...,1,n) on all of {GRID} ({elapsed:.1f}s)")


def test_criterion_4_dual_path_oracle():
    for d, n in GRID:
        assert route_disagreement(grid_resolution(d, n)) is None, (d, n)
    passline(4, f"closed-form interior cofactors == straightening route on {GRID}")


def test_criterion_5_annihilator_oracle():
    for d, n in GRID:
        phi = grid_phi(d, n)
        res = grid_resolution(d, n)
        cols = dense(res.matrix(1))[0]
        for g in cols:
            assert contract_poly(g, phi.coeffs) == {}
        monos = monomials_of_degree(d, n)
        midx = {m: i for i, m in enumerate(monos)}

        def vec(p):
            v = [Fraction(0)] * len(monos)
            for m, c in p.items():
                v[midx[m]] = c
            return v

        oracle = ann_degree(phi, n)
        beta1 = res.betti[1]
        assert rank([vec(g) for g in cols]) == beta1
        assert len(oracle) == beta1
        assert rank([vec(g) for g in cols + oracle]) == beta1
    # frozen columns on the identity-catalecticant instance
    res = build_resolution(sum_of_powers(3, 2))
    cols = [poly_str(p) for p in dense(res.matrix(1))[0]]
    assert cols == ["x1*x2", "x1*x3", "-x1^2 + x2^2", "x2*x3", "-x1^2 + x3^2"]
    passline(5, "b_1 columns = degree-n annihilator (all grid points; frozen d=3 columns)")


def test_criterion_6_degreewise_exactness_and_euler():
    t0 = time.time()
    for d, n in GRID:
        phi = grid_phi(d, n)
        res = grid_resolution(d, n)
        session = Session(res, phi)
        assert certify_exactness(session) == [], (d, n)
        euler = check_euler_hilbert(session)
        assert euler.passed, (d, n)
    res42 = grid_resolution(4, 2)
    euler42 = check_euler_hilbert(Session(res42, grid_phi(4, 2)))
    assert "[1, 0, -9, 16, -9, 0, 1]" in euler42.summary
    elapsed = time.time() - t0
    assert elapsed < 120.0
    passline(6, f"exact in every degree <= 2n+d with coker/Euler identities on {GRID} ({elapsed:.1f}s)")


def test_criterion_7_duality_suite():
    for d, n in GRID:
        res = grid_resolution(d, n)
        assert transpose(dense(res.matrix(1))) == dense(res.matrix(d)), (d, n)
        out = check_duality(Session(res, res.phi))
        assert out.passed, (d, n, out.line())
    # d=3 alternating middle matrix, spelled out
    res3 = grid_resolution(3, 2)
    m = dense(res3.matrix(2))
    assert all(Poly(3, m[i][j]) == -Poly(3, m[j][i]) for i in range(5) for j in range(5))
    # d=4 block relation, spelled out
    res4 = grid_resolution(4, 2)
    half = len(res4.bases[2]) // 2
    b2, b3 = dense(res4.matrix(2)), dense(res4.matrix(3))
    blocks = transpose([row[half:] for row in b2]) + transpose([row[:half] for row in b2])
    assert [[(-Poly(4, p)).terms for p in row] for row in blocks] == b3
    passline(7, "b_d = b_1^T in dual bases; d=3 alternating; d=4 block relation; product rule on the grid")


def test_criterion_8_weak_lefschetz():
    for d, n in GRID:
        phi = grid_phi(d, n)
        assert check_wlp(Session(grid_resolution(d, n), phi)).passed, (d, n)
        promoted = swap_variables(phi, 1, 2)
        res2 = build_resolution(promoted)
        assert check_wlp(Session(res2, promoted)).passed, (d, n, "promoted x2")
    passline(8, "multiplication by the distinguished variable is surjective in the critical degree "
                "(grid, and again with x2 promoted)")


def test_criterion_9_inadmissibility_exit_codes(tmp_path):
    # the zero system: generation exhausts its retry budget
    proc = subprocess.run(
        [sys.executable, "-m", "gorlin.cli", "resolve", "--d", "3", "--n", "2",
         "--seed", "1", "--bound", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "admissible" in proc.stderr
    # a rank-deficient hand-built system: determinant-zero diagnostic
    phi = InverseSystem(3, 2, {(2, 0, 0): Fraction(1), (1, 1, 0): Fraction(2)})
    path = tmp_path / "degenerate.json"
    save_invsys(phi, str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "gorlin.cli", "verify", "--input", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "determinant 0" in proc.stderr
    passline(9, "zero and rank-deficient systems rejected with determinant-zero diagnostics, exit code 2")
