import random
from fractions import Fraction
from math import comb

import pytest

from gorlin import linalg
from gorlin.invsys import (
    InadmissibleSystemError,
    InverseSystem,
    ann_degree,
    catalecticant_matrix,
    contract,
    contract_poly,
    delta_and_Q,
    from_json_dict,
    hf_value,
    hilbert_function,
    load_invsys,
    random_invsys,
    save_invsys,
    to_json_dict,
)
from gorlin.monomials import monomials_of_degree, mul, unit, variable
from gorlin.polynomials import Poly

from conftest import GRID, grid_phi, mat_mul, swap_variables
from oracles import q_of, tilde_contract


def test_construction_validation():
    with pytest.raises(ValueError):
        InverseSystem(2, 2, {})
    with pytest.raises(ValueError):
        InverseSystem(3, 1, {})
    with pytest.raises(ValueError):
        InverseSystem(3, 2, {(1, 0, 0): Fraction(1)})
    phi = InverseSystem(3, 2, {(2, 0, 0): Fraction(0), (0, 2, 0): Fraction(1)})
    assert (2, 0, 0) not in phi.coeffs  # zeros dropped
    # an inexact coefficient is refused, not rounded: 0.1 is not 1/10, and True is not 1
    for bad in (0.1, True, False):
        with pytest.raises(TypeError, match=r"\(2, 0, 0\)"):
            InverseSystem(3, 2, {(2, 0, 0): bad})
    assert InverseSystem(3, 2, {(2, 0, 0): 3}).t((2, 0, 0)) == 3
    # d and n are ints, and every exponent is a nonnegative int, though (3, -1, 0) has degree 2
    for d, n in ((3.7, 2), (3, 2.0), (True, 2), (3, True)):
        with pytest.raises(ValueError, match="must be ints"):
            InverseSystem(d, n, {})
    for key in ((3, -1, 0), (2.0, 0, 0), (True, 1, 0)):
        with pytest.raises(ValueError, match=r"is not a degree-2 monomial in 3 variables"):
            InverseSystem(3, 2, {key: 1})
    # the JSON reader refuses the same, and a monomial listed twice
    ok = [[[2, 0, 0], 1], [[0, 2, 0], "1/2"]]
    for doc, why in [
        ({"d": 3.7, "n": 2, "coefficients": ok}, "d and n must be ints"),
        ({"d": 3, "n": True, "coefficients": ok}, "d and n must be ints"),
        ({"d": 3, "n": 2, "coefficients": [[[3, -1, 0], 1]]}, r"coefficient key \(3, -1, 0\) is not a degree-2"),
        ({"d": 3, "n": 2, "coefficients": [[[2.5, -0.5, 0], 1]]}, r"coefficient key \(2.5, -0.5, 0\) is not a"),
        ({"d": 3, "n": 2, "coefficients": [*ok, [[0, 2, 0], 5]]}, r"monomial \[0, 2, 0\] is listed twice"),
    ]:
        with pytest.raises(ValueError, match="malformed inverse-system document: " + why):
            from_json_dict(doc)
    assert from_json_dict({"d": 3, "n": 2, "coefficients": ok}).coeffs == {(2, 0, 0): 1, (0, 2, 0): Fraction(1, 2)}


def test_contract_examples():
    star = {(2, 1, 0): Fraction(1)}  # (x1^2 x2)^*
    assert contract((1, 0, 0), star) == {(1, 1, 0): Fraction(1)}
    assert contract((0, 0, 1), {(2, 0, 0): Fraction(1)}) == {}
    assert contract((2, 1, 0), star) == {(0, 0, 0): Fraction(1)}


def test_catalecticant_examples(d3_squares):
    t1 = catalecticant_matrix(d3_squares, 1)
    assert t1 == linalg.identity(3)
    row = catalecticant_matrix(d3_squares, 0)
    assert len(row) == 1 and len(row[0]) == len(monomials_of_degree(3, 2))
    assert sum(1 for v in row[0] if v) == 3


def test_catalecticant_symmetric_middle():
    phi = random_invsys(4, 3, seed=2)
    t = catalecticant_matrix(phi, phi.n - 1)
    assert t == linalg.transpose(t)


def test_delta_and_q(d3_squares):
    cat = delta_and_Q(d3_squares)
    assert cat.delta == 1 and cat.scale == 1 and cat.adj == linalg.identity(3)
    phi4 = random_invsys(4, 2, seed=7)
    cat4 = delta_and_Q(phi4)
    assert len(cat4.T) == comb(2 + 4 - 2, 4 - 1) == 4
    prod = mat_mul(cat4.T, cat4.adj)
    assert prod == [[cat4.det if i == j else Fraction(0) for j in range(4)] for i in range(4)]


def test_delta_and_q_clear_denominators():
    # T' = L T for L = 6; delta = det T' / L^N and Q = adj T' / L^(N-1), N = 3
    phi = InverseSystem(3, 2, {(2, 0, 0): Fraction(1, 2), (0, 2, 0): Fraction(1, 3), (0, 0, 2): Fraction(-5),
                               (1, 1, 0): Fraction(1, 6)})
    cat = delta_and_Q(phi)
    assert cat.scale == 6 and all(isinstance(v, int) for row in cat.T + cat.adj for v in row)
    T = catalecticant_matrix(phi, 1)
    assert cat.T == [[6 * v for v in row] for row in T]
    assert cat.delta == linalg.det_bareiss(T) == Fraction(cat.det, 6**3)
    assert linalg.det_and_adjugate(T)[1] == [[Fraction(v, 6**2) for v in row] for row in cat.adj]


def test_q_map_identities():
    rng = random.Random(4)
    for d, n in [(3, 2), (4, 2), (3, 3)]:
        phi = random_invsys(d, n, seed=rng.randint(0, 99))
        cat = delta_and_Q(phi)
        monos = monomials_of_degree(d, n - 1)
        nu = {monos[0]: Fraction(1), monos[-1]: Fraction(2)}
        nu2 = {monos[1]: Fraction(1)}
        qn, qn2 = q_of(cat, nu), q_of(cat, nu2)

        def apply(p, dual):
            out = contract_poly(p, dual)
            return out.get(unit(d), Fraction(0))

        assert apply(qn, nu2) == apply(qn2, nu)
        # applying q(nu) to the whole system scales nu by delta
        full = contract_poly(qn, phi.coeffs)
        assert full == {m: cat.delta * c for m, c in nu.items() if c}


def test_q_identity_catalecticant(d3_squares):
    cat = delta_and_Q(d3_squares)
    for i in range(1, 4):
        nu = {variable(3, i): Fraction(1)}
        assert q_of(cat, nu) == Poly.monomial(variable(3, i))


def test_tilde_contract(d3_squares):
    got = tilde_contract(d3_squares, variable(3, 2))
    assert got == {(1, 1, 0): Fraction(1)}
    full = tilde_contract(d3_squares, unit(3))
    assert full == {mul((1, 0, 0), m): c for m, c in d3_squares.coeffs.items()}
    with pytest.raises(ValueError):
        tilde_contract(d3_squares, (1, 0, 0))


def test_lefschetz_style_annihilation_identity():
    # delta*mu - x1*q(mu(lift)) kills the system, for every degree-n monomial in x2..xd
    for d, n in [(3, 2), (4, 2), (3, 3)]:
        phi = random_invsys(d, n, seed=13)
        cat = delta_and_Q(phi)
        for mu in monomials_of_degree(d, n, low_var=2):
            g = Poly.monomial(mu, cat.delta) - Poly.monomial(variable(d, 1)) * q_of(cat, tilde_contract(phi, mu))
            assert contract_poly(g, phi.coeffs) == {}


def test_ann_degree(d3_squares):
    assert len(ann_degree(d3_squares, 2)) == 5
    for g in ann_degree(d3_squares, 2):
        assert contract_poly(g, d3_squares.coeffs) == {}
    assert ann_degree(d3_squares, 1) == []
    top = ann_degree(d3_squares, 3)
    assert len(top) == len(monomials_of_degree(3, 3))


def test_ann_vanishes_below_generation_degree():
    for d, n in [(3, 2), (4, 3)]:
        phi = grid_phi(d, n)
        assert ann_degree(phi, n - 1) == []
        assert ann_degree(phi, 0) == []


def test_catalecticant_degree_zero_row_values():
    phi = grid_phi(3, 2)
    row = catalecticant_matrix(phi, 0)[0]
    assert row == [phi.t(m) for m in monomials_of_degree(3, 2)]


def test_hilbert_function(d3_squares):
    assert hilbert_function(d3_squares) == [1, 3, 1]
    phi = random_invsys(4, 2, seed=7)
    assert hilbert_function(phi) == [1, 4, 1]
    phi = random_invsys(4, 3, seed=3)
    hf = hilbert_function(phi)
    assert hf == hf[::-1] and hf[0] == 1 and hf[1] == 4


def test_hilbert_function_is_read_off_one_catalecticant(monkeypatch):
    from gorlin import invsys

    rng = random.Random(3)
    fractional = InverseSystem(4, 3, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                      for m in monomials_of_degree(4, 4)})
    cases = [grid_phi(d, n) for d, n in GRID] + [fractional, swap_variables(grid_phi(4, 3), 1, 4)]
    for phi in cases:
        want = [hf_value(phi, e) for e in range(phi.socle_degree + 1)]
        calls = []
        monkeypatch.setattr(invsys, "hf_value", lambda p, e: calls.append(e) or hf_value(p, e))
        assert hilbert_function(phi) == want
        monkeypatch.undo()
        assert calls == [phi.n - 1]


def test_hilbert_needs_admissible():
    zero = InverseSystem(3, 2, {})
    with pytest.raises(InadmissibleSystemError):
        hilbert_function(zero)


def test_random_invsys_deterministic():
    a = random_invsys(3, 2, seed=1, coeff_bound=5)
    b = random_invsys(3, 2, seed=1, coeff_bound=5)
    assert a.coeffs == b.coeffs
    delta_and_Q(a)  # admissible: does not raise
    c = random_invsys(3, 2, seed=2, coeff_bound=5)
    assert c.coeffs != a.coeffs
    with pytest.raises(InadmissibleSystemError):
        random_invsys(3, 2, seed=1, coeff_bound=0)


def test_grid_instances_admissible():
    for d, n in GRID:
        delta_and_Q(grid_phi(d, n))  # does not raise


def test_inadmissible_system_costs_one_determinant(monkeypatch):
    # rank 2 middle catalecticant of size 10: refused after one determinant, no adjugate
    calls = []
    det = linalg.det_bareiss
    monkeypatch.setattr(linalg, "det_bareiss", lambda m: calls.append(len(m)) or det(m))
    phi = InverseSystem(4, 3, {(4, 0, 0, 0): Fraction(1), (0, 4, 0, 0): Fraction(1)})
    with pytest.raises(InadmissibleSystemError, match="determinant 0"):
        delta_and_Q(phi)
    assert calls == [10]


def test_swap_variables():
    phi = random_invsys(3, 2, seed=1)
    sw = swap_variables(phi, 1, 2)
    assert sw.t((2, 0, 0)) == phi.t((0, 2, 0))
    assert sw.t((1, 1, 0)) == phi.t((1, 1, 0))
    assert delta_and_Q(sw).delta in (delta_and_Q(phi).delta, -delta_and_Q(phi).delta)


def test_file_round_trip(tmp_path):
    phi = InverseSystem(3, 2, {
        (2, 0, 0): Fraction(3, 7),
        (0, 1, 1): Fraction(-12345678901234567890),
        (0, 0, 2): Fraction(1),
    })
    path = tmp_path / "phi.json"
    save_invsys(phi, str(path))
    back = load_invsys(str(path))
    assert back.d == phi.d and back.n == phi.n and back.coeffs == phi.coeffs
    assert from_json_dict(to_json_dict(phi)).coeffs == phi.coeffs


def test_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_invsys(str(path))
    path.write_text('{"d": 3, "n": 2}')
    with pytest.raises(ValueError):
        load_invsys(str(path))
