"""Basis enumeration, straightening (against a brute-force ambient oracle), duality."""

from itertools import combinations

import pytest

from gorlin.hookbasis import (
    BasisElement,
    duality_basis,
    enumerate_basis,
    expand_kappa,
    gamma_of,
    is_standard,
    pp_dual_basis,
    pp_dual_element,
    pp_value,
    rank_formulas,
    skeleton_kos_blocks,
    xd,
    y0,
)
from gorlin.monomials import div_var, least, monomials_of_degree, mul_var, var_divides

from conftest import column
from oracles import assemble, expand_eta, skeleton_matrices


def M(*e):
    return tuple(e)


# ---------------------------------------------------------------------------
# ambient brute-force oracle: wedge (x) dual/symmetric coordinates with the
# left-contraction convention on the first slot
# ---------------------------------------------------------------------------


def eta_ambient(vec):
    """One Eagon-Northcott step on {(wedge tuple, monomial): coeff} vectors."""
    out = {}
    for (w, m), c in vec.items():
        for pos, wi in enumerate(w):
            if var_divides(wi, m):
                key = (w[:pos] + w[pos + 1:], div_var(m, wi))
                out[key] = out.get(key, 0) + c * (-1) ** pos
    return {k: v for k, v in out.items() if v}


def kappa_ambient(vec):
    """One Koszul step on {(wedge tuple, monomial): coeff} vectors."""
    out = {}
    for (w, m), c in vec.items():
        for pos, wi in enumerate(w):
            key = (w[:pos] + w[pos + 1:], mul_var(m, wi))
            out[key] = out.get(key, 0) + c * (-1) ** pos
    return {k: v for k, v in out.items() if v}


def embed_x(e: BasisElement):
    return eta_ambient({(e.a, e.m): 1})


def embed_y(e: BasisElement):
    return kappa_ambient({(e.a, e.m): 1})


def all_cm_pairs(d, n, size, kind):
    deg = n if kind == "X" else n - 1
    for c in combinations(range(2, d + 1), size):
        for m in monomials_of_degree(d, deg, low_var=2):
            yield c, m


def test_eta_kappa_square_to_zero():
    for d, n in [(4, 2), (5, 3)]:
        for c, m in all_cm_pairs(d, n, 2, "X"):
            assert eta_ambient(eta_ambient({(c, m): 1})) == {}
        for c, m in all_cm_pairs(d, n, 2, "Y"):
            assert kappa_ambient(kappa_ambient({(c, m): 1})) == {}


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_expand_eta_against_ambient(d, n):
    for size in range(1, d - 1):
        for c, m in all_cm_pairs(d, n, size, "X"):
            lhs = eta_ambient({(c, m): 1})
            rhs = {}
            for coeff, tgt in expand_eta(c, m):
                assert tgt.kind == "X" and least(tgt.m) <= gamma_of(tgt.a)
                for key, v in embed_x(tgt).items():
                    rhs[key] = rhs.get(key, 0) + coeff * v
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs, (c, m)


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_expand_kappa_against_ambient(d, n):
    for size in range(1, d - 1):
        for c, m in all_cm_pairs(d, n, size, "Y"):
            lhs = kappa_ambient({(c, m): 1})
            rhs = {}
            for coeff, tgt in expand_kappa(c, m):
                assert tgt.kind == "Y" and tgt.a[0] <= least(tgt.m)
                for key, v in embed_y(tgt).items():
                    rhs[key] = rhs.get(key, 0) + coeff * v
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs, (c, m)


def test_expand_eta_examples():
    # already standard
    assert expand_eta((2, 3), M(0, 2, 0, 0)) == [(1, BasisElement("X", 2, (2, 3), M(0, 2, 0, 0)))]
    # g = 1, least(m) = 3: the index 2 is inserted
    out = expand_eta((3, 4), M(0, 0, 1, 1))
    assert sorted((c, t.a, t.m) for c, t in out) == [
        (-1, (2, 3), M(0, 1, 1, 0)),
        (1, (2, 4), M(0, 1, 0, 1)),
    ]
    # single surviving term
    out = expand_eta((3,), M(0, 0, 0, 2))
    assert [(c, t.a, t.m) for c, t in out] == []
    out = expand_eta((4,), M(0, 0, 0, 2))
    assert [(c, t.a, t.m) for c, t in out] == [(1, (2,), M(0, 1, 0, 1))]


def test_expand_kappa_examples():
    assert expand_kappa((2, 4), M(0, 1, 0, 0)) == [(1, BasisElement("Y", 2, (2, 4), M(0, 1, 0, 0)))]
    out = expand_kappa((3, 4), M(0, 1, 0, 0))
    assert [(c, t.a, t.m) for c, t in out] == [
        (1, (2, 4), M(0, 0, 1, 0)),
        (-1, (2, 3), M(0, 0, 0, 1)),
    ]
    out = expand_kappa((4,), M(0, 0, 1, 0))
    assert [(c, t.a, t.m) for c, t in out] == [(1, (3,), M(0, 0, 0, 1))]


def test_rank_formula_examples():
    assert rank_formulas(4, 2, 2) == (8, 8, 16)
    assert rank_formulas(4, 2, 1) == (3, 6, 9)
    assert rank_formulas(3, 2, 1) == (2, 3, 5)
    assert rank_formulas(3, 3, 1)[2] == 7


def test_enumerate_basis_examples():
    b1 = enumerate_basis(3, 2, 1)
    labels = [(e.kind, e.a, e.m) for _, e in b1]
    assert labels == [
        ("X", (2,), M(0, 2, 0)),
        ("X", (2,), M(0, 1, 1)),
        ("Y", (2,), M(0, 1, 0)),
        ("Y", (2,), M(0, 0, 1)),
        ("Y", (3,), M(0, 0, 1)),
    ]
    b2 = enumerate_basis(4, 2, 2)
    assert len(b2) == 16
    assert sum(1 for _, e in b2 if e.kind == "X") == 8
    assert enumerate_basis(4, 2, 0).elements == ((1, y0(4)),)
    assert enumerate_basis(4, 2, 4).elements == ((1, xd(4)),)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_counts_match_rank_formulas(d, n):
    for r in range(1, d):
        k, ell, beta = rank_formulas(d, n, r)
        basis = enumerate_basis(d, n, r)
        assert len(basis.part("X")) == k
        assert len(basis.part("Y")) == ell
        assert len(basis) == beta
        assert all(s == 1 for s, _ in basis)
        # the rule that duality_basis checks the partners past the middle by
        assert all(is_standard(e, n) for _, e in basis)
        assert not any(is_standard(e, n + 1) for _, e in basis)


@pytest.mark.parametrize("d,n", [(3, 2), (4, 3), (5, 2)])
def test_the_membership_rule_picks_the_standard_basis(d, n):
    # every kind, index list of r entries in 1..d+1 and monomial in x1..xd of degree n or n-1, at
    # every r: the rule keeps exactly the elements that enumerate_basis lists
    candidates = {BasisElement(kind, r, a, m) for r in range(d + 1) for kind, deg in (("X", n), ("Y", n - 1))
                  for a in combinations(range(1, d + 2), r) for m in monomials_of_degree(d, deg)}
    candidates |= {y0(d), xd(d)}
    standard = {e for r in range(d + 1) for _, e in enumerate_basis(d, n, r)}
    assert {e for e in candidates if is_standard(e, n)} == standard


def test_duality_basis_refuses_partners_that_are_not_the_standard_basis(monkeypatch):
    # past the middle the basis is the partners of its complement: a repeated partner, or one
    # off the membership rule with the count kept, fails the assertion
    from gorlin import hookbasis

    real, first = pp_dual_element, enumerate_basis(5, 2, 2).elements[0][1]
    off_rule = BasisElement("X", 3, (3, 4, 5), M(0, 0, 1, 1, 0))  # least(m) = 3 > gamma = 1
    assert not is_standard(off_rule, 2)
    for fake in (lambda e: real(first), lambda e: (1, off_rule) if e == first else real(e)):
        monkeypatch.setattr(hookbasis, "pp_dual_element", fake)
        with pytest.raises(AssertionError):
            duality_basis.__wrapped__(5, 2, 3)
    monkeypatch.setattr(hookbasis, "pp_dual_element", real)
    assert duality_basis.__wrapped__(5, 2, 3) == duality_basis(5, 2, 3)


def test_basis_element_validation():
    # a malformed element is not a basis element: the membership rule rejects it, and assembly
    # refuses it as a target
    for elt in [
        BasisElement("X", 2, (3, 4), M(0, 0, 1, 1)),  # least(m)=3 > gamma=1
        BasisElement("Y", 2, (3, 4), M(0, 1, 0, 0)),  # least(m)=2 < a1
        BasisElement("X", 2, (3, 2), M(0, 2, 0, 0)),  # unsorted index list
        BasisElement("Y", 1, (2,), M(1, 1, 0, 0)),  # x1 in the monomial
    ]:
        assert not is_standard(elt, 2)
        rows, cols = duality_basis(4, 2, elt.r), duality_basis(4, 2, elt.r + 1)
        with pytest.raises(KeyError):
            assemble(rows, cols, [{elt: {M(0, 0, 0, 0): 1}}] + [{}] * (len(cols) - 1))


def test_kos_blocks_compose_to_zero():
    for d, n in [(4, 2), (5, 3)]:
        for r in range(2, d - 1):
            k_hi, l_hi = skeleton_kos_blocks(skeleton_matrices(d, n)[r])
            k_lo, l_lo = skeleton_kos_blocks(skeleton_matrices(d, n)[r - 1])
            for lo, hi in [(k_lo, k_hi), (l_lo, l_hi)]:
                assert not any(lo.mul(hi))


def test_kos_block_column_structure():
    # every nonzero entry is a single signed variable; straightening can
    # spread one Koszul slot over several targets, so columns carry at most
    # 2r-1 entries (not r: that bound only holds before straightening)
    for d, n in [(4, 2), (5, 3)]:
        for r in range(2, d):
            for blk in skeleton_kos_blocks(skeleton_matrices(d, n)[r - 1]):
                for j in range(len(blk.cols)):
                    nz = [p for p in column(blk, j) if p]
                    assert len(nz) <= 2 * r - 1
                    for p in nz:
                        (m, c), = p.items()
                        assert sum(m) == 1 and m[0] == 0 and abs(c) == 1


def test_pp_value_structure():
    # the complete duality check reads the pairing of the self-dual bases as a
    # signed permutation; at even d their middle pairing is not the identity
    cases = [(4, 2, enumerate_basis)] + [(d, n, duality_basis) for d, n in [(3, 2), (4, 3), (5, 2), (6, 2)]]
    for d, n, bases in cases:
        for r in range(d + 1):
            br = bases(d, n, r)
            bdr = bases(d, n, d - r)
            rows = []
            for _, e1 in br:
                rows.append([pp_value(e1, e2) for _, e2 in bdr])
            # signed permutation: one nonzero entry per row and per column
            for row in rows:
                assert sum(1 for v in row if v) == 1 and all(v in (-1, 0, 1) for v in row)
            for j in range(len(bdr)):
                assert sum(1 for row in rows if row[j]) == 1
            # X-X and Y-Y pairs vanish
            for s1, e1 in br:
                for s2, e2 in bdr:
                    if e1.kind == e2.kind and 0 < r < d:
                        assert pp_value(e1, e2) == 0


def test_pp_graded_commutativity():
    d, n = 5, 2
    for r in range(d + 1):
        for _, e1 in enumerate_basis(d, n, r):
            for _, e2 in enumerate_basis(d, n, d - r):
                assert pp_value(e1, e2) == (-1) ** (r * (d - r)) * pp_value(e2, e1)


def test_dual_basis_is_pp_dual():
    for d, n in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        for r in range(d + 1):
            raw = enumerate_basis(d, n, r)
            dual = pp_dual_basis(raw)
            for i, (s1, e1) in enumerate(raw):
                for j, (s2, e2) in enumerate(dual):
                    assert s1 * s2 * pp_value(e1, e2) == (1 if i == j else 0)


def test_dual_of_dual_sign():
    for d, n in [(4, 2), (5, 2)]:
        for r in range(d + 1):
            raw = enumerate_basis(d, n, r)
            dd = pp_dual_basis(pp_dual_basis(raw))
            sign = (-1) ** (r * (d - r))
            assert dd.elements == tuple((sign * s, e) for s, e in raw.elements)


def test_duality_basis_printed_examples():
    # d = 3: first block of the middle basis is the negated Y(2,3) block
    b2 = duality_basis(3, 2, 2)
    got = [(s, e.kind, e.a, e.m) for s, e in b2]
    assert got == [
        (-1, "Y", (2, 3), M(0, 1, 0)),
        (-1, "Y", (2, 3), M(0, 0, 1)),
        (1, "X", (2, 3), M(0, 2, 0)),
        (1, "X", (2, 3), M(0, 1, 1)),
        (1, "X", (2, 3), M(0, 0, 2)),
    ]
    # d = 4: the dual completion of the degree-3 basis from the printed example
    b3 = duality_basis(4, 2, 3)
    got = [(s, e.kind, e.a, e.m) for s, e in b3]
    assert got[:3] == [
        (-1, "Y", (2, 3, 4), M(0, 1, 0, 0)),
        (-1, "Y", (2, 3, 4), M(0, 0, 1, 0)),
        (-1, "Y", (2, 3, 4), M(0, 0, 0, 1)),
    ]
    assert [g[1] for g in got[3:]] == ["X"] * 6
    # middle basis of even d pairs block-to-block (offset n^2 + 2n when d = 4)
    for n in (2, 3):
        f = duality_basis(4, n, 2)
        half = len(f) // 2
        assert half == n * n + 2 * n
        for i, (s1, e1) in enumerate(f):
            for j, (s2, e2) in enumerate(f):
                expected = 1 if abs(i - j) == half else 0
                assert s1 * s2 * pp_value(e1, e2) == expected


@pytest.mark.parametrize("d", range(3, 9))
def test_duality_basis_pairing_matrices(d):
    # P_k, the pairing of positions k and d-k, is the identity for odd d; for
    # even d it is a signed swap of the X and Y blocks at the middle and -I
    # at every odd k past the middle
    n = 2
    for k in range(d + 1):
        rows, cols = duality_basis(d, n, k), duality_basis(d, n, d - k)
        got = {(i, j): v for i, (s1, e1) in enumerate(rows) for j, (s2, e2) in enumerate(cols)
               if (v := s1 * s2 * pp_value(e1, e2))}
        if 2 * k == d:
            half = len(rows) // 2
            assert [e.kind for _, e in rows] == ["X"] * half + ["Y"] * half
            want = {(i, i + half): 1 for i in range(half)} | {(i + half, i): (-1) ** k for i in range(half)}
        else:
            sign = -1 if d % 2 == 0 and k % 2 == 1 and 2 * k > d else 1
            want = {(i, i): sign for i in range(len(rows))}
        assert got == want, (d, k)


def test_pp_dual_element_roundtrip():
    d, n = 5, 3
    for r in range(d + 1):
        for _, e in enumerate_basis(d, n, r):
            v, partner = pp_dual_element(e)
            assert v * pp_value(e, partner) == 1
