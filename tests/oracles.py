"""Reference computations that the verification path is tested against.

None of these runs in ``verify``: each computes a fact the package proves
another way, by a route that is slower or more literal.

* ``certify_exactness_direct`` certifies exactness on the full graded
  pieces of B, where ``exactness.certify_exactness`` goes through the
  skeleton strands and the long exact sequence.
* ``ideal_dims_by_rref`` finds dim I_e, for I the ideal of the b_1 columns,
  by exact rational elimination degree by degree, where
  ``exactness.ideal_dims`` pins it by saturation against the annihilator.
* ``det_and_adjugate_by_solve`` finds a determinant by Bareiss elimination
  in ``Fraction`` arithmetic and the adjugate by solving ``m X = det * I``
  with ``linalg.rref``, where ``linalg.det_and_adjugate`` runs one integer
  fraction-free Gauss-Jordan elimination.
* ``golden_skeleton_d4_n2`` parses the mod-x1 matrices at d = 4, n = 2,
  written out entry by entry, which ``differentials.canonical_skeleton(4, 2)``
  must reproduce verbatim.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from gorlin import linalg
from gorlin.differentials import Resolution
from gorlin.exactness import (
    ExactnessOutcome,
    Session,
    _certify_chain,
    _not_a_complex,
    graded_piece,
)
from gorlin.monomials import monomials_of_degree, mul_var, unit
from gorlin.polymatrix import denominator_lcm
from gorlin.polynomials import Poly, coeff_rows


def position_dims(res: Resolution, e: int) -> list[int]:
    """dim (B_r)_e for r = 0..d."""
    d = res.d
    return [b * comb(e - t + d - 1, d - 1) if e >= t else 0 for b, t in zip(res.betti, res.twists)]


def certify_exactness_direct(s: Session, dmax: int) -> ExactnessOutcome:
    """Saturated-rank certification on the full graded pieces of the resolution, up to degree dmax."""
    res = s.res
    out = ExactnessOutcome(ok=True)
    if _not_a_complex(s, out):
        return out
    d = res.d
    twists = res.twists
    scales = [denominator_lcm(res.matrix(r)) for r in range(1, d + 1)]
    for e in range(0, dmax + 1):
        ms = position_dims(res, e)
        pieces = {
            r: graded_piece(res.matrix(r), e - twists[r - 1], e - twists[r], scale=scales[r - 1])
            for r in range(1, d + 1)
            if ms[r] > 0
        }
        ok, ns, witness = _certify_chain(pieces, ms, 1, out.notes)
        if ok and ms[0] - ns[1] != s.hf(e):
            ok, witness = False, f"cokernel dimension {ms[0] - ns[1]} != {s.hf(e)}"
        if not ok:
            out.ok = False
            out.failures.append(f"exactness fails in degree {e}: {witness}")
    return out


def det_and_adjugate_by_solve(m: list[list[Fraction]]):
    """(det m, adj m) in Fraction arithmetic; (0, None) for a singular m."""
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if not a[k][k]:
            pr = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pr is None:
                return 0, None
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pk - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pk
    det = sign * a[n - 1][n - 1] if n else Fraction(1)
    if det == 0:
        return 0, None
    aug = [[Fraction(v) for v in row] + [det if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = linalg.rref(aug)
    assert pivots[:n] == list(range(n))
    return det, [row[n:] for row in red]


def ideal_dims_by_rref(res: Resolution, dmax: int) -> dict[int, int]:
    """dim of each graded piece, up to dmax, of the ideal spanned by the b_1 columns.

    A row-reduced basis of I_{e-1} times every variable spans I_e, which is
    row-reduced in turn.
    """
    d, n = res.d, res.n
    gens = res.matrix(1).entries[0]
    dims: dict[int, int] = {e: 0 for e in range(0, min(n, dmax + 1))}
    if dmax < n:
        return dims
    monos = monomials_of_degree(d, n)
    basis, _ = linalg.rref(coeff_rows(gens, monos))
    basis = [r for r in basis if any(r)]
    dims[n] = len(basis)
    for e in range(n + 1, dmax + 1):
        prev_monos = monos
        monos = monomials_of_degree(d, e)
        if dims[e - 1] == len(prev_monos):
            dims[e] = len(monos)
            basis = None
            continue
        midx = {m: i for i, m in enumerate(monos)}
        cand = []
        for v in basis:
            for i in range(1, d + 1):
                w = [Fraction(0)] * len(monos)
                for k, c in enumerate(v):
                    if c:
                        w[midx[mul_var(prev_monos[k], i)]] = c
                cand.append(w)
        basis, _ = linalg.rref(cand)
        basis = [r for r in basis if any(r)]
        dims[e] = len(basis)
    return dims


_GOLDEN_D4_N2_B2 = (
    "x3 -x2 0 0 0 x4 0 -x2 0 0 0 0 0 0 0 0",
    "0 x3 0 -x2 0 0 x4 0 0 0 0 0 0 0 0 0",
    "0 0 x3 0 -x2 0 0 x4 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 x4 0 0 0 0 -x3 0 0",
    "0 0 0 0 0 0 0 0 0 x4 0 0 0 x2 -x3 0",
    "0 0 0 0 0 0 0 0 -x2 0 x4 0 0 0 0 -x3",
    "0 0 0 0 0 0 0 0 0 0 0 x4 0 0 x2 0",
    "0 0 0 0 0 0 0 0 0 -x2 0 -x3 x4 0 0 x2",
    "0 0 0 0 0 0 0 0 0 0 -x2 0 -x3 0 0 0",
)

_GOLDEN_D4_N2_B3 = (
    "0 0 0 -x4 0 x2 0 0 0",
    "0 0 0 0 -x4 0 0 x2 0",
    "0 0 0 0 0 -x4 0 0 x2",
    "0 0 0 0 0 0 -x4 x3 0",
    "0 0 0 0 0 0 0 -x4 x3",
    "0 0 0 x3 -x2 0 0 0 0",
    "0 0 0 0 x3 0 -x2 0 0",
    "0 0 0 0 0 x3 0 -x2 0",
    "-x3 0 0 0 0 0 0 0 0",
    "x2 -x3 0 0 0 0 0 0 0",
    "0 0 -x3 0 0 0 0 0 0",
    "0 x2 0 0 0 0 0 0 0",
    "0 0 x2 0 0 0 0 0 0",
    "-x4 0 0 0 0 0 0 0 0",
    "0 -x4 0 0 0 0 0 0 0",
    "x2 0 -x4 0 0 0 0 0 0",
)

_GOLDEN_D4_N2_B1 = ("0 0 0 x2^2 x2*x3 x2*x4 x3^2 x3*x4 x4^2",)


def _parse_entry(token: str, d: int) -> Poly:
    sign = 1
    if token.startswith("-"):
        sign = -1
        token = token[1:]
    if token == "0":
        return Poly.zero(d)
    mono = unit(d)
    for factor in token.split("*"):
        if "^" in factor:
            name, e = factor.split("^")
            e = int(e)
        else:
            name, e = factor, 1
        i = int(name[1:])
        for _ in range(e):
            mono = mul_var(mono, i)
    return Poly.monomial(mono, sign)


def golden_skeleton_d4_n2(d: int = 4) -> tuple[list[list[Poly]], ...]:
    """Golden mod-x1 matrices for d = 4, n = 2 (without the delta factor)."""
    def parse(rows):
        return [[_parse_entry(tok, d) for tok in line.split()] for line in rows]

    b1 = parse(_GOLDEN_D4_N2_B1)
    b2 = parse(_GOLDEN_D4_N2_B2)
    b3 = parse(_GOLDEN_D4_N2_B3)
    b4 = linalg.transpose(b1)
    return b1, b2, b3, b4
