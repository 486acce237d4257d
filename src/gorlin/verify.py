"""Structural verification of a built resolution.

Every check is exact: a pass is a statement about the instance, proved in
rational arithmetic (rank saturation certificates included), never a
numerical approximation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import linalg
from .differentials import Resolution
from .exactness import Session, certify_exactness, strand_certificate
from .hookbasis import pp_value, rank_formulas
from .invsys import InverseSystem, contract_poly
from .monomials import monomials_of_degree, mul_var, unit
from .polymatrix import entries_transpose
from .polynomials import Poly, coeff_rows, poly_str

CHECK_NAMES = ("complex", "betti", "euler", "ann", "skeleton", "duality", "exactness", "wlp")


@dataclass
class CheckResult:
    name: str
    passed: bool
    summary: str
    witness: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.witness}]" if self.witness else ""
        return f"{status} {self.name}: {self.summary}{extra}"


@dataclass
class Report:
    d: int
    n: int
    delta: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        head = f"verification report (d={self.d}, n={self.n}, delta={self.delta})"
        body = "\n".join(r.line() for r in self.results)
        verdict = "ALL CHECKS PASSED" if self.passed else "CHECK FAILURES PRESENT"
        return f"{head}\n{body}\n{verdict}\n"

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "delta": self.delta,
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "summary": r.summary, "witness": r.witness}
                for r in self.results
            ],
        }


def check_complex(s: Session) -> CheckResult:
    """All consecutive products of the differential matrices vanish exactly."""
    if s.complex_failure is not None:
        r, i, j, p = s.complex_failure
        return CheckResult("complex", False, "differentials do not compose to zero",
                           f"b_{r} b_{r + 1} at ({i}, {j}) = {poly_str(p)}")
    return CheckResult("complex", True, "b_r b_{r+1} = 0 for all r")


def check_betti_and_degrees(s: Session) -> CheckResult:
    """Shapes, twists, entry degrees (n, 1, ..., 1, n), and minimality."""
    res = s.res
    d, n = res.d, res.n
    expected = (1,) + tuple(rank_formulas(d, n, r)[2] for r in range(1, d)) + (1,)
    if res.betti != expected:
        return CheckResult("betti", False, "Betti numbers differ from the closed formula",
                           f"got {res.betti}, expected {expected}")
    expected_twists = (0,) + tuple(n + r - 1 for r in range(1, d)) + (2 * n + d - 2,)
    if res.twists != expected_twists:
        return CheckResult("betti", False, "twist list is wrong",
                           f"got {res.twists}, expected {expected_twists}")
    for r in range(1, d + 1):
        want = n if r in (1, d) else 1
        mat = res.matrix(r)
        for i, row in enumerate(mat.entries):
            for j, p in enumerate(row):
                if p.is_zero():
                    continue
                if not p.is_homogeneous() or p.degree() != want:
                    return CheckResult(
                        "betti", False, "entry degree pattern broken",
                        f"b_{r} entry ({i}, {j}) = {poly_str(p)}, expected degree {want}",
                    )
                if p.constant_term():
                    return CheckResult("betti", False, "resolution is not minimal",
                                       f"b_{r} entry ({i}, {j}) has a constant term")
    return CheckResult("betti", True,
                       f"Betti numbers {res.betti}, twists {res.twists}, degrees (n,1,...,1,n), minimal")


def check_euler_hilbert(s: Session) -> CheckResult:
    """sum_r (-1)^r beta_r t^{twist_r} equals (1-t)^d times the Hilbert series."""
    res = s.res
    d = res.d
    top = res.twists[-1]
    lhs = [0] * (top + 1)
    for r in range(d + 1):
        lhs[res.twists[r]] += (-1) ** r * res.betti[r]
    hs = s.hilbert
    binom = [comb(d, k) * (-1) ** k for k in range(d + 1)]
    rhs = [0] * (top + 1)
    for i, h in enumerate(hs):
        for k, b in enumerate(binom):
            if i + k <= top:
                rhs[i + k] += h * b
    if lhs != rhs:
        return CheckResult("euler", False, "Euler characteristic does not match the Hilbert series",
                           f"betti side {lhs}, Hilbert side {rhs}")
    return CheckResult("euler", True, f"alternating Betti polynomial = (1-t)^{d} * HS, coefficients {lhs}")


def check_ann_match(s: Session) -> CheckResult:
    """The b_1 columns span exactly the degree-n annihilator of phi."""
    res = s.res
    d, n = res.d, res.n
    cols = res.matrix(1).entries[0]
    for j, g in enumerate(cols):
        if contract_poly(g, s.phi.dual_element()):
            return CheckResult("ann", False, "a first-matrix column does not annihilate the system",
                               f"column {j} = {poly_str(g)}")
    monos = monomials_of_degree(d, n)
    col_vecs = coeff_rows(cols, monos)
    oracle = s.ann_n
    oracle_vecs = coeff_rows(oracle, monos)
    rank_cols = linalg.rank(col_vecs)
    rank_oracle = linalg.rank(oracle_vecs)
    rank_union = linalg.rank(col_vecs + oracle_vecs)
    beta1 = res.betti[1]
    if not (rank_cols == rank_oracle == rank_union == beta1 == len(oracle)):
        return CheckResult(
            "ann", False, "column span differs from the degree-n annihilator",
            f"rank(columns)={rank_cols}, rank(oracle)={rank_oracle}, rank(union)={rank_union}, beta_1={beta1}",
        )
    return CheckResult("ann", True,
                       f"b_1 columns are {beta1} independent forms spanning the degree-{n} annihilator")


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
    b4 = entries_transpose(b1)
    return b1, b2, b3, b4


def check_skeleton(s: Session) -> CheckResult:
    """Skeleton structure: block diagonal, equal to delta times the Koszul strands.

    For d = 4, n = 2 in the self-dual ordering the matrices are compared
    verbatim against the golden matrices; in addition the monomial strand
    is certified to resolve the quotient by the n-th power of the d-1
    variable maximal ideal, degreewise up to dmax.
    """
    res = s.res
    d, n = res.d, res.n
    if s.skeleton_failure is not None:
        return CheckResult("skeleton", False, "skeleton is not delta times the canonical strands",
                           s.skeleton_failure)
    golden_note = ""
    if (d, n) == (4, 2) and res.ordering == "selfdual":
        delta_inv = Fraction(1) / res.delta
        golden = golden_skeleton_d4_n2()
        for r in range(1, 5):
            actual = res.matrix(r).mod_x1().scale(delta_inv)
            if actual.entries != golden[r - 1]:
                return CheckResult("skeleton", False,
                                   "skeleton differs from the golden d=4, n=2 matrices",
                                   f"matrix {r}")
        golden_note = "; golden d=4, n=2 match"
    dmax = s.dmax
    cert = strand_certificate(d, n, dmax)
    if not cert.ok:
        return CheckResult("skeleton", False, "monomial strand is not a resolution degreewise",
                           "; ".join(cert.failures[:2]))
    return CheckResult("skeleton", True,
                       f"block structure, delta * Koszul strands, strand resolution to degree {dmax}"
                       + golden_note)


def _product_rule_pairs(res: Resolution, r: int, rng: random.Random | None):
    rows = len(res.bases[r + 1])
    cols = len(res.bases[res.d - r])
    pairs = [(i, j) for i in range(rows) for j in range(cols)]
    if rng is not None and len(pairs) > 200:
        pairs = rng.sample(pairs, 200)
    return pairs


def check_duality(s: Session) -> CheckResult:
    """Self-duality: last matrix transposed to the first, pairing product rule, d<=4 shapes."""
    res = s.res
    d = res.d
    if res.ordering != "selfdual":
        return CheckResult("duality", False,
                           "duality checks need the self-dual basis ordering",
                           f"resolution uses ordering {res.ordering!r}")
    if entries_transpose(res.matrix(1).entries) != res.matrix(d).entries:
        return CheckResult("duality", False, "last matrix is not the transpose of the first")
    if d == 3:
        m = res.matrix(2).entries
        k = len(m)
        for i in range(k):
            for j in range(k):
                if m[i][j] != -m[j][i]:
                    return CheckResult("duality", False, "middle matrix is not alternating",
                                       f"entries ({i},{j}) and ({j},{i})")
    if d == 4:
        half = len(res.bases[2]) // 2
        b2 = res.matrix(2).entries
        b3 = res.matrix(3).entries
        a_block = [row[:half] for row in b2]
        b_block = [row[half:] for row in b2]
        want = [[-p for p in row] for row in entries_transpose(b_block) + entries_transpose(a_block)]
        if want != b3:
            return CheckResult("duality", False,
                               "interior matrices do not satisfy the signed block-transpose relation")
    rng = random.Random(0) if d >= 5 else None
    for r in range(0, d):
        b_next = res.matrix(r + 1)
        b_comp = res.matrix(d - r)
        pairs = _product_rule_pairs(res, r, rng)
        for jj, kk in pairs:
            s1, theta = res.bases[r + 1].elements[jj]
            s2, theta_p = res.bases[d - r].elements[kk]
            lhs = Poly.zero(d)
            for i, (rs, f) in enumerate(res.bases[r]):
                v = rs * s2 * pp_value(f, theta_p)
                if v:
                    lhs = lhs + b_next.entries[i][jj].scale(v)
            rhs = Poly.zero(d)
            for i, (rs, g) in enumerate(res.bases[d - r - 1]):
                v = s1 * rs * pp_value(theta, g)
                if v:
                    rhs = rhs + b_comp.entries[i][kk].scale(v)
            if not (lhs + rhs.scale((-1) ** (r + 1))).is_zero():
                return CheckResult("duality", False, "pairing product rule fails",
                                   f"r={r}, pair ({jj}, {kk})")
    sampled = " (sampled pairs)" if rng is not None else " (all pairs)"
    return CheckResult("duality", True,
                       "transpose relation, d<=4 matrix shapes, pairing product rule" + sampled)


def check_exactness_up_to(s: Session) -> CheckResult:
    """Degreewise exactness and cokernel identification up to total degree dmax."""
    dmax = s.dmax
    out = certify_exactness(s)
    if not out.ok:
        return CheckResult("exactness", False,
                           f"exactness fails below degree {dmax}", "; ".join(out.failures[:3]))
    notes = "".join(f"; {t}" for t in dict.fromkeys(out.notes))
    return CheckResult("exactness", True,
                       f"exact in all positions for every degree <= {dmax} via {out.method}{notes}")


def check_wlp(s: Session) -> CheckResult:
    """Multiplication by x1 from degree n-1 to degree n of the quotient is surjective."""
    d, n = s.res.d, s.res.n
    monos_n = monomials_of_degree(d, n)
    ann_rows = coeff_rows(s.ann_n, monos_n)
    x1_multiples = [Poly.monomial(mul_var(u, 1)) for u in monomials_of_degree(d, n - 1)]
    mult_rows = coeff_rows(x1_multiples, monos_n)
    dim_an = s.hf(n)
    image_dim = linalg.rank(mult_rows + ann_rows) - linalg.rank(ann_rows)
    if image_dim != dim_an:
        return CheckResult("wlp", False, "x1 is not a weak Lefschetz element",
                           f"image of multiplication has dimension {image_dim}, quotient piece {dim_an}")
    return CheckResult("wlp", True,
                       f"x1 * (degree {n - 1}) covers degree {n} of the quotient (dimension {dim_an})")


def run_checks(res: Resolution, phi: InverseSystem, checks=None,
               dmax: int | None = None) -> Report:
    """Run the selected checks (default: all) on one session and collect a report."""
    # built per call, so a check rebound on this module (bench/tracer.py) is the one run
    table = {
        "complex": check_complex,
        "betti": check_betti_and_degrees,
        "euler": check_euler_hilbert,
        "ann": check_ann_match,
        "skeleton": check_skeleton,
        "duality": check_duality,
        "exactness": check_exactness_up_to,
        "wlp": check_wlp,
    }
    selected = tuple(checks) if checks else CHECK_NAMES
    unknown = [c for c in selected if c not in table]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {CHECK_NAMES}")
    s = Session(res, phi, dmax)
    report = Report(d=res.d, n=res.n, delta=str(res.delta))
    report.results = [table[name](s) for name in CHECK_NAMES if name in selected]
    return report
