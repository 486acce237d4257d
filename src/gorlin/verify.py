"""Structural verification of a built resolution.

Every check is exact: a pass is a statement about the instance, proved in
rational arithmetic (rank saturation certificates included), never a
numerical approximation.
"""

from __future__ import annotations

from math import comb

from .differentials import Resolution, twist_list
from .exactness import Session, certify_exactness, strand_certificate
from .hookbasis import rank_formulas
from .invsys import InverseSystem
from .polynomials import poly_str

CHECK_NAMES = ("complex", "betti", "euler", "ann", "skeleton", "duality", "exactness", "wlp")


class CheckResult:
    __slots__ = ("name", "passed", "summary", "witness")

    def __init__(self, name: str, passed: bool, summary: str, witness: str | None = None):
        self.name, self.passed, self.summary, self.witness = name, passed, summary, witness

    def __eq__(self, other) -> bool:
        if type(other) is not CheckResult:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self) -> str:
        return f"<CheckResult {self.line()}>"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.witness}]" if self.witness else ""
        return f"{status} {self.name}: {self.summary}{extra}"


class Report:
    __slots__ = ("d", "n", "delta", "results")

    def __init__(self, d: int, n: int, delta: str):
        self.d, self.n, self.delta = d, n, delta
        self.results: list[CheckResult] = []

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
    """Shapes, twists, entry degrees (n, 1, ..., 1, n), and minimality.

    A built resolution takes its bases and twists from (d, n), so the Betti
    and twist comparisons hold there by construction; they bite on the
    tests' matrix form.  The degrees are read off the distinct monomials of
    each matrix; only when one is wrong are the entries walked in row-major
    order for the first broken one, the witness.
    """
    res = s.res
    d, n = res.d, res.n
    expected = (1,) + tuple(rank_formulas(d, n, r)[2] for r in range(1, d)) + (1,)
    if res.betti != expected:
        return CheckResult("betti", False, "Betti numbers differ from the closed formula",
                           f"got {res.betti}, expected {expected}")
    expected_twists = twist_list(d, n)
    if res.twists != expected_twists:
        return CheckResult("betti", False, "twist list is wrong",
                           f"got {res.twists}, expected {expected_twists}")
    for r in range(1, d + 1):
        want = n if r in (1, d) else 1
        # homogeneous of degree n or 1, so no constant term: minimality follows
        if any(sum(m) != want for m in s.monomials(r)):
            i, j, p = next((i, j, p) for i, j, p in s.matrix(r).nonzero() if any(sum(m) != want for m in p))
            return CheckResult(
                "betti", False, "entry degree pattern broken",
                f"b_{r} entry ({i}, {j}) = {poly_str(p)}, expected degree {want}",
            )
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
    """The b_1 columns span exactly the degree-n annihilator of phi.

    Once every column annihilates phi, the columns lie in the degree-n
    annihilator, so the union has the oracle's rank, dim ann(phi)_n of the
    session; the rank of the columns is dim I_n of the session.
    """
    res = s.res
    n = res.n
    j = s.b1_annihilation_failure
    if j is not None:
        return CheckResult("ann", False, "a first-matrix column does not annihilate the system",
                           f"column {j} = {poly_str(s.matrix(1).entry(0, j))}")
    if s.b1_degree_failure is not None:
        return CheckResult("ann", False, f"a first-matrix column is not a form of degree {n}",
                           "column {} has a term of degree {}".format(*s.b1_degree_failure))
    rank_cols = s.ideal_dim_n
    rank_oracle = s.ann_dim_n
    beta1 = res.betti[1]
    if not rank_cols == rank_oracle == beta1:
        return CheckResult(
            "ann", False, "column span differs from the degree-n annihilator",
            f"rank(columns)={rank_cols}, rank(oracle)={rank_oracle}, rank(union)={rank_oracle}, beta_1={beta1}",
        )
    return CheckResult("ann", True,
                       f"b_1 columns are {beta1} independent forms spanning the degree-{n} annihilator")


def check_skeleton(s: Session) -> CheckResult:
    """Skeleton structure: block diagonal, equal to delta times the Koszul strands.

    B is the lift of delta times canonical_skeleton(d, n), so the check is
    the strand certificate: the skeleton has no entry between an X and a Y
    element, the monomial strand resolves the quotient by the n-th power of
    the d-1 variable maximal ideal in every degree, and the dual strand is
    its pairing transpose.
    """
    res = s.res
    cert = strand_certificate(res.d, res.n)
    if cert:
        return CheckResult("skeleton", False, "a skeleton strand fails its certificate", "; ".join(cert[:2]))
    return CheckResult("skeleton", True,
                       "block structure, delta * Koszul strands, strand resolution in every degree")


def check_duality(s: Session) -> CheckResult:
    """Self-duality: b_{r+1}^T P_r = (-1)^r P_{r+1} b_{d-r} for every r, on every pair.

    P_k is the pairing between bases[k] and bases[d-k].  The rule holds by
    construction on every map of the lift but the self-paired middle map of
    odd d, which the session compares with its own pairing transpose
    (Session.duality_failure).  At r = 0 it says that the last matrix is
    the transpose of the first; at d = 3 it makes the middle matrix
    alternating, and at d = 4 it is the signed block transpose relation
    between the two interior matrices.
    """
    if s.duality_failure is not None:
        r, jj, kk = s.duality_failure
        return CheckResult("duality", False, "pairing product rule fails", f"r={r}, pair ({jj}, {kk})")
    return CheckResult("duality", True,
                       "pairing product rule b_{r+1}^T P_r = (-1)^r P_{r+1} b_{d-r} on all pairs")


def check_exactness_up_to(s: Session) -> CheckResult:
    """Exactness in every degree and cokernel identification: B resolves S/ann(phi)."""
    failures = certify_exactness(s)
    if failures:
        return CheckResult("exactness", False, "B is not certified to resolve S/ann(phi)", "; ".join(failures[:3]))
    return CheckResult("exactness", True, "B resolves S/ann(phi): exact in every degree via skeleton-les")


def check_wlp(s: Session) -> CheckResult:
    """Every nonzero linear form l is a weak Lefschetz element of A = S/ann(phi), from delta != 0 alone.

    The session's Hilbert function refuses delta = 0, and delta != 0 gives
    ann(phi)_j = 0 for j <= n-1 (hilbert_function), so A_j = S_j there.
    For i <= n-2, l: A_i -> A_{i+1} is l: S_i -> S_{i+1}, which is
    injective, as S is a domain.  For i >= n-1 it is dual to
    l: A_{2n-3-i} -> A_{2n-2-i} under the perfect pairing (a, b) -> (ab) o phi
    of the Gorenstein algebra A, whose socle degree is 2n-2; that map is
    injective by the first case, so this one is surjective.  So l has
    maximal rank in every degree.  The summary states the case l = x1 from
    degree n-1 to n, where the image is all of A_n.
    """
    n = s.phi.n
    return CheckResult("wlp", True, f"x1 * (degree {n - 1}) covers degree {n} of the quotient (dimension {s.hf(n)})")


def run_checks(res: Resolution, phi: InverseSystem, checks=None) -> Report:
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
    s = Session(res, phi)
    report = Report(d=res.d, n=res.n, delta=str(res.delta))
    report.results = [table[name](s) for name in CHECK_NAMES if name in selected]
    return report
