"""Dump formats and the command-line interface (including exit codes)."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import prod

import pytest

from gorlin.cli import main
from gorlin.differentials import build_resolution
from gorlin.export import FRAGMENTS, resolution_cas_script, resolution_json, resolution_text
from gorlin.invsys import InverseSystem, random_invsys, save_invsys, sum_of_powers
from gorlin.monomials import monomials_of_degree

from conftest import GRID, GRID_SEEDS, changed_lift, extra_phi, grid_resolution, squares_resolution
from oracles import matrices, resolution_json_dict


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "gorlin.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_resolution_text_dump():
    txt = resolution_text(squares_resolution(3))
    assert "d = 3  n = 2  delta = 1" in txt
    assert "matrix b1 (1 x 5)" in txt
    assert "X(1; 2; [0, 2, 0])" in txt
    assert "x1*x2" in txt


def test_resolution_json_round_shape():
    doc = json.loads(resolution_json(grid_resolution(4, 2)))
    assert doc["betti"] == [1, 9, 16, 9, 1]
    assert doc["twists"] == [0, 2, 3, 4, 6]
    assert len(doc["matrices"]) == 4
    m2 = doc["matrices"][1]
    assert len(m2["rows"]) == 9 and len(m2["cols"]) == 16
    # entries are term lists with exponent vectors and rational strings
    term = next(t for row in m2["entries"] for p in row for t in p)
    assert isinstance(term[0], list) and isinstance(term[1], str)


def with_altered_entries(res):
    """A copy of res with its first nonzero C_2 entry set to -7/3 and the last form of C_1 dropped."""
    def first_to_fraction(rows):
        i = next(i for i, row in enumerate(rows) if row)
        rows[i][min(rows[i])] = Fraction(-7, 3)

    res = changed_lift(res, 2, first_to_fraction)
    return changed_lift(res, 1, lambda rows: rows[0].pop(max(rows[0])))


JSON_CASES = {
    **{f"d={d} n={n}": lambda d=d, n=n: grid_resolution(d, n) for d, n in GRID},
    "d=6 n=2 seed=1": lambda: build_resolution(random_invsys(6, 2, 1)),
    "d=4 n=3 large-rational": lambda: build_resolution(extra_phi("d=4 n=3 large-rational")),
    "d=4 n=2 altered": lambda: with_altered_entries(grid_resolution(4, 2)),
}


@pytest.mark.parametrize("case", JSON_CASES)
def test_resolution_json_is_the_stdlib_layout_of_the_oracle_document(case):
    res = JSON_CASES[case]()
    # a basis with a negatively signed element, whose label the writer passes through json.dumps
    assert any(label.startswith("-") for mat in matrices(res) for label in mat.cols.labels())
    assert resolution_json(res) == json.dumps(resolution_json_dict(res), indent=1, sort_keys=True) + "\n"


def test_cas_script_content():
    script = resolution_cas_script(squares_resolution(3))
    assert "R = QQ[x_1..x_3];" in script
    assert "b1 = matrix(R, {" in script
    assert "assert(b1 * b2 == 0);" in script
    assert "assert(b2 * b3 == 0);" in script


def test_cas_script_reverifies_in_independent_cas():
    # parse the emitted script with sympy and redo the complex check there
    import re

    import sympy

    res = grid_resolution(3, 2)
    script = resolution_cas_script(res)
    syms = {f"x_{i}": sympy.symbols(f"x_{i}") for i in range(1, 4)}
    mats = {}
    for name, body in re.findall(r"(b\d) = matrix\(R, \{\n(.*?)\n\}\);", script, re.S):
        rows = []
        for line in body.strip().splitlines():
            line = line.strip().rstrip(",").strip("{}")
            rows.append([sympy.sympify(tok, locals=syms, rational=True)
                         for tok in line.split(", ")])
        mats[name] = sympy.Matrix(rows)
    assert set(mats) == {"b1", "b2", "b3"}
    assert mats["b1"].shape == (1, 5) and mats["b2"].shape == (5, 5)
    assert sympy.expand(mats["b1"] * mats["b2"]) == sympy.zeros(1, 5)
    assert sympy.expand(mats["b2"] * mats["b3"]) == sympy.zeros(5, 1)
    # entries agree with the source matrices
    for r, name in ((1, "b1"), (2, "b2"), (3, "b3")):
        src = res.matrix(r)
        for i in range(src.shape[0]):
            for j in range(src.shape[1]):
                poly = sum(
                    (sympy.Rational(c.numerator, c.denominator)
                     * sympy.prod([syms[f"x_{k + 1}"] ** e for k, e in enumerate(m)])
                     for m, c in src.entry(i, j).items()),
                    sympy.Integer(0),
                )
                assert sympy.expand(mats[name][i, j] - poly) == 0


def test_resolution_json_parses_back_to_the_same_matrices():
    from fractions import Fraction

    from oracles import Poly

    res = grid_resolution(3, 2)
    doc = json.loads(resolution_json(res))
    for mat_doc in doc["matrices"]:
        src = res.matrix(mat_doc["index"])
        for i, row in enumerate(mat_doc["entries"]):
            for j, terms in enumerate(row):
                p = Poly(res.d, {tuple(m): Fraction(c) for m, c in terms})
                assert p == Poly(res.d, src.entry(i, j))


def test_cli_resolve_prints_and_writes(tmp_path):
    out = tmp_path / "res.txt"
    code, stdout, _ = run_cli(["resolve", "--d", "4", "--n", "2", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert "betti  = 1 9 16 9 1" in stdout
    assert "delta" in stdout
    assert "matrix b2 (9 x 16)" in out.read_text()


def test_cli_resolve_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(["resolve", "--d", "3", "--n", "2", "--seed", "4",
                              "--format", "json", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_resolve_identity_family_prints_delta_one(tmp_path):
    path = tmp_path / "squares3.json"
    save_invsys(sum_of_powers(3, 2), str(path))
    code, stdout, _ = run_cli(["resolve", "--input", str(path), "--out", str(tmp_path / "o.txt")])
    assert code == 0
    assert "delta  = 1" in stdout


def test_cli_verify_passes():
    code, stdout, _ = run_cli(["verify", "--d", "3", "--n", "2", "--seed", "1",
                               "--checks", "complex,betti,ann,duality", "--format", "json"])
    assert code == 0
    doc = json.loads(stdout[stdout.index("{"):])
    assert doc["passed"] is True


def test_cli_verify_rejects_dmax():
    # exactness is certified in every degree, so there is no degree bound to set
    code, stdout, stderr = run_cli(["verify", "--d", "3", "--n", "2", "--seed", "1",
                                    "--checks", "exactness", "--dmax", "6"])
    assert code == 3 and stdout == "" and "--dmax" in stderr


def test_cli_exit_code_inadmissible(tmp_path):
    # all-zero coefficients: generation cannot find an admissible system
    code, _, stderr = run_cli(["resolve", "--d", "3", "--n", "2", "--seed", "1", "--bound", "0"])
    assert code == 2
    assert "admissible" in stderr
    # explicit degenerate file: rank-deficient catalecticant
    import gorlin.invsys as inv
    from fractions import Fraction

    phi = inv.InverseSystem(3, 2, {(2, 0, 0): Fraction(1)})
    path = tmp_path / "degenerate.json"
    save_invsys(phi, str(path))
    code, _, stderr = run_cli(["verify", "--input", str(path)])
    assert code == 2
    assert "determinant 0" in stderr or "inadmissible" in stderr


def test_cli_refuses_a_rank_deficient_d4_n4_system_fast(tmp_path, capsys):
    # t_m = sum of a^m over 19 points a: the middle catalecticant is a sum of
    # 19 rank-one matrices of size 20, so delta = 0 and verify exits 2
    rng = random.Random(0)
    points = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(19)]
    coeffs = {m: Fraction(sum(prod(x ** k for x, k in zip(a, m)) for a in points))
              for m in monomials_of_degree(4, 6)}
    path = tmp_path / "rank_deficient.json"
    save_invsys(InverseSystem(4, 4, coeffs), str(path))
    assert main(["verify", "--input", str(path)]) == 2
    assert "determinant 0" in capsys.readouterr().err


def test_cli_exit_code_input_error(tmp_path):
    code, _, _ = run_cli(["resolve", "--d", "2", "--n", "2", "--seed", "1"])
    assert code == 3
    code, _, _ = run_cli(["resolve"])
    assert code == 3
    code, _, _ = run_cli(["resolve", "--d", "3", "--n", "2"])
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, _ = run_cli(["resolve", "--input", str(bad)])
    assert code == 3
    code, _, _ = run_cli(["resolve", "--input", str(tmp_path / "missing.json")])
    assert code == 3
    # both input sources at once
    code, _, _ = run_cli(["resolve", "--input", str(bad), "--d", "3", "--n", "2", "--seed", "1"])
    assert code == 3


@pytest.mark.parametrize("coeff,why", [
    ("1/0", "'1/0', which has denominator 0"),
    (0.1, "0.1; give a JSON integer or a rational string"),
    (True, "True; give a JSON integer or a rational string"),
], ids=["zero-denominator", "json-float", "json-bool"])
def test_cli_malformed_coefficient_exits_3(tmp_path, capsys, coeff, why):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"d": 3, "n": 2, "coefficients": [[[2, 0, 0], 1], [[0, 2, 0], coeff]]}))
    assert main(["verify", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed inverse-system document: coefficient of [0, 2, 0] is ")
    assert why in err and "Traceback" not in err


@pytest.mark.parametrize("doc,why", [
    ({"d": 3, "n": 2, "coefficients": [[[2, 0, 0], 1], [[3, -1, 0], 1]]},
     "coefficient key (3, -1, 0) is not a degree-2 monomial in 3 variables"),
    ({"d": 3, "n": 2, "coefficients": [[[2, 0, 0], 1], [[2.5, -0.5, 0], 1]]},
     "coefficient key (2.5, -0.5, 0) is not a degree-2 monomial in 3 variables"),
    ({"d": 3, "n": 2, "coefficients": [[[2, 0, 0], 1], [[0, 2, 0], 1], [[2, 0, 0], 5]]},
     "monomial [2, 0, 0] is listed twice"),
    ({"d": 3.7, "n": 2, "coefficients": [[[2, 0, 0], 1]]}, "d and n must be ints, got 3.7 and 2"),
    ({"d": 3, "n": False, "coefficients": [[[2, 0, 0], 1]]}, "d and n must be ints, got 3 and False"),
], ids=["negative-exponent", "float-exponent", "repeated-monomial", "float-d", "bool-n"])
def test_cli_malformed_monomial_or_size_exits_3(tmp_path, capsys, doc, why):
    # each of these was once read as a different system: the negative exponent
    # was never looked up, 2.5 was truncated to 2, the later coefficient of a
    # repeated monomial won, and d = 3.7 was read as 3
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: malformed inverse-system document: {why}\n"


def test_cli_accepts_json_integers_and_rational_strings(tmp_path):
    path = tmp_path / "phi.json"
    coeffs = [[[2, 0, 0], 1], [[0, 2, 0], "-3/7"], [[0, 0, 2], "5"]]
    path.write_text(json.dumps({"d": 3, "n": 2, "coefficients": coeffs}))
    out = tmp_path / "res.json"
    assert main(["resolve", "--input", str(path), "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["delta"] == "-15/7"


# numpy is needed by the tests and the benchmark only; a None entry in
# sys.modules makes any import of it raise ImportError
WITHOUT_NUMPY = 'import sys; sys.modules["numpy"] = None; from gorlin.cli import main; sys.exit(main(sys.argv[1:]))'


@pytest.mark.parametrize("args", [
    ["verify", "--d", "4", "--n", "3", "--seed", "1"],
    ["resolve", "--d", "4", "--n", "3", "--seed", "1", "--format", "json"],
], ids=["verify", "resolve-json"])
def test_cli_runs_without_numpy(args, capsys):
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *args], capture_output=True, text=True)
    assert main(args) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    # a check failure (not an input error) exits 1; run_checks builds its
    # table per call, so the patched check is the one that runs
    import gorlin.cli as cli
    import gorlin.verify as verify

    def failing(s):
        return verify.CheckResult("duality", False, "pairing product rule fails", "r=0, pair (0, 0)")

    monkeypatch.setattr(verify, "check_duality", failing)
    assert cli.main(["verify", "--d", "3", "--n", "2", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL duality: pairing product rule fails" in out and "CHECK FAILURES PRESENT" in out


def test_cli_ann_command(tmp_path):
    phi = sum_of_powers(3, 2)
    path = tmp_path / "squares.json"
    save_invsys(phi, str(path))
    code, stdout, _ = run_cli(["ann", "--input", str(path)])
    assert code == 0
    assert "5 elements" in stdout
    assert "spans agree: yes" in stdout
    code, stdout, _ = run_cli(["ann", "--input", str(path), "--degree", "3"])
    assert code == 0 and "degree 3" in stdout
    # inadmissible: oracle prints, comparison skipped
    import gorlin.invsys as inv
    from fractions import Fraction

    bad = inv.InverseSystem(3, 2, {(2, 0, 0): Fraction(1)})
    badpath = tmp_path / "bad.json"
    save_invsys(bad, str(badpath))
    code, stdout, _ = run_cli(["ann", "--input", str(badpath)])
    assert code == 0
    assert "inadmissible" in stdout and "no resolution comparison" in stdout


def test_cli_main_function_direct():
    assert main(["ann", "--d", "3", "--n", "2", "--seed", "1"]) == 0


def test_cli_internal_error_is_not_an_input_error(monkeypatch, capsys):
    import gorlin.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("shape mismatch (1, 5) @ (4, 5)")

    monkeypatch.setattr(cli, "run_checks", broken)
    assert cli.main(["verify", "--d", "3", "--n", "2", "--seed", "1"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "shape mismatch" in err


@pytest.mark.parametrize("premise", ["delta", "strand certificate"])
def test_a_failed_premise_of_the_checks_is_an_internal_error(monkeypatch, capsys, premise):
    # no input can give a record with delta = 0 (delta_and_Q refuses phi first) or a (d, n)
    # whose skeleton fails its strand certificate, so either is a defect: a gate that let
    # delta = 0 through, where Resolution refuses the record, or a skeleton that a session
    # refuses to start on; both exit 4 with a traceback, never as bad input
    import dataclasses

    import gorlin.cli as cli
    from gorlin import differentials, exactness
    from gorlin.invsys import delta_and_Q

    if premise == "delta":
        monkeypatch.setattr(differentials, "delta_and_Q", lambda phi: dataclasses.replace(delta_and_Q(phi), det=0))
    else:
        monkeypatch.setattr(exactness, "strand_certificate", lambda d, n: ("monomial strand does not compose to zero",))
    assert cli.main(["verify", "--d", "3", "--n", "2", "--seed", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" in err and "ValueError" in err
    assert ("a resolution needs delta != 0" if premise == "delta" else "fails its strand certificate") in err
    assert "inadmissible" not in err and "malformed" not in err


@pytest.mark.parametrize("d,n,text", [
    (3, 2, "verification report (d=3, n=2, delta=-75)\n"
           "PASS wlp: x1 * (degree 1) covers degree 2 of the quotient (dimension 1)\nALL CHECKS PASSED\n"),
    (4, 3, "verification report (d=4, n=3, delta=-491209165)\n"
           "PASS wlp: x1 * (degree 2) covers degree 3 of the quotient (dimension 4)\nALL CHECKS PASSED\n"),
])
def test_cli_verify_wlp_alone_keeps_its_report(capsys, d, n, text):
    # the same report, byte for byte, as when check_wlp read the b_1 facts and ranked on their failure
    assert main(["verify", "--d", str(d), "--n", str(n), "--seed", str(GRID_SEEDS[d, n]), "--checks", "wlp"]) == 0
    assert capsys.readouterr().out == text


def test_cli_argument_and_output_errors_exit_3(tmp_path):
    code, _, stderr = run_cli(["verify", "--d", "3", "--n", "2", "--seed", "1", "--checks", "nope"])
    assert code == 3 and "nope" in stderr
    code, _, _ = run_cli(["ann", "--d", "3", "--n", "2", "--seed", "1", "--degree", "-1"])
    assert code == 3
    code, _, _ = run_cli(["resolve", "--d", "3", "--n", "2", "--seed", "1",
                          "--out", str(tmp_path / "missing" / "out.txt")])
    assert code == 3


JOINED = {"text": resolution_text, "json": resolution_json, "cas": resolution_cas_script}
WRITE_ERROR = "error: [Errno 28] No space left on device\n"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")


@pytest.mark.parametrize("fmt", JOINED)
@pytest.mark.parametrize("d,n", GRID)
def test_cli_resolve_streams_the_joined_dump(tmp_path, capsys, d, n, fmt):
    # resolve writes the fragments as they come; the file holds exactly the string the writer joins
    out = tmp_path / f"res.{fmt}"
    args = ["resolve", "--d", str(d), "--n", str(n), "--seed", str(GRID_SEEDS[(d, n)]), "--format", fmt]
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_text() == JOINED[fmt](grid_resolution(d, n))
    assert capsys.readouterr().out.startswith("delta  = ")


@needs_dev_full
@pytest.mark.parametrize("fmt", JOINED)
def test_cli_resolve_write_error_mid_stream_exits_3(capsys, fmt):
    # the (5,3) dumps are larger than a file buffer, so the error comes while the dump is being written
    assert len(resolution_cas_script(grid_resolution(5, 3))) > 2 * 8192
    assert main(["resolve", "--d", "5", "--n", "3", "--seed", "11", "--format", fmt, "--out", "/dev/full"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("delta  = ") and captured.err == WRITE_ERROR


@needs_dev_full
@pytest.mark.parametrize("args", [
    ["verify", "--d", "3", "--n", "2", "--seed", "1"],
    ["resolve", "--d", "3", "--n", "2", "--seed", "1", "--out", os.devnull],
    ["resolve", "--d", "5", "--n", "3", "--seed", "1", "--format", "json"],
], ids=["verify", "resolve-header", "resolve-dump"])
def test_cli_stdout_write_error_exits_3(args):
    # an unwritable stdout is an output error, not an internal one, and the flush at exit adds no second error
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "gorlin.cli", *args], stdout=full, stderr=subprocess.PIPE,
                              text=True)
    assert (proc.returncode, proc.stderr) == (3, WRITE_ERROR)


class _Sink:
    """A file that keeps the length of what is written to it and nothing else."""

    size = 0

    def write(self, text: str) -> None:
        self.size += len(text)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the traced peak of the joined string over the document's size, by format; at (5,3), seed 11, on
# Python 3.10 to 3.13, the joined fragments read 2.0-2.1 (JSON), 2.2 (text) and 2.3 (CAS), and the
# writers that built every row, matrix and document as separate strings read 4.1, 5.6-5.9 and 7.4-7.8
JOIN_BOUND = {"json": 2.5, "text": 2.5, "cas": 2.6}


@pytest.mark.parametrize("fmt", JOINED)
def test_dump_memory_is_bounded(fmt):
    res = grid_resolution(5, 3)
    doc_size = len(JOINED[fmt](res))  # also builds the skeleton, which outlives the call
    json_size = len(resolution_json(res))
    sink = _Sink()

    def stream():
        for text in FRAGMENTS[fmt](res):
            sink.write(text)

    # a stream holds one row and one paired cofactor, whatever the format: 0.18 of the JSON document
    assert _traced_peak(stream) < 0.25 * json_size
    assert sink.size == doc_size
    assert _traced_peak(lambda: JOINED[fmt](res)) < JOIN_BOUND[fmt] * doc_size
