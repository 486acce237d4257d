"""Dump formats and the command-line interface (including exit codes)."""

import json
import subprocess
import sys

from gorlin.cli import main
from gorlin.export import resolution_cas_script, resolution_json_dict, resolution_text
from gorlin.invsys import save_invsys, sum_of_powers

from conftest import grid_resolution, squares_resolution


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "gorlin.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_resolution_text_dump():
    txt = resolution_text(squares_resolution(3, ordering="selfdual"))
    assert "d = 3  n = 2  delta = 1" in txt
    assert "matrix b1 (1 x 5)" in txt
    assert "X(1; 2; [0, 2, 0])" in txt
    assert "x1*x2" in txt


def test_resolution_json_round_shape():
    doc = resolution_json_dict(grid_resolution(4, 2, ordering="selfdual"))
    assert doc["betti"] == [1, 9, 16, 9, 1]
    assert doc["twists"] == [0, 2, 3, 4, 6]
    assert len(doc["matrices"]) == 4
    m2 = doc["matrices"][1]
    assert len(m2["rows"]) == 9 and len(m2["cols"]) == 16
    # entries are term lists with exponent vectors and rational strings
    term = next(t for row in m2["entries"] for p in row for t in p)
    assert isinstance(term[0], list) and isinstance(term[1], str)
    json.dumps(doc)  # serializable


def test_cas_script_content():
    script = resolution_cas_script(squares_resolution(3, ordering="selfdual"))
    assert "R = QQ[x_1..x_3];" in script
    assert "b1 = matrix(R, {" in script
    assert "assert(b1 * b2 == 0);" in script
    assert "assert(b2 * b3 == 0);" in script


def test_cas_script_reverifies_in_independent_cas():
    # parse the emitted script with sympy and redo the complex check there
    import re

    import sympy

    res = grid_resolution(3, 2, ordering="selfdual")
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
                     for m, c in src.entries[i][j].terms.items()),
                    sympy.Integer(0),
                )
                assert sympy.expand(mats[name][i, j] - poly) == 0


def test_resolution_json_parses_back_to_the_same_matrices():
    from fractions import Fraction

    from gorlin.polynomials import Poly

    res = grid_resolution(3, 2, ordering="selfdual")
    doc = resolution_json_dict(res)
    for mat_doc in doc["matrices"]:
        src = res.matrix(mat_doc["index"])
        for i, row in enumerate(mat_doc["entries"]):
            for j, terms in enumerate(row):
                p = Poly(res.d, {tuple(m): Fraction(c) for m, c in terms})
                assert p == src.entries[i][j]


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


def test_cli_verify_dmax_plumbing():
    code, stdout, _ = run_cli(["verify", "--d", "3", "--n", "2", "--seed", "1",
                               "--checks", "exactness", "--dmax", "6"])
    assert code == 0 and "degree <= 6" in stdout


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


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    # a check failure (not an input error) exits 1: force one by requesting
    # duality on a standard-ordering build through the API
    from gorlin.verify import run_checks
    from conftest import grid_phi

    res = grid_resolution(3, 2)  # standard ordering: duality check must fail
    report = run_checks(res, grid_phi(3, 2), checks=["duality"])
    assert not report.passed


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


def test_cli_argument_and_output_errors_exit_3(tmp_path):
    code, _, stderr = run_cli(["verify", "--d", "3", "--n", "2", "--seed", "1", "--checks", "nope"])
    assert code == 3 and "nope" in stderr
    code, _, _ = run_cli(["ann", "--d", "3", "--n", "2", "--seed", "1", "--degree", "-1"])
    assert code == 3
    code, _, _ = run_cli(["resolve", "--d", "3", "--n", "2", "--seed", "1",
                          "--out", str(tmp_path / "missing" / "out.txt")])
    assert code == 3
