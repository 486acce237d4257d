"""Deterministic dump formats for resolutions: text, JSON, and a CAS script."""

from __future__ import annotations

import json

from .differentials import Resolution
from .invsys import to_json_dict
from .polynomials import poly_str
from .verify import Report


def resolution_text(res: Resolution) -> str:
    """Human-readable dump with labeled rows/columns; zero entries omitted."""
    lines = [
        "Gorenstein-linear minimal free resolution",
        f"d = {res.d}  n = {res.n}  delta = {res.delta}",
        f"betti  = {' '.join(str(b) for b in res.betti)}",
        f"twists = {' '.join(str(t) for t in res.twists)}",
        "basis ordering = selfdual",
        "",
    ]
    for r in range(1, res.d + 1):
        mat = res.matrix(r)
        nrows, ncols = mat.shape
        lines.append(f"matrix b{r} ({nrows} x {ncols})")
        lines.append("  rows:")
        for i, lbl in enumerate(mat.rows.labels()):
            lines.append(f"    {i + 1}: {lbl}")
        lines.append("  cols:")
        for j, lbl in enumerate(mat.cols.labels()):
            lines.append(f"    {j + 1}: {lbl}")
        lines.append("  entries (row, col) -> polynomial, zeros omitted:")
        for i, j, p in mat.nonzero():
            lines.append(f"    ({i + 1}, {j + 1}) {poly_str(p)}")
        lines.append("")
    return "\n".join(lines)


def resolution_json_dict(res: Resolution) -> dict:
    """Machine-readable dump; monomials appear as exponent vectors, rationals as strings."""
    matrices = []
    for r in range(1, res.d + 1):
        mat = res.matrix(r)
        cells = [[[] for _ in mat.cols] for _ in mat.rows]
        for i, j, p in mat.nonzero():
            cells[i][j] = [[list(m), str(c)] for m, c in p.sorted_terms()]
        matrices.append({
            "index": r,
            "rows": mat.rows.labels(),
            "cols": mat.cols.labels(),
            "entries": cells,
        })
    return {
        "d": res.d,
        "n": res.n,
        "delta": str(res.delta),
        "ordering": "selfdual",
        "betti": list(res.betti),
        "twists": list(res.twists),
        "inverse_system": to_json_dict(res.phi),
        "matrices": matrices,
    }


def resolution_json(res: Resolution) -> str:
    return json.dumps(resolution_json_dict(res), indent=1, sort_keys=True) + "\n"


def resolution_cas_script(res: Resolution) -> str:
    """A Macaulay2 script rebuilding the matrices and asserting the checkable claims."""
    d = res.d
    lines = [
        "-- Macaulay2 script for independent verification of the resolution",
        f"-- d = {d}, n = {res.n}, delta = {res.delta}",
        f"R = QQ[x_1..x_{d}];",
    ]

    for r in range(1, d + 1):
        mat = res.matrix(r)
        cells = [["0"] * len(mat.cols) for _ in mat.rows]
        for i, j, p in mat.nonzero():
            cells[i][j] = poly_str(p, var="x_")
        rows = ",\n  ".join("{" + ", ".join(row) + "}" for row in cells)
        lines.append(f"b{r} = matrix(R, {{\n  {rows}\n}});")
    for r in range(1, d):
        lines.append(f"assert(b{r} * b{r + 1} == 0);")
    betti = " and ".join(
        f"numgens source b{r} == {res.betti[r]}" for r in range(1, d + 1)
    )
    lines.append(f"assert({betti});")
    lines.append(f'print "resolution checks passed";')
    return "\n".join(lines) + "\n"


def report_json(report: Report) -> str:
    return json.dumps(report.to_json_dict(), indent=1, sort_keys=True) + "\n"
