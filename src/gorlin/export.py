"""Deterministic dump formats for resolutions: text, JSON, and a CAS script.

resolution_json writes json.dumps(doc, indent=1, sort_keys=True) + "\n" of its document doc directly:
sorted keys, a one-space indent per level, ASCII, one "\n" at the end, and a polynomial as its
[exponent vector, str(c)] pairs in sort_key order.  The golden and benchmark pins hash these bytes.
"""

from __future__ import annotations

import json

from .differentials import Resolution
from .hookbasis import OrderedBasis
from .monomials import Mono, sort_key
from .polynomials import Scalar, poly_str
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
    for r, mat in enumerate(res.matrices, 1):
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


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """The encoded items as a JSON list, or an object for brackets "{}", one item a line indented by depth."""
    pad = "\n" + " " * depth
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1] if items else brackets


def _term_list(terms: dict[Mono, Scalar], depth: int, heads: dict[Mono, tuple]) -> str:
    """The [exponent vector, "coefficient"] list of terms in sort_key order; heads caches each pair's text up to c."""
    pairs = []
    for m, c in terms.items():
        head = heads.get(m)
        if head is None:
            inner = "\n" + " " * (depth + 1)
            head = heads[m] = (sort_key(m), "[" + inner + _block([str(e) for e in m], depth + 2) + "," + inner + '"')
        pairs.append((head, c))
    pairs.sort()  # by the sort keys, which differ for distinct monomials
    tail = '"\n' + " " * depth + "]"
    return _block([f"{text}{c!s}{tail}" for (_, text), c in pairs], depth)


def _labels(basis: OrderedBasis) -> str:
    return _block([json.dumps(label) for label in basis.labels()], 4)


def resolution_json(res: Resolution) -> str:
    """The JSON document of res (module docstring); a row of cells starts as "[]" each and gets its nonzero entries."""
    heads: dict[Mono, tuple] = {}
    matrices = []
    for r, mat in enumerate(res.matrices, 1):
        rows = []
        for row in mat.entries:
            cells = ["[]"] * len(mat.cols)
            for j, p in row.items():
                cells[j] = _term_list(p.terms, 6, heads)
            rows.append(_block(cells, 5))
        matrices.append(_block([f'"cols": {_labels(mat.cols)}', f'"entries": {_block(rows, 4)}',
                                f'"index": {r}', f'"rows": {_labels(mat.rows)}'], 3, "{}"))
    coefficients = _term_list(res.phi.coeffs, 3, {})
    inverse_system = _block([f'"coefficients": {coefficients}', f'"d": {res.d}', f'"n": {res.n}'], 2, "{}")
    return _block([
        f'"betti": {_block([str(b) for b in res.betti], 2)}',
        f'"d": {res.d}',
        f'"delta": {json.dumps(str(res.delta))}',
        f'"inverse_system": {inverse_system}',
        f'"matrices": {_block(matrices, 2)}',
        f'"n": {res.n}',
        '"ordering": "selfdual"',
        f'"twists": {_block([str(t) for t in res.twists], 2)}',
    ], 1, "{}") + "\n"


def resolution_cas_script(res: Resolution) -> str:
    """A Macaulay2 script rebuilding the matrices and asserting the checkable claims."""
    d = res.d
    lines = [
        "-- Macaulay2 script for independent verification of the resolution",
        f"-- d = {d}, n = {res.n}, delta = {res.delta}",
        f"R = QQ[x_1..x_{d}];",
    ]

    for r, mat in enumerate(res.matrices, 1):
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
