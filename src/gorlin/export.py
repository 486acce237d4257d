"""Deterministic dump formats for resolutions: text, JSON, and a CAS script.

Each format is a generator of fragments (FRAGMENTS) that yields its text one matrix row at a time,
so a dump can be written as it is made; resolution_text, resolution_json and resolution_cas_script
are the "".join of those generators, and the layout of each format exists only there.

resolution_json writes json.dumps(doc, indent=1, sort_keys=True) + "\n" of its document doc directly:
sorted keys, a one-space indent per level, ASCII, one "\n" at the end, and a polynomial as its
[exponent vector, str(c)] pairs in sort_key order.  The golden and benchmark pins hash these bytes.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Iterator

from .differentials import Resolution
from .hookbasis import OrderedBasis
from .monomials import Mono, sort_key
from .polynomials import Scalar, poly_str
from .verify import Report


def text_fragments(res: Resolution) -> Iterator[str]:
    """Human-readable dump with labeled rows/columns; zero entries omitted."""
    yield ("Gorenstein-linear minimal free resolution\n"
           f"d = {res.d}  n = {res.n}  delta = {res.delta}\n"
           f"betti  = {' '.join(str(b) for b in res.betti)}\n"
           f"twists = {' '.join(str(t) for t in res.twists)}\n"
           "basis ordering = selfdual\n")
    for r, (rows, cols) in enumerate(zip(res.bases, res.bases[1:]), 1):
        # each matrix follows an empty line, and every line ends in "\n"
        yield "\n".join(["", f"matrix b{r} ({len(rows)} x {len(cols)})", "  rows:",
                         *(f"    {i + 1}: {lbl}" for i, lbl in enumerate(rows.labels())), "  cols:",
                         *(f"    {j + 1}: {lbl}" for j, lbl in enumerate(cols.labels())),
                         "  entries (row, col) -> polynomial, zeros omitted:", ""])
        for i, row in enumerate(res.terms(r)):
            yield "".join(f"    ({i + 1}, {j + 1}) {poly_str(row[j])}\n" for j in sorted(row))


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """The encoded items as a JSON list, or an object for brackets "{}", one item a line indented by depth."""
    pad = "\n" + " " * depth
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1] if items else brackets


def _streamed_block(items: Iterable[str | Iterable[str]], depth: int, brackets: str = "[]") -> Iterator[str]:
    """_block of the items fragment by fragment; an item is its text or an iterable of its fragments.

    _block stays a join of its own: it writes every cell and row of the JSON
    dump, which took about 1.5 times as long with _block as a join of this generator.
    """
    pad = "\n" + " " * depth
    sep = brackets[0] + pad
    for item in items:
        yield sep
        if isinstance(item, str):
            yield item
        else:
            yield from item
        sep = "," + pad
    yield brackets if sep[0] == brackets[0] else pad[:-1] + brackets[1]


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


def json_fragments(res: Resolution) -> Iterator[str]:
    """The JSON document of res (module docstring), one matrix row at a time; a row's cells start as "[]" each."""
    heads: dict[Mono, tuple] = {}

    def entries(r: int, width: int) -> Iterator[str]:
        for row in res.terms(r):
            cells = ["[]"] * width
            for j, terms in row.items():
                cells[j] = _term_list(terms, 6, heads)
            yield _block(cells, 5)

    def matrix(r: int, rows: OrderedBasis, cols: OrderedBasis) -> Iterator[str]:
        keyed_entries = chain(['"entries": '], _streamed_block(entries(r, len(cols)), 4))
        return _streamed_block([f'"cols": {_labels(cols)}', keyed_entries, f'"index": {r}', f'"rows": {_labels(rows)}'],
                               3, "{}")

    coefficients = _term_list(res.phi.coeffs, 3, {})
    inverse_system = _block([f'"coefficients": {coefficients}', f'"d": {res.d}', f'"n": {res.n}'], 2, "{}")
    matrices = (matrix(r, rows, cols) for r, (rows, cols) in enumerate(zip(res.bases, res.bases[1:]), 1))
    yield from _streamed_block([
        f'"betti": {_block([str(b) for b in res.betti], 2)}',
        f'"d": {res.d}',
        f'"delta": {json.dumps(str(res.delta))}',
        f'"inverse_system": {inverse_system}',
        chain(['"matrices": '], _streamed_block(matrices, 2)),
        f'"n": {res.n}',
        '"ordering": "selfdual"',
        f'"twists": {_block([str(t) for t in res.twists], 2)}',
    ], 1, "{}")
    yield "\n"


def cas_fragments(res: Resolution) -> Iterator[str]:
    """A Macaulay2 script rebuilding the matrices and asserting the checkable claims."""
    d = res.d
    yield ("-- Macaulay2 script for independent verification of the resolution\n"
           f"-- d = {d}, n = {res.n}, delta = {res.delta}\n"
           f"R = QQ[x_1..x_{d}];\n")
    for r, cols in enumerate(res.bases[1:], 1):
        sep = f"b{r} = matrix(R, {{\n  "
        for row in res.terms(r):
            cells = ["0"] * len(cols)
            for j, p in row.items():
                cells[j] = poly_str(p, var="x_")
            yield sep + "{" + ", ".join(cells) + "}"
            sep = ",\n  "
        yield "\n});\n"
    yield "".join(f"assert(b{r} * b{r + 1} == 0);\n" for r in range(1, d))
    betti = " and ".join(f"numgens source b{r} == {res.betti[r]}" for r in range(1, d + 1))
    yield f"assert({betti});\n"
    yield 'print "resolution checks passed";\n'


# the fragment generator of each format of gorlin resolve
FRAGMENTS = {"text": text_fragments, "json": json_fragments, "cas": cas_fragments}


def resolution_text(res: Resolution) -> str:
    return "".join(text_fragments(res))


def resolution_json(res: Resolution) -> str:
    return "".join(json_fragments(res))


def resolution_cas_script(res: Resolution) -> str:
    return "".join(cas_fragments(res))


def report_json(report: Report) -> str:
    return json.dumps(report.to_json_dict(), indent=1, sort_keys=True) + "\n"
