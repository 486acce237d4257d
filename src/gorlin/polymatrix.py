"""Matrices of polynomials with labeled, signed row and column bases."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .hookbasis import OrderedBasis
from .monomials import Mono
from .polynomials import Poly, over


def pack(m: Mono, base: int) -> int:
    """The monomial as the int sum of m[k] * base**k; multiplication is addition below base."""
    key = 0
    for e in reversed(m):
        key = key * base + e
    return key


def unpack(key: int, base: int, d: int) -> Mono:
    out = []
    for _ in range(d):
        key, e = divmod(key, base)
        out.append(e)
    return tuple(out)


@dataclass
class PolyMatrix:
    """Matrix over the polynomial ring whose rows/columns carry an OrderedBasis.

    The storage is sparse: entries[i] maps a column j to the entry (i, j)
    for the nonzero entries of row i only, and a zero is never stored.  A
    single cell is read with entry(i, j), which gives a zero Poly for an
    absent cell, and written with set(i, j, p), which drops a zero.  Every
    whole-matrix reader iterates the nonzero entries alone.  A row dict keeps
    its insertion order, so a reader whose result depends on the order
    iterates nonzero(), which takes the columns of each row sorted.
    """

    rows: OrderedBasis
    cols: OrderedBasis
    entries: list[dict[int, Poly]]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    @property
    def d(self) -> int:
        return self.rows.d

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i].get(j) or Poly(self.d)

    def set(self, i: int, j: int, p: Poly) -> None:
        if p:
            self.entries[i][j] = p
        else:
            self.entries[i].pop(j, None)

    def nonzero(self):
        """(i, j, entry) for every nonzero entry, in row-major order."""
        for i, row in enumerate(self.entries):
            for j in sorted(row):
                yield i, j, row[j]

    def mul(self, other: "PolyMatrix") -> list[dict[int, Poly]]:
        """Plain product self @ other (labels are not checked), by row: column -> nonzero entry.

        Each operand is cleared to integers once by its denominator_lcm (1 for
        a matrix of int coefficients), and each monomial is packed into one
        int in a base above the product degree, so a product of terms is one
        int multiplication and one int addition.  A Poly is built only for a
        nonzero output entry, divided by the two denominators, so the result
        equals the rational product.  A row dict is in no column order.
        """
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        d = self.d
        base = self.max_degree() + other.max_degree() + 1
        scale_a, scale_b = denominator_lcm(self), denominator_lcm(other)
        denom = scale_a * scale_b
        b_rows = other.packed_rows(scale_b, base)
        out = []
        for cells in self.packed_rows(scale_a, base):
            sums: dict[int, dict[int, int]] = {}
            for t, a_terms in cells:
                for j, b_terms in b_rows[t]:
                    acc = sums.setdefault(j, {})
                    for ka, ca in a_terms:
                        for kb, cb in b_terms:
                            key = ka + kb
                            acc[key] = acc.get(key, 0) + ca * cb
            row = {}
            for j, acc in sums.items():
                terms = {unpack(key, base, d): over(c, denom) for key, c in acc.items() if c}
                if terms:
                    row[j] = Poly(d, terms)
            out.append(row)
        return out

    def max_degree(self) -> int:
        """The largest total degree of an entry (0 for a zero matrix)."""
        return max((sum(m) for row in self.entries for p in row.values() for m in p.terms), default=0)

    def packed_rows(self, scale: int, base: int) -> list[list[tuple[int, list[tuple[int, int]]]]]:
        """Per row, each nonzero entry as (column, [(packed monomial, scale * coefficient)]).

        scale must clear every denominator; an entry where it does not is an
        AssertionError.
        """
        out = []
        for i, row in enumerate(self.entries):
            cells = []
            for j, p in row.items():
                terms = []
                for m, c in p.terms.items():
                    if type(c) is int:
                        c *= scale
                    elif scale % c.denominator:
                        raise AssertionError(f"scale {scale} leaves a fraction in entry ({i}, {j})")
                    else:
                        c = c.numerator * (scale // c.denominator)
                    terms.append((pack(m, base), c))
                cells.append((j, terms))
            out.append(cells)
        return out

    def mod_x1(self) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [{j: q for j, p in row.items() if (q := p.subs_x1_zero())}
                                                 for row in self.entries])

    def block(self, kind: str) -> "PolyMatrix":
        """The submatrix on the rows and the columns of one basis kind, "X" or "Y"."""
        rows = [i for i, (_, e) in enumerate(self.rows) if e.kind == kind]
        cols = {j: k for k, j in enumerate(j for j, (_, e) in enumerate(self.cols) if e.kind == kind)}
        return PolyMatrix(
            rows=self.rows.part(kind),
            cols=self.cols.part(kind),
            entries=[{cols[j]: p for j, p in self.entries[i].items() if j in cols} for i in rows],
        )

    def __repr__(self) -> str:
        return f"PolyMatrix({self.shape[0]}x{self.shape[1]})"


def denominator_lcm(mat: PolyMatrix) -> int:
    """The least common multiple of the coefficient denominators of mat."""
    return lcm(*(c.denominator for row in mat.entries for p in row.values() for c in p.terms.values()
                 if type(c) is not int))
