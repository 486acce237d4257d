"""Matrices of polynomials with labeled, signed row and column bases."""

from __future__ import annotations

from dataclasses import dataclass

from .hookbasis import OrderedBasis
from .polynomials import Poly


@dataclass
class PolyMatrix:
    """Matrix over the polynomial ring whose rows/columns carry an OrderedBasis."""

    rows: OrderedBasis
    cols: OrderedBasis
    entries: list[list[Poly]]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    @property
    def d(self) -> int:
        return self.rows.d

    def column(self, j: int) -> list[Poly]:
        return [row[j] for row in self.entries]

    def mul(self, other: "PolyMatrix") -> list[list[Poly]]:
        """Plain entrywise product self @ other (labels are not checked)."""
        n, k = self.shape
        k2, p = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = [[Poly.zero(self.d) for _ in range(p)] for _ in range(n)]
        for i in range(n):
            for t in range(k):
                a = self.entries[i][t]
                if a.is_zero():
                    continue
                for j in range(p):
                    b = other.entries[t][j]
                    if not b.is_zero():
                        out[i][j] = out[i][j] + a * b
        return out

    def mod_x1(self) -> "PolyMatrix":
        return PolyMatrix(
            rows=self.rows,
            cols=self.cols,
            entries=[[p.subs_x1_zero() for p in row] for row in self.entries],
        )

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix(
            rows=self.rows,
            cols=self.cols,
            entries=[[p.scale(c) for p in row] for row in self.entries],
        )

    def block(self, kind: str) -> "PolyMatrix":
        """The submatrix on the rows and the columns of one basis kind, "X" or "Y"."""
        rows = [i for i, (_, e) in enumerate(self.rows) if e.kind == kind]
        cols = [j for j, (_, e) in enumerate(self.cols) if e.kind == kind]
        return PolyMatrix(
            rows=self.rows.part(kind),
            cols=self.cols.part(kind),
            entries=[[self.entries[i][j] for j in cols] for i in rows],
        )

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def same_entries(self, other: "PolyMatrix") -> bool:
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        return f"PolyMatrix({self.shape[0]}x{self.shape[1]})"
