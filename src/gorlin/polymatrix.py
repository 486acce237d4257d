"""Matrices of polynomials with labeled, signed row and column bases."""

from __future__ import annotations

from math import lcm

from .hookbasis import OrderedBasis
from .monomials import Mono
from .polynomials import Terms, over


# PolyMatrix.mul packs the columns of a row into ints of about this many bits of slots.  Timed on
# b_1 b_2 of random_invsys(d, n, 1) (2 vCPUs, Python 3.11), chunks of 2048 to 16384 bits were within
# 1.5x of one another at (4,4), (6,3), (6,4), (8,2) and (10,2), and 4096 was never the slowest; one
# int for all 384 columns of (6,4), 171 kbit of 445-bit slots, took 1.4 s against 0.49 s.
CHUNK_BITS = 4096


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


class PolyMatrix:
    """Matrix over the polynomial ring whose rows/columns carry an OrderedBasis.

    The storage is sparse: entries[i] maps a column j to the term dict of
    the entry (i, j) for the nonzero entries of row i only, and a zero (an
    empty dict) is never stored.  A single cell is read with entry(i, j),
    which gives {} for an absent cell, and written with set(i, j, p), which
    drops a zero.  Every whole-matrix reader iterates the nonzero entries
    alone.  A row dict keeps its insertion order, so a reader whose result
    depends on the order iterates nonzero(), which takes the columns of each
    row sorted.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: OrderedBasis, cols: OrderedBasis, entries: list[dict[int, Terms]]):
        self.rows, self.cols, self.entries = rows, cols, entries

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    @property
    def d(self) -> int:
        return self.rows.d

    def entry(self, i: int, j: int) -> Terms:
        return self.entries[i].get(j, {})

    def set(self, i: int, j: int, p: Terms) -> None:
        if p:
            self.entries[i][j] = p
        else:
            self.entries[i].pop(j, None)

    def nonzero(self):
        """(i, j, entry) for every nonzero entry, in row-major order."""
        for i, row in enumerate(self.entries):
            for j in sorted(row):
                yield i, j, row[j]

    def mul(self, other: "PolyMatrix") -> list[dict[int, Terms]]:
        """Plain product self @ other (labels are not checked), by row: column -> nonzero entry.

        Each operand is cleared to integers once by its denominator_lcm (a
        matrix of int coefficients is not copied), and each distinct monomial
        of the two is packed into one int in a base above the product degree,
        so that a product of monomials is an addition of keys.  Each row t of
        other then becomes, for each monomial u in the row, one int V[t][u]
        that holds the u-coefficients of the row in slots of w bits, one per
        column: V[t][u] = sum_j c(t, j, u) * 2^(w * slot(j)).  For every term
        a * m of an entry (i, t) of self, a * V[t][u] is added into the
        accumulator of monomial m + u of output row i: one int multiply-add
        per pair (term of self, monomial of a row of other), where a product
        of terms would take one per column.  A slot is given only to a column
        with a term, in the order the rows of other meet the columns, and the
        slots are cut into chunks of about CHUNK_BITS bits, one int each.

        The width is exact.  Let A be the largest |coefficient| of self and
        L_j the sum of |coefficient| over every term of column j of other.
        The coefficient of m' in output entry (i, j) is the sum over t and
        over the monomials u of entry (t, j) of a(i, t, m' - u) * c(t, j, u),
        at most one term of self for each pair (t, u), so its absolute value
        is at most A * L_j <= A * max_j L_j < 2^(w-1) for
        w = (A * max_j L_j).bit_length() + 1.  An accumulator is therefore
        v = sum_s e_s * 2^(w s) with every |e_s| < 2^(w-1).  It is zero
        exactly when every e_s is: if s is the lowest slot with e_s != 0, then
        v = e_s * 2^(w s) modulo 2^(w (s+1)), which is not 0 as 0 < |e_s| < 2^w.
        So only a nonzero accumulator is decoded, from the low slot up: v is
        e_s modulo 2^w, so x = v & mask gives e_s = x - 2^w if x >= 2^(w-1) and
        e_s = x otherwise, and v = (v - e_s) >> w holds the slots above.  A
        term is written only for a nonzero output coefficient, divided by the
        two denominators (over), so the result equals the rational product.
        A row dict is in no column order.
        """
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        d = self.d
        scale_a, scale_b = denominator_lcm(self), denominator_lcm(other)
        denom = scale_a * scale_b
        # a matrix whose denominator_lcm is 1 is its own cleared(1), so it is not scanned again
        a = self if scale_a == 1 else self.cleared(scale_a)
        b = other if scale_b == 1 else other.cleared(scale_b)
        # each column of b with a term gets a slot, in the order the rows meet them; weight[s] is its L_j
        cols = list(dict.fromkeys(j for row in b.entries for j in row))
        slot_of = {j: s for s, j in enumerate(cols)}
        weight = [0] * len(cols)
        placed = [[(slot_of[j], p) for j, p in row.items()] for row in b.entries]
        for row_t in placed:
            for s, terms in row_t:
                weight[s] += sum(map(abs, terms.values()))
        a_monos, b_monos = a.monomials(), b.monomials()
        base = max(map(sum, a_monos), default=0) + max(map(sum, b_monos), default=0) + 1
        keys = {m: pack(m, base) for m in a_monos | b_monos}
        a_packed = [[(t, [(keys[m], c) for m, c in p.items()]) for t, p in row.items()] for row in a.entries]
        top = max((max(map(abs, p.values())) for row in a.entries for p in row.values()), default=0)
        w = (top * max(weight, default=0)).bit_length() + 1
        per = max(1, CHUNK_BITS // w)
        # chunks[k][t] maps the key of u to V[t][u] on the columns of slots k * per onward
        chunks: list[list[dict[int, int]]] = [[{} for _ in placed] for _ in range(0, len(cols), per)]
        for t, row_t in enumerate(placed):
            for s, terms in row_t:
                k, s = divmod(s, per)
                prow, shift = chunks[k][t], w * s
                for u, c in terms.items():
                    ku = keys[u]
                    prow[ku] = prow.get(ku, 0) + (c << shift)
        full, half = 1 << w, 1 << (w - 1)
        mask = full - 1
        out = []
        for cells in a_packed:
            row: dict[int, Terms] = {}
            for lo, packed in zip(range(0, len(cols), per), chunks):
                acc: dict[int, int] = {}
                for t, terms in cells:
                    if not packed[t]:
                        continue
                    prow = packed[t].items()
                    for km, c in terms:
                        for ku, v in prow:
                            key = km + ku
                            acc[key] = acc.get(key, 0) + c * v
                for key, v in acc.items():
                    if not v:
                        continue
                    m = unpack(key, base, d)
                    s = lo
                    while v:
                        x = v & mask
                        if x:
                            if x >= half:
                                x -= full
                            v -= x
                            row.setdefault(cols[s], {})[m] = over(x, denom)
                        v >>= w
                        s += 1
            out.append(row)
        return out

    def monomials(self) -> set[Mono]:
        """The distinct monomials of the entries."""
        out: set[Mono] = set()
        for row in self.entries:
            for p in row.values():
                out.update(p)
        return out

    def cleared(self, scale: int) -> "PolyMatrix":
        """scale * self, with int coefficients; self itself when scale is 1 and it has no Fraction.

        scale must clear every denominator; an entry where it does not is an
        AssertionError.
        """
        if scale == 1 and denominator_lcm(self) == 1:
            return self
        entries = []
        for i, row in enumerate(self.entries):
            cells = {}
            for j, p in row.items():
                terms = {}
                for m, c in p.items():
                    if type(c) is int:
                        c *= scale
                    elif scale % c.denominator:
                        raise AssertionError(f"scale {scale} leaves a fraction in entry ({i}, {j})")
                    else:
                        c = c.numerator * (scale // c.denominator)
                    terms[m] = c
                cells[j] = terms
            entries.append(cells)
        return PolyMatrix(self.rows, self.cols, entries)

    def mod_x1(self) -> "PolyMatrix":
        """Reduction mod x1: each entry without its terms divisible by x1, an entry left with none dropped."""
        entries = [{j: q for j, p in row.items() if (q := {m: c for m, c in p.items() if not m[0]})}
                   for row in self.entries]
        return PolyMatrix(self.rows, self.cols, entries)

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
    return lcm(*(c.denominator for row in mat.entries for p in row.values() for c in p.values()
                 if type(c) is not int))
