"""Exact dense linear algebra over Q: rank, kernel, determinant, adjugate.

Matrices are lists of rows of Fractions.  Elimination for determinants is
fraction-free (Bareiss) to keep intermediate entries small on integer input.
The adjugate is computed only for a nonsingular matrix, by one solve.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]
Matrix = list[Row]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, p = len(a), len(b), len(b[0])
    out = zeros(n, p)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for j in range(k):
            c = ai[j]
            if c:
                bj = b[j]
                for t in range(p):
                    if bj[t]:
                        oi[t] += c * bj[t]
    return out


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (copy) and the list of pivot columns."""
    a = [row[:] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    if not m or not m[0]:
        return 0
    return len(rref(m)[1])


def kernel_basis(m: Matrix, ncols: int | None = None) -> list[Row]:
    """Exact basis of the right null space {v : m v = 0}.

    ncols is required when m has no rows.
    """
    if not m:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [e for e in identity(ncols)]
    ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Row] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def det_bareiss(m: Matrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = [row[:] for row in m]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not a[k][k]:
            pr = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pr is None:
                return Fraction(0)
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pk - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pk
    return sign * a[n - 1][n - 1]


def solve_right(m: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve m X = rhs for square nonsingular m; None when singular."""
    n = len(m)
    k = len(rhs[0]) if rhs else 0
    aug = [m[i][:] + rhs[i][:] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [red[i][n:n + k] for i in range(n)]


def det_and_adjugate(m: Matrix) -> tuple[Fraction, Matrix | None]:
    """(det m, adj m) with m*adj = adj*m = det*I exactly.

    A singular m costs one determinant and gives (0, None), as solve_right
    gives None.
    """
    n = len(m)
    if n == 0:
        return Fraction(1), []
    d = det_bareiss(m)
    if d == 0:
        return d, None
    rhs = zeros(n, n)
    for i in range(n):
        rhs[i][i] = d
    adj = solve_right(m, rhs)
    assert adj is not None
    return d, adj
