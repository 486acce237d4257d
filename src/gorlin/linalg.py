"""Exact dense linear algebra over Q: rank, kernel, determinant, adjugate.

A matrix is a list of rows whose entries are ints or Fractions.  Rank,
determinant, adjugate and the reduced row echelon form (rref, behind
kernel_basis) clear the denominators and run one integer fraction-free
(Bareiss) elimination, _eliminate, in which every intermediate entry is a
minor of the cleared matrix, so each division is exact and no Fraction is
formed; the adjugate then takes one exact back-substitution.  On an integer
matrix the determinant and adjugate are ints; rref forms a Fraction only
when it divides a row by the last pivot at the end.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import clear_denominators, over

Row = list[Fraction]
Matrix = list[Row]


def _eliminate(a: list[list[int]], width: int, jordan: bool = False) -> tuple[list[int], int]:
    """Fraction-free elimination in place on the integer rows a; (pivot columns, sign of the row swaps).

    Pivots are sought in columns 0..width-1.  At the step with pivot p in
    column c, each other row x (below the pivot row y, or every other row
    when jordan) becomes (p * x - x[c] * y) / prev for the previous pivot
    prev.  Its entries are minors of the input, so the division is exact
    (Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968).  Only columns c onward are updated,
    and with jordan also the non-pivot columns left of c: a pivot column
    left of c is zero off its pivot row, and no caller reads its pivot
    entry.  Without jordan no later step reads the columns to the left.
    With jordan the rows stay, off the pivot entries, the last pivot times
    the reduced form.
    """
    nrows = len(a)
    pivots: list[int] = []
    free: list[int] = []
    sign, prev = 1, 1
    for c in range(width):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            free.append(c)
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        row, p = a[r][c:], a[r][c]
        lead = [(k, a[r][k]) for k in free] if jordan else []
        for i in range(0 if jordan else r + 1, nrows):
            if i != r:
                ai, f = a[i], a[i][c]
                for k, y in lead:
                    ai[k] = (p * ai[k] - f * y) // prev
                ai[c:] = [(p * x - f * y) // prev for x, y in zip(ai[c:], row)]
        pivots.append(c)
        prev = p
    return pivots, sign


def rank(m: Matrix) -> int:
    """Rank, after clearing each row by the lcm of its denominators (a nonzero row scaling)."""
    if not m or not m[0]:
        return 0
    rows = [clear_denominators(row)[1] for row in m]
    return len(_eliminate(rows, len(rows[0]))[0])


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (a new matrix) and the list of pivot columns.

    Each row is cleared of its denominators and _eliminate runs in
    Gauss-Jordan mode; each pivot row is then divided by the last pivot once
    and its pivot entry written as 1.  The reduced form is unique, so it is
    the rational one.
    """
    a = [clear_denominators(row)[1] for row in m]
    pivots, _ = _eliminate(a, len(a[0]) if a else 0, jordan=True)
    last = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    for row, c in zip(a, pivots):
        row[:] = [over(x, last) for x in row]
        row[c] = 1
    return a, pivots


def kernel_basis(m: Matrix) -> list[Row]:
    """Exact basis of the right null space {v : m v = 0} of a matrix with at least one row."""
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


def det_and_adjugate(m: Matrix) -> tuple[int | Fraction, Matrix | None]:
    """(det m, adj m) with m*adj = adj*m = det*I exactly.

    One forward fraction-free elimination on [L m | I], then back-substitution.
    Fewer than n pivots in the left half mean a singular m, which gives
    (0, None) and no adjugate.  Otherwise the rows are [U | R] = F [P L m | P]
    for a row permutation P of sign s and some F, U upper triangular with
    last pivot D = det(P L m) = s det(L m).  So (L m)^-1 = U^-1 R, and
    X = D U^-1 R = s adj(L m) solves U X = D R: row k of X is
    (D R_k - sum_{j>k} U_kj X_j) / U_kk, and each division is exact, as X is
    integral.  Then det m = s D / L^n and adj m = s X / L^(n-1).
    """
    n = len(m)
    if n == 0:
        return 1, []
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    scale, flat = clear_denominators(v for row in m for v in row)
    a = [flat[i * n:(i + 1) * n] + [int(i == j) for j in range(n)] for i in range(n)]
    pivots, sign = _eliminate(a, n)
    if len(pivots) < n:
        return 0, None
    top = a[n - 1][n - 1]
    x: list[list[int]] = [[]] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        acc = [top * v for v in row[n:]]
        for j in range(k + 1, n):
            u = row[j]
            if u:
                acc = [s - u * v for s, v in zip(acc, x[j])]
        p = row[k]
        x[k] = [s // p for s in acc]
    q = scale ** (n - 1)
    return over(sign * top, q * scale), [[over(sign * v, q) for v in row] for row in x]
