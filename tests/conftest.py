import random
from fractions import Fraction

import pytest

from gorlin.differentials import Resolution, build_resolution
from gorlin.invsys import InverseSystem, random_invsys, sum_of_powers
from gorlin.monomials import monomials_of_degree, unit
from gorlin.polymatrix import PolyMatrix
from gorlin.polynomials import Poly

GRID = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
GRID_SEEDS = {(3, 2): 1, (3, 3): 2, (4, 2): 7, (4, 3): 3, (5, 2): 5, (5, 3): 11}

_cache = {}


def _large_rational(d, n, seed):
    rng = random.Random(seed)
    return InverseSystem(d, n, {m: Fraction(rng.randint(-2**70, 2**70), rng.randint(1, 12))
                                for m in monomials_of_degree(d, 2 * n - 2)})


# systems pinned beside the grid, by label: the first instance of the
# d=4, n=4 benchmark workload, a (4, 3) system whose coefficients have
# mixed denominators and numerators near 2^70, and a d=7 point, where the
# skeleton and B are mostly zero cells
EXTRA_SYSTEMS = {
    "d=4 n=4 seed=0": lambda: random_invsys(4, 4, 0),
    "d=4 n=3 large-rational": lambda: _large_rational(4, 3, 70),
    "d=7 n=2 seed=1": lambda: random_invsys(7, 2, 1),
}
EXTRA = tuple(EXTRA_SYSTEMS)


def extra_phi(label):
    key = ("extra", label)
    if key not in _cache:
        _cache[key] = EXTRA_SYSTEMS[label]()
    return _cache[key]


def grid_phi(d, n):
    key = ("phi", d, n)
    if key not in _cache:
        _cache[key] = random_invsys(d, n, GRID_SEEDS[(d, n)], coeff_bound=5)
    return _cache[key]


def grid_resolution(d, n):
    key = ("res", d, n)
    if key not in _cache:
        _cache[key] = build_resolution(grid_phi(d, n))
    return _cache[key]


def resolution_at(d, n):
    """grid_resolution(d, n) on the grid, else the resolution of random_invsys(d, n, 1), built once."""
    if (d, n) in GRID_SEEDS:
        return grid_resolution(d, n)
    key = ("res", d, n, 1)
    if key not in _cache:
        _cache[key] = build_resolution(random_invsys(d, n, 1))
    return _cache[key]


def matrix_form(res):
    """A copy of res in matrix form (Resolution.from_matrices), every entry a Poly of its own.

    It keeps the full matrix route of the checks, and a test may alter its
    matrices; a built resolution hands out new matrices that refuse set.
    """
    mats = [PolyMatrix(m.rows, m.cols, [{j: Poly(m.d, p.terms) for j, p in row.items()} for row in m.entries])
            for m in res.matrices]
    return Resolution.from_matrices(res.phi, res.delta, res.bases, mats, res.twists)


def squares_phi(d):
    key = ("sq", d)
    if key not in _cache:
        _cache[key] = sum_of_powers(d, 2)
    return _cache[key]


def squares_resolution(d):
    key = ("sqres", d)
    if key not in _cache:
        _cache[key] = build_resolution(squares_phi(d))
    return _cache[key]


def swap_variables(phi, i, j):
    """The inverse system phi with x_i and x_j interchanged."""
    def sw(m):
        e = list(m)
        e[i - 1], e[j - 1] = e[j - 1], e[i - 1]
        return tuple(e)

    return InverseSystem(phi.d, phi.n, {sw(m): c for m, c in phi.coeffs.items()})


def mat_mul(a, b):
    """The product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def is_homogeneous(p):
    return len({sum(m) for m in p.terms}) <= 1


def constant(d, c):
    """The constant polynomial c in d variables."""
    return Poly(d, {unit(d): c})


def constant_term(p):
    return p.terms.get(unit(p.d), 0)


def scaled(mat, c):
    """mat with every entry multiplied by the scalar c."""
    return PolyMatrix(mat.rows, mat.cols, [{j: q for j, p in row.items() if (q := p.scale(c))}
                                           for row in mat.entries])


def sparse(rows, cols, cells):
    """The PolyMatrix on the bases rows, cols whose entries are the dense list of lists cells."""
    return PolyMatrix(rows, cols, [{j: p for j, p in enumerate(row) if p} for row in cells])


def dense(mat):
    """Every entry of mat as a list of rows, a zero Poly in each absent cell."""
    return [[mat.entry(i, j) for j in range(len(mat.cols))] for i in range(len(mat.rows))]


def column(mat, j):
    return [mat.entry(i, j) for i in range(len(mat.rows))]


def same_entries(a, b):
    # no zero is stored, so equal matrices have equal row dicts
    return a.shape == b.shape and a.entries == b.entries


@pytest.fixture
def d3_squares():
    return squares_phi(3)
