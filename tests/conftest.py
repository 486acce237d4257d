import pytest

from gorlin.differentials import build_resolution
from gorlin.invsys import random_invsys, sum_of_powers

GRID = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
GRID_SEEDS = {(3, 2): 1, (3, 3): 2, (4, 2): 7, (4, 3): 3, (5, 2): 5, (5, 3): 11}

_cache = {}


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


@pytest.fixture
def d3_squares():
    return squares_phi(3)
