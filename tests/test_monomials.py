import random

import pytest

from gorlin.monomials import (
    degree,
    div_var,
    least,
    mono_str,
    monomials_of_degree,
    mul_var,
    sort_key,
    unit,
    var_divides,
)

from oracles import div, divides, mul, variable


def M(*e):
    return tuple(e)


def test_enumeration_examples():
    assert monomials_of_degree(3, 2, low_var=2) == (M(0, 2, 0), M(0, 1, 1), M(0, 0, 2))
    assert monomials_of_degree(4, 1) == (M(1, 0, 0, 0), M(0, 1, 0, 0), M(0, 0, 1, 0), M(0, 0, 0, 1))
    assert monomials_of_degree(4, 0, low_var=2) == (unit(4),)
    assert monomials_of_degree(3, -1) == ()


@pytest.mark.parametrize("d,low,s", [(3, 1, 4), (4, 2, 3), (5, 3, 2), (6, 1, 2)])
def test_enumeration_count_and_order(d, low, s):
    from math import comb

    monos = monomials_of_degree(d, s, low_var=low)
    assert len(monos) == comb(s + d - low, d - low)
    assert len(set(monos)) == len(monos)
    keys = [sort_key(m) for m in monos]
    assert keys == sorted(keys)
    for m in monos:
        assert degree(m) == s
        assert all(e == 0 for e in m[:low - 1])


def test_order_is_total():
    rng = random.Random(0)
    monos = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(50)]
    for m1 in monos:
        for m2 in monos:
            if m1 != m2:
                assert (sort_key(m1) < sort_key(m2)) != (sort_key(m2) < sort_key(m1))


def test_arithmetic():
    a, b = M(1, 2, 0), M(0, 1, 3)
    assert mul(a, b) == M(1, 3, 3)
    assert divides(a, mul(a, b)) and not divides(b, a)
    assert div(mul(a, b), b) == a
    with pytest.raises(ValueError):
        div(a, b)
    assert var_divides(1, a) and not var_divides(3, a)
    assert div_var(a, 2) == M(1, 1, 0)
    assert mul_var(a, 3) == M(1, 2, 1)
    assert variable(3, 2) == M(0, 1, 0)


def test_least_and_str():
    assert least(M(0, 0, 2, 1)) == 3
    with pytest.raises(ValueError):
        least(unit(3))
    assert mono_str(M(2, 0, 1)) == "x1^2*x3"
    assert mono_str(unit(2)) == "1"
