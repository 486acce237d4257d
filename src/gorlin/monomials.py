"""Monomials in x1..xd as exponent tuples, with the global enumeration order.

A monomial is a tuple of d nonnegative ints.  Every matrix row/column
ordering in the package is derived from one total order: sort by degree,
then by exponent tuple in reverse-lexicographic fashion so that x1 comes
before x2, x2^2 before x2*x3, and so on.
"""

from __future__ import annotations

from functools import lru_cache

Mono = tuple[int, ...]


def unit(d: int) -> Mono:
    return (0,) * d


def degree(m: Mono) -> int:
    return sum(m)


def var_divides(i: int, m: Mono) -> bool:
    """True when x_i | m (1-based)."""
    return m[i - 1] > 0


def div_var(m: Mono, i: int) -> Mono:
    """m / x_i; requires 1 <= i <= len(m) and x_i | m."""
    if not (1 <= i <= len(m) and m[i - 1]):
        raise ValueError(f"x{i} does not divide {m}")
    return m[:i - 1] + (m[i - 1] - 1,) + m[i:]


def mul_var(m: Mono, i: int) -> Mono:
    """m * x_i; requires 1 <= i <= len(m)."""
    if not 1 <= i <= len(m):
        raise ValueError(f"no variable x{i} among x1..x{len(m)}")
    return m[:i - 1] + (m[i - 1] + 1,) + m[i:]


def least(m: Mono) -> int:
    """Least 1-based index i with x_i | m.  The unit monomial has no least variable."""
    for k, e in enumerate(m):
        if e > 0:
            return k + 1
    raise ValueError("least variable of the unit monomial is undefined")


def sort_key(m: Mono):
    """Key realizing the global order: by degree, then x1-heavy monomials first."""
    return (sum(m), tuple(-e for e in m))


@lru_cache(maxsize=None)
def monomials_of_degree(d: int, deg: int, low_var: int = 1) -> tuple[Mono, ...]:
    """All monomials of the given degree in x_low_var..x_d, in the global order.

    Returns () for negative degree and (unit,) for degree 0.
    """
    if not 1 <= low_var <= d:
        raise ValueError(f"low_var {low_var} out of range 1..{d}")
    if deg < 0:
        return ()
    out: list[Mono] = []
    expo = [0] * d

    def rec(i: int, left: int) -> None:
        if i == d:
            expo[i - 1] = left
            out.append(tuple(expo))
            expo[i - 1] = 0
            return
        for e in range(left, -1, -1):
            expo[i - 1] = e
            rec(i + 1, left - e)
        expo[i - 1] = 0

    rec(low_var, deg)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(d: int, deg: int) -> dict[Mono, int]:
    """The position of each monomial in monomials_of_degree(d, deg), one shared dict to be read only."""
    return {m: i for i, m in enumerate(monomials_of_degree(d, deg))}


def mono_str(m: Mono, var: str = "x") -> str:
    """Readable form, e.g. 'x1^2*x3'; '1' for the unit; var names the variables."""
    parts = []
    for k, e in enumerate(m):
        if e == 1:
            parts.append(f"{var}{k + 1}")
        elif e > 1:
            parts.append(f"{var}{k + 1}^{e}")
    return "*".join(parts) if parts else "1"
