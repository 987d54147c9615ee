"""Reference oracles shared by the tests; the library itself never calls them."""

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class CmsdEnumeration:
    solutions: list
    observed_z: int


def enumerate_f(desc) -> CmsdEnumeration:
    """All values of f that satisfy the solution predicate, with distinct count."""
    vals = desc.evaluate_many(np.arange(desc.y))
    sols = list(vals[desc.is_solution(vals)])
    return CmsdEnumeration(solutions=sols, observed_z=len({v.tobytes() for v in sols}))


def rank(enum, v: np.ndarray) -> int:
    """Rank of v on the sphere of a SphereEnumerator: the inverse of enum.unrank."""
    r = 0
    budget = enum.w_scaled
    for i in range(enum.n):
        rem = enum.n - i - 1
        row = enum._rows[rem]
        for x in range(int(v[i])):
            left = budget - enum._tab[x]
            if 0 <= left < len(row):
                r += row[left]
        budget -= enum._tab[int(v[i])]
    return r
