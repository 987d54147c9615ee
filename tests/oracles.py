"""Reference oracles shared by the tests; the library itself never calls them."""

import math
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


def bisection_crossings(wf, s: float) -> tuple[float, float]:
    """Mean weights below and above the average where the sphere exponent is s.

    A two-element bisection on beta, 72 steps over [0, beta_max] and
    [-beta_max, 0], with the solver's own entropy kernel.  Where even the
    maximal weight has entropy above s, the upper branch returns the top
    weight; the lower branch has no such rule and bisects toward beta_max.
    """
    d = wf._dual_solver
    side = np.array([1.0, -1.0])
    lo, hi = np.array([0.0, -d.beta_max]), np.array([d.beta_max, 0.0])
    for _ in range(72):
        mid = 0.5 * (lo + hi)
        up = side * (d.evaluate(mid)[:, 0] / d.lnq - s) > 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    w_lo, w_hi = d.evaluate(0.5 * (lo + hi))[:, 1]
    if math.log(d.mult[-1]) / d.lnq > s:
        w_hi = d.w[-1]
    return float(w_lo), float(w_hi)
