"""Lockstep compass searches against the sequential search they replaced.

_pattern_search below is the sequential compass search, one problem at a
time, copied unchanged together with the three helpers it calls, in their
one-problem signatures.  reference_optimize_point wraps it in
optimize_point's grid seeding.  The lockstep optimizer must reproduce it
bit for bit, problem by problem, however the problems are batched.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

import leeisd.estimator as estimator
from leeisd.estimator import (
    _EPS,
    _PATTERN_TOL,
    AlgoPoint,
    CodeParams,
    InfeasibleParameterError,
    local_maxima_weights,
    optimize_point,
    sweep,
    work_factors,
)
from leeisd.weights import WeightFunction, sphere_exponent_many

# -- the sequential reference ------------------------------------------------


def _feasible_P_range(cp: CodeParams, L):
    wmax = float(cp.wf.max_weight)
    lo = np.maximum(0.0, cp.omega - (1.0 - cp.rate - L) * wmax)
    hi = np.minimum(cp.omega, (cp.rate + L) * wmax)
    return lo, hi


def _factors(cp: CodeParams, model: str, L, P, a) -> dict:
    """Every exponent of the merge-tree attack at feasible points (L, P).

    The classical model uses the merge tree over 2^a blocks, the quantum
    model the checkable-function tree over 2^a + 1 units.  L, P and a
    broadcast together, so a column of level counts against rows of
    points costs no more entropy work than one level count.
    """
    R = cp.rate
    out_len = 1.0 - R - L
    s_out = sphere_exponent_many(cp.wf, (cp.omega - P) / np.maximum(out_len, _EPS))
    num = np.where(out_len > _EPS, out_len * s_out, 0.0)
    pi1 = np.minimum(0.0, num - np.maximum(0.0, np.minimum(cp.s_omega - L, out_len)))
    np_rel = R + L  # N' = R + L, the bottom part's relative length
    m0 = L / np_rel
    s0 = sphere_exponent_many(cp.wf, P / np_rel)
    quantum = model == "quantum"
    u = np.minimum(s0 / (2**a + quantum), m0 / a)
    x = m0 - (a - 1) * u
    zeta = np_rel * ((2 + quantum) * u - x)
    tau = np_rel * u
    y = (1 + quantum) * tau
    root = 1 + quantum  # the quantum model square-roots restarts and search
    total = np.maximum(0.0, -pi1 - zeta) / root + np.maximum(tau, y / root)
    return {"pi1": pi1, "zeta": zeta, "tau": tau, "y": y, "u": u, "x": x,
            "s_omega0": s0, "total": total}


def _unit_to_LP(cp: CodeParams, fl, fp):
    """Map unit-box coordinates onto the feasible (L, P) region."""
    L = fl * (1.0 - cp.rate)
    lo, hi = _feasible_P_range(cp, L)
    return L, lo + fp * (hi - lo)


def _pattern_search(
    cp: CodeParams,
    model: str,
    a: int,
    L0: float,
    P0: float,
) -> tuple[float, float, float]:
    """Compass search in unit-box coordinates, step halved when stuck."""
    R = cp.rate

    def totals(fl, fp):
        return _factors(cp, model, *_unit_to_LP(cp, fl, fp), a)["total"]

    fl = min(max(L0 / (1.0 - R), 0.0), 1.0)
    lo, hi = _feasible_P_range(cp, fl * (1.0 - R))
    fp = 0.0 if hi - lo < _EPS else min(max((P0 - lo) / (hi - lo), 0.0), 1.0)
    cur = float(totals(np.array([fl]), np.array([fp]))[0])
    step = 1.0 / 63
    polls = 0
    while step > _PATTERN_TOL and polls < 400:
        polls += 1
        cand_f = np.clip(
            np.array(
                [[fl + step, fp], [fl - step, fp], [fl, fp + step], [fl, fp - step]]
            ),
            0.0,
            1.0,
        )
        vals = totals(cand_f[:, 0], cand_f[:, 1])
        i = int(np.argmin(vals))
        if vals[i] < cur - 1e-14:
            cur = float(vals[i])
            fl, fp = float(cand_f[i, 0]), float(cand_f[i, 1])
        else:
            step *= 0.5
    Ls, Ps = _unit_to_LP(cp, np.array([fl]), np.array([fp]))
    return cur, float(Ls[0]), float(Ps[0])


def reference_seeds(cp, model, algorithm, a_max=10):
    """(a, L0, P0) of the three best level counts on the 64x64 grid."""
    a_values = np.arange(1, 2 if algorithm == "dumer" else a_max + 1)
    unit = np.linspace(0.0, 1.0, 64)
    L, P = _unit_to_LP(cp, np.repeat(unit, 64), np.tile(unit, 64))
    totals = _factors(cp, model, L, P, a_values[:, None])["total"]
    seeds = []
    for a, tot in zip(a_values, totals):
        i = int(np.argmin(tot))
        seeds.append((float(tot[i]), int(a), float(L[i]), float(P[i])))
    seeds.sort()
    return [s[1:] for s in seeds[:3]]


def reference_searches(cp, model, algorithm, a_max=10):
    """(value, L, P, a) of each of the three compass searches, one after another."""
    return [
        (*_pattern_search(cp, model, a, L0, P0), a)
        for a, L0, P0 in reference_seeds(cp, model, algorithm, a_max)
    ]


def reference_optimize_point(cp, model, algorithm, a_max=10):
    """optimize_point with its three compass searches run one after another."""
    if cp.omega <= _EPS or algorithm == "prange":
        return work_factors(cp, model, AlgoPoint(0.0, 0.0, 1))
    best = None
    for v, Lr, Pr, a in reference_searches(cp, model, algorithm, a_max):
        if best is None or v < best[0] - 1e-13:
            best = (v, AlgoPoint(Lr, Pr, a))
    return work_factors(cp, model, best[1])


# -- the tests ----------------------------------------------------------------

TABLES = {
    "lee3": WeightFunction.lee(3),
    "hamming3": WeightFunction.hamming(3),
    "lee5": WeightFunction.lee(5),
    "lee43": WeightFunction.lee(43),
    "tiny-unit": WeightFunction(3, (0, Fraction(1, 1000), Fraction(1, 1000))),
}


@pytest.mark.parametrize("name", TABLES)
def test_lockstep_matches_sequential_search(name, monkeypatch):
    searches = []  # (value, L, P) of every search of each lockstep batch
    compass = estimator._compass

    def recording(*args):
        out = compass(*args)
        searches.append([tuple(map(float, r)) for r in zip(*out)])
        return out

    monkeypatch.setattr(estimator, "_compass", recording)
    wf = TABLES[name]
    for rate in (0.3, 0.5):
        for omega in local_maxima_weights(wf, rate):
            cp = CodeParams(wf, rate, omega)
            for model in ("classical", "quantum"):
                for algorithm in ("wagner", "dumer"):
                    case = (name, rate, omega, model, algorithm)
                    got = optimize_point(cp, model, algorithm)
                    want = [s[:3] for s in reference_searches(cp, model, algorithm)]
                    # repr tells every float bit pattern apart, -0.0 included
                    assert repr(searches.pop()) == repr(want), case
                    want = reference_optimize_point(cp, model, algorithm)
                    assert repr(got) == repr(want), case


def _counting(fn, calls):
    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted


def test_one_factors_call_per_poll(monkeypatch):
    cp = CodeParams(WeightFunction.lee(5), 0.5, 0.4)
    polls = []
    for a, L0, P0 in reference_seeds(cp, "classical", "wagner"):
        calls = []
        monkeypatch.setattr(sys.modules[__name__], "_factors", _counting(_factors, calls))
        _pattern_search(cp, "classical", a, L0, P0)
        polls.append(len(calls) - 1)  # one call prices the start
    monkeypatch.undo()
    assert len(set(polls)) > 1  # searches of different lengths share the batch

    calls = []
    monkeypatch.setattr(estimator, "_factors", _counting(estimator._factors, calls))
    optimize_point(cp, "classical", "wagner")
    # the grid, the three starts, one per poll of the longest search, the result
    assert len(calls) == 1 + 1 + max(polls) + 1


def test_sweep_rows_equal_per_cell_optimization(monkeypatch):
    wf = WeightFunction.lee(5)
    rate = 0.5
    # 0, the top weight, and prange infeasible above (1 - R) * 2 = 1
    omegas = [0.0, 0.4, 1.0, 1.5, 2.0]
    # dumer's search always ends inside the feasible box, so block its
    # optimum at one cell to see an infeasible problem inside the batch
    blocked = optimize_point(CodeParams(wf, rate, 0.4), "classical", "dumer").point
    check_point = estimator._check_point

    def check_blocking(cp, L, P):
        if (cp.omega, L, P) == (0.4, blocked.L, blocked.P):
            raise InfeasibleParameterError("blocked")
        check_point(cp, L, P)

    monkeypatch.setattr(estimator, "_check_point", check_blocking)
    rows = sweep(wf, rate, omegas)
    assert len(rows) == len(omegas) * len(estimator.SWEEP_COLUMNS)
    missing = set()
    for row in rows:
        try:
            want = optimize_point(CodeParams(wf, rate, row.omega), row.model, row.algorithm)
        except InfeasibleParameterError:
            want = None
            missing.add((row.omega, row.algorithm))
        assert repr(row.factors) == repr(want), (row.omega, row.model, row.algorithm)
    assert missing == {(0.4, "dumer"), (1.5, "prange"), (2.0, "prange")}


def test_hardness_keeps_the_feasible_weight():
    wf = WeightFunction.lee(3)
    rate = 0.5
    lo, hi = local_maxima_weights(wf, rate)
    with pytest.raises(InfeasibleParameterError):
        optimize_point(CodeParams(wf, rate, hi), "classical", "prange")
    ((f, omega),) = estimator._hardness_at(wf, [rate], "classical", "prange", 10)
    assert omega == lo
    assert repr(f) == repr(optimize_point(CodeParams(wf, rate, lo), "classical", "prange"))
