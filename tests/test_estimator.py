import math
from fractions import Fraction

import numpy as np
import pytest

import leeisd.estimator as estimator
import oracles
from leeisd.estimator import (
    SWEEP_COLUMNS,
    AlgoPoint,
    CodeParams,
    InfeasibleParameterError,
    hardest_instance,
    local_maxima_weights,
    optimize_point,
    sweep,
    work_factors,
)
from leeisd.weights import WeightFunction, sphere_exponent, sphere_exponent_many


def s_of(wf, omega):
    return sphere_exponent(wf, omega).s


def pi1_of(cp, L, P):
    return work_factors(cp, "classical", AlgoPoint(L, P, 1)).pi1


def test_p1_full_bottom_weight():
    # P = omega: the top sphere is weight zero, only the denominator remains
    wf = WeightFunction.lee(5)
    cp = CodeParams(wf, 0.4, 0.5)
    L = 0.1
    s_omega = s_of(wf, 0.5)
    expect = -max(0.0, min(s_omega - L, 1 - 0.4 - L))
    assert pi1_of(cp, L, 0.5) == pytest.approx(expect, abs=1e-9)


def test_p1_hand_value_hamming():
    wf = WeightFunction.hamming(3)
    cp = CodeParams(wf, 0.5, 0.1)
    got = pi1_of(cp, 0.0, 0.1)
    assert got == pytest.approx(-0.3590, abs=2e-4)


def test_p1_at_unique_solution_boundary():
    # s(omega) = 1 - R: the denominator saturates at 1 - R
    wf = WeightFunction.lee(7)
    rate = 0.55
    omega = local_maxima_weights(wf, rate)[0]
    cp = CodeParams(wf, rate, omega)
    got = pi1_of(cp, 0.0, 0.0)
    expect = (1 - rate) * s_of(wf, omega / (1 - rate)) - (1 - rate)
    assert got == pytest.approx(expect, abs=1e-6)
    assert got <= 0.0


def test_wagner1_factors_degenerate_and_saturated():
    wf = WeightFunction.lee(5)
    cp = CodeParams(wf, 0.5, 0.3)
    fac = work_factors(cp, "classical", AlgoPoint(0.0, 0.0, 2))
    assert fac.u == fac.x == fac.zeta == fac.tau == fac.y == 0.0
    # small L with rich bottom weight saturates u at m0/a, where zeta = N'*u
    point = AlgoPoint(0.02, 0.3, 1)
    fac = work_factors(cp, "classical", point)
    np_rel = 0.5 + 0.02
    m0 = 0.02 / np_rel
    assert fac.s_omega0 / 2 > m0  # saturated branch really active
    assert fac.u == pytest.approx(m0, rel=1e-9)
    assert fac.x == pytest.approx(fac.u, rel=1e-9)
    assert fac.zeta == pytest.approx(np_rel * fac.u, rel=1e-9)


def test_wagner2_u_below_wagner1():
    wf = WeightFunction.lee(5)
    cp = CodeParams(wf, 0.45, 0.8)
    for a in (1, 2, 3):
        pt = AlgoPoint(0.1, 0.4, a)
        assert work_factors(cp, "quantum", pt).u <= work_factors(cp, "classical", pt).u + 1e-12


def test_prange_degeneration_of_models():
    wf = WeightFunction.lee(3)
    cp = CodeParams(wf, 0.5, 0.2)
    pt = AlgoPoint(0.0, 0.0, 1)
    cl = work_factors(cp, "classical", pt)
    qu = work_factors(cp, "quantum", pt)
    assert cl.total_q == pytest.approx(-cl.pi1, abs=1e-12)
    assert qu.total_q == pytest.approx(-qu.pi1 / 2, abs=1e-12)
    assert cl.total_bin == pytest.approx(cl.total_q * math.log2(3), abs=1e-12)


def test_point_rejects_bad_level_count_and_model():
    cp = CodeParams(WeightFunction.lee(5), 0.45, 0.8)
    for a in (0, -1, 2.5, True, "2"):
        with pytest.raises(ValueError, match="level count"):
            AlgoPoint(0.1, 0.4, a)
    assert AlgoPoint(0.1, 0.4, np.int64(2)).a == 2
    with pytest.raises(ValueError, match="model"):
        work_factors(cp, "Quantum", AlgoPoint(0.1, 0.4, 1))


def test_quantum_not_above_classical_on_grid():
    wf = WeightFunction.lee(5)
    for rate in (0.3, 0.5, 0.7):
        for omega in (0.2, 0.8, 1.5):
            cp = CodeParams(wf, rate, omega)
            cl = optimize_point(cp, "classical", "wagner", a_max=6)
            qu = optimize_point(cp, "quantum", "wagner", a_max=6)
            assert qu.total_q <= cl.total_q + 1e-9


def test_optimizer_at_most_prange():
    wf = WeightFunction.lee(5)
    for rate in (0.3, 0.6):
        for omega in (0.2, 0.5):
            cp = CodeParams(wf, rate, omega)
            prange = optimize_point(cp, "classical", "prange")
            best = optimize_point(cp, "classical", "wagner", a_max=6)
            assert best.total_q <= prange.total_q + 1e-9


def test_omega_zero_costs_nothing():
    cp = CodeParams(WeightFunction.lee(3), 0.5, 0.0)
    assert optimize_point(cp, "classical", "wagner").total_q == 0.0


def test_prange_infeasible_at_large_weight():
    wf = WeightFunction.lee(3)
    cp = CodeParams(wf, 0.5, 0.9)  # needs P > 0 since omega > (1-R)*wmax
    with pytest.raises(InfeasibleParameterError):
        optimize_point(cp, "classical", "prange")


def test_optimizer_rejects_a_max_below_one():
    cp = CodeParams(WeightFunction.lee(3), 0.4, 0.8)
    for alg in ("wagner", "prange"):
        with pytest.raises(ValueError, match="a_max"):
            optimize_point(cp, "classical", alg, a_max=0)


def test_a_max_must_be_an_integer():
    wf = WeightFunction.lee(3)
    cp = CodeParams(wf, 0.4, 0.8)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="a_max"):
            optimize_point(cp, "classical", "wagner", a_max=bad)
        with pytest.raises(ValueError, match="a_max"):
            hardest_instance(wf, "classical", "wagner", a_max=bad)
        with pytest.raises(ValueError, match="a_max"):
            sweep(wf, 0.4, [0.8], a_max=bad)
    assert optimize_point(cp, "classical", "wagner", a_max=np.int64(2)).point.a <= 2


def test_q2_prange_low_weight_sweep_matches_independent_oracle():
    # oracle: binary entropy closed form on a coarse rate grid, sweeping the
    # unique-decoding radius (the lower of the two candidate weights)
    def h2(x):
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    def gv(rate):
        lo, hi = 1e-9, 0.5
        for _ in range(80):
            mid = (lo + hi) / 2
            if h2(mid) < 1 - rate:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    grid = np.arange(0.30, 0.60, 0.005)
    oracle = [(1 - r) * (1 - h2(gv(r) / (1 - r))) for r in grid]
    assert max(oracle) == pytest.approx(0.1207, abs=5e-4)
    assert grid[int(np.argmax(oracle))] == pytest.approx(0.454, abs=0.01)

    wf = WeightFunction.hamming(2)
    ours = []
    for r in grid:
        om = local_maxima_weights(wf, float(r))[0]
        ours.append(optimize_point(CodeParams(wf, float(r), om), "classical", "prange").total_bin)
    assert max(ours) == pytest.approx(0.1207, abs=1e-3)
    assert grid[int(np.argmax(ours))] == pytest.approx(0.454, abs=0.01)
    # the mirrored high-weight branch is strictly harder for this algorithm
    res = hardest_instance(wf, "classical", "prange")
    assert res.alpha > 0.1207 and res.omega > 0.5


@pytest.mark.parametrize("rate", [0.3, 0.454, 0.6, 0.8])
def test_q2_prange_matches_its_closed_form(rate):
    # the tolerance was fixed before the test ran; the errors measured <= 2.3e-16
    omega, closed = oracles.prange_q2(rate)
    cp = CodeParams(WeightFunction.hamming(2), rate, omega)
    assert abs(optimize_point(cp, "classical", "prange").total_q - closed) <= 1e-12
    assert abs(optimize_point(cp, "quantum", "prange").total_q - closed / 2) <= 1e-12


def test_q2_prange_column_lands_on_the_upper_crossing():
    # binary Hamming has c = 1 with wt(c - x) = 1 - wt(x): the prange column's
    # hardest point is the upper crossing, where Prange at P = 0 is brute force
    wf = WeightFunction.hamming(2)
    res = hardest_instance(wf, "classical", "prange")
    assert res.omega == local_maxima_weights(wf, res.rate)[1]
    assert (res.rate, res.omega, res.alpha_hat) == pytest.approx((0.22705, 0.77288, 0.77198), abs=5e-6)
    assert oracles.prange_q2(0.454)[1] == pytest.approx(0.1207, abs=5e-5)  # the lower crossing's peak


def test_local_maxima_residual_and_upper_endpoint():
    wf = WeightFunction.lee(5)
    lo, hi = local_maxima_weights(wf, 0.37)
    assert s_of(wf, lo) == pytest.approx(0.63, abs=1e-8)
    assert lo < float(sum(wf.table) / wf.q) < hi
    # 1 - R below the max-weight entropy: no crossing, endpoint returned
    assert 1 - 0.6 < math.log(2, 5)
    assert local_maxima_weights(wf, 0.6)[1] == 2.0
    # 1 - R above it: interior crossing with exact residual
    lo2, hi2 = local_maxima_weights(wf, 0.4)
    assert s_of(wf, hi2) == pytest.approx(0.6, abs=1e-8)


def test_local_maxima_lower_endpoint():
    # two weight-0 symbols: log_7(2) = 0.356 is above 1 - R = 0.3, so the low
    # branch has no crossing and returns its end exactly, as the high one does
    wf = WeightFunction(7, (0, 0, 1, Fraction(1, 3), 6, 2, Fraction(1, 3)))
    assert math.log(2, 7) > 1 - 0.7
    lo, hi = local_maxima_weights(wf, 0.7)
    assert lo == 0.0
    assert s_of(wf, hi) == pytest.approx(0.3, abs=1e-8)


def test_scaling_identity_everywhere():
    wf = WeightFunction.lee(13)
    cp = CodeParams(wf, 0.48, 5.742)
    for model in ("classical", "quantum"):
        fac = optimize_point(cp, model, "wagner", a_max=6)
        assert fac.total_bin == pytest.approx(fac.total_q * math.log2(13), abs=1e-12)


def test_reference_points_fixed_rate():
    # frozen hardest-instance reference pairs at their published rates
    fac = optimize_point(CodeParams(WeightFunction.lee(3), 0.370, 1.0), "classical", "wagner")
    assert fac.total_q == pytest.approx(0.170, abs=0.005)
    assert fac.total_bin == pytest.approx(0.269, abs=0.01)
    fac = optimize_point(CodeParams(WeightFunction.lee(3), 0.369, 1.0), "quantum", "wagner")
    assert fac.total_q == pytest.approx(0.093, abs=0.005)


def test_exponent_continuity_in_omega():
    wf = WeightFunction.lee(3)
    grid = np.arange(0.05, 0.12, 0.001)
    vals = [
        optimize_point(CodeParams(wf, 0.5, float(om)), "classical", "wagner", a_max=4).total_q
        for om in grid
    ]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() <= 0.02


def test_sweep_rows_and_zero_endpoint():
    wf = WeightFunction.lee(5)
    rows = sweep(wf, 0.5, [0.0, 1.0, 2.0], a_max=4)
    assert len(rows) == 12  # 3 omegas x 4 default columns
    for r in rows:
        if r.omega == 0.0:
            assert r.factors is not None and r.factors.total_q == 0.0
    # high weight: prange column infeasible, wagner present
    top = {(r.model, r.algorithm): r for r in rows if r.omega == 2.0}
    assert top[("classical", "prange")].factors is None
    assert top[("classical", "wagner")].factors is not None
    # columns given as an iterator still cover every weight
    again = sweep(wf, 0.5, [0.0, 1.0, 2.0], columns=iter(SWEEP_COLUMNS), a_max=4)
    assert again == rows


@pytest.mark.parametrize(
    "base, omegas",
    [(WeightFunction(3, (0, 1, 1)), (0.1, 0.5, 0.9)), (WeightFunction.lee(5), (0.1, 1.0, 1.9))],
)
def test_table_scale_invariance(base, omegas):
    # multiplying every weight and omega by c changes no exponent
    ref = None
    for c in (Fraction(1, 1000), Fraction(1), Fraction(1000)):
        wf = WeightFunction(base.q, tuple(c * x for x in base.table))
        k = float(c)
        s = [sphere_exponent(wf, om * k).s for om in omegas]
        s_many = sphere_exponent_many(wf, np.array(omegas) * k)
        crossings = [w / k for w in local_maxima_weights(wf, 0.5)]
        totals = [
            optimize_point(CodeParams(wf, 0.5, om * k), model, "wagner", a_max=4).total_q
            for om in omegas
            for model in ("classical", "quantum")
        ]
        assert s_many == pytest.approx(s, abs=1e-9)
        if ref is None:
            ref = (s, crossings, totals)
        assert s == pytest.approx(ref[0], abs=1e-9)
        assert crossings == pytest.approx(ref[1], rel=1e-9)
        assert totals == pytest.approx(ref[2], abs=1e-9)


@pytest.mark.parametrize(
    "wf",
    [
        WeightFunction.lee(3),
        WeightFunction.lee(43),
        WeightFunction.hamming(5),
        WeightFunction(7, (0, 1, 3, Fraction(1, 2), 7, 2, 2)),
        WeightFunction(5, (0, 1, 1, 1, 10**15)),
    ],
    ids=["lee3", "lee43", "hamming5", "custom7", "spread1e15"],
)
def test_grid_totals_lie_within_err_of_their_estimates(wf):
    # the seed grid solves only the points these estimates cannot rule out
    rng = np.random.default_rng(3)
    wmax = float(wf.max_weight)
    unit = np.linspace(0.0, 1.0, 64)
    levels = np.arange(1, 11)
    for _ in range(4):
        cp = CodeParams(wf, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, wmax)))
        fl, fp = np.repeat(unit, 64), np.tile(unit, 64)
        L, P = estimator._unit_to_LP(wmax, cp.rate, cp.omega, fl, fp)
        for quantum in (False, True):
            estimates, err = estimator._total_estimates(cp, quantum, L, P, levels)
            exact = estimator._factors(
                wf, cp.rate, cp.omega, cp.s_omega, quantum, L, P, levels[:, None]
            )["total"]
            for a, approx, total in zip(levels, estimates, exact):
                assert (np.abs(total - approx) <= err).all(), (cp, quantum, a)
