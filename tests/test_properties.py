"""Property tests: merge against the brute-force double loop, sphere rank round
trips, the entropy solver and its crossings against plain bisections and exact
sphere counts on random tables, and the exact solver's success probability
against the estimator's exponent.

Every hypothesis test has its own fixed @seed and no example database, so
each run draws the same cases, and editing a test's body draws no others.
"""

import math
import warnings
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from leeisd import estimator
from leeisd.estimator import (
    AlgoPoint,
    CodeParams,
    InfeasibleParameterError,
    _factors,
    hardest_instance,
    local_maxima_weights,
    optimize_point,
    work_factors,
)
from leeisd.isd import _exact_p1
from leeisd.merge import IndexedList, _encode_keys, merge
from leeisd.weights import (
    SphereEnumerator,
    WeightFunction,
    _Dual,
    _hermite_start,
    _newton,
    _solve_dual,
    sphere_count_exact,
    sphere_exponent,
    sphere_exponent_many,
)
import oracles
from oracles import bisection_crossings, hermite_start, sphere_rank as rank

# The oracle row depends on (table, n) only, and
# test_exact_counts_converge_to_sphere_exponent asks for each of its two
# rows once per fraction.  The cache hoists that work out of the test.
count_row = lru_cache(maxsize=2)(oracles.count_row)

FIXED = settings(database=None, deadline=None, max_examples=100)


@st.composite
def merge_cases(draw, qs, widths, min_j):
    """Two lists, a coordinate subset J and a target (half the time the sum of a pair).

    Rows are copies of a few seed rows, about half of them with one
    coordinate redrawn, so matches and near misses on a wide J are common.
    """
    q = draw(st.sampled_from(qs))
    m = draw(widths)
    J = draw(st.lists(st.integers(0, m - 1), min_size=min(min_j, m), max_size=m, unique=True))
    coords = st.lists(st.integers(0, q - 1), min_size=m, max_size=m)
    seeds = draw(st.lists(coords, min_size=1, max_size=3))

    def rows():
        out = []
        for _ in range(draw(st.integers(1, 12))):
            row = list(draw(st.sampled_from(seeds)))
            if draw(st.booleans()):
                row[draw(st.integers(0, m - 1))] = draw(st.integers(0, q - 1))
            out.append(row)
        return np.array(out, dtype=np.int64)

    a, b = rows(), rows()
    if draw(st.booleans()):
        t = (a[draw(st.integers(0, len(a) - 1))] + b[draw(st.integers(0, len(b) - 1))]) % q
    else:
        t = np.array(draw(coords), dtype=np.int64)
    return q, IndexedList(q, a, np.arange(len(a))), IndexedList(q, b, np.arange(len(b))), J, t


def check_against_double_loop(q, L1, L2, J, t):
    out = merge(L1, L2, J, t)
    want = {
        (i, j)
        for i in range(len(L1))
        for j in range(len(L2))
        if np.array_equal((L1.syndromes[i] + L2.syndromes[j])[J] % q, t[J] % q)
    }
    pairs = [tuple(p) for p in out.backrefs.tolist()]
    assert len(pairs) == len(set(pairs)) == len(want)  # complete, no pair twice
    assert set(pairs) == want  # sound
    for (i, j), syn in zip(pairs, out.syndromes):
        assert np.array_equal(syn, (L1.syndromes[i] + L2.syndromes[j]) % q)


@FIXED
@seed(1)
@given(merge_cases(qs=(2, 3, 5, 7), widths=st.integers(1, 5), min_j=0))
def test_merge_matches_double_loop(case):
    check_against_double_loop(*case)


@FIXED
@seed(1)
@given(merge_cases(qs=(331,), widths=st.integers(8, 10), min_j=8))
def test_merge_matches_double_loop_object_keys(case):
    q, L1, L2, J, t = case
    assert _encode_keys(L1.syndromes[:, J], q).dtype == object  # q^|J| >= 2^62
    check_against_double_loop(*case)


TABLES = (
    WeightFunction.lee(3),
    WeightFunction.hamming(3),
    WeightFunction.lee(5),
    WeightFunction.hamming(7),
    WeightFunction(5, (0, 0, Fraction(1, 2), Fraction(3, 2), 1)),
    WeightFunction.lee(331),  # n = 10 spheres of mid weight hold more than 2^63 vectors
    WeightFunction.hamming(331),
)


@st.composite
def sphere_cases(draw):
    wf = draw(st.sampled_from(TABLES))
    n = draw(st.integers(1, 4 if wf.q == 331 else 10) | st.just(10))
    top = int(wf.int_table_array().max()) * n
    w_scaled = draw(st.integers(0, top))
    enum = SphereEnumerator(wf, n, Fraction(w_scaled, wf.denominator))
    ranks = draw(st.lists(st.integers(0, enum.count - 1), max_size=16)) if enum.count else []
    return wf, enum, w_scaled, ranks


@FIXED
@seed(1)
@given(sphere_cases())
def test_sphere_rank_unrank_round_trips(case):
    wf, enum, w_scaled, ranks = case
    rows = enum.unrank_many(ranks)
    assert rows.shape == (len(ranks), enum.n)
    for r, row in zip(ranks, rows):
        assert np.array_equal(row, enum.unrank(r))
        assert rank(enum, row) == r
        assert int(wf.int_table_array()[row].sum()) == w_scaled


# Zero-cost nonzero symbols and repeated weights are common in these draws.
WEIGHT_POOL = (0, 0, 1, 1, 2, 6, Fraction(1, 2), Fraction(1, 3), Fraction(3, 2))


@st.composite
def random_tables(draw):
    """A rational table over q in {2, 3, 5, 7}; entropy does not depend on symbol order."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    first = draw(st.sampled_from([x for x in WEIGHT_POOL if x]))
    rest = draw(st.lists(st.sampled_from(WEIGHT_POOL), min_size=q - 2, max_size=q - 2))
    return WeightFunction(q, (0, first, *rest))


@st.composite
def entropy_cases(draw):
    """A table and targets: interior points and points within 1e-12 w_max of each end."""
    wide = (WeightFunction.lee(331), WeightFunction.hamming(331))
    wf = draw(random_tables() | st.sampled_from(wide))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    near = draw(st.lists(st.floats(0.0, 1e-12), max_size=4))
    wmax = float(wf.max_weight)
    return wf, np.array(inner + near + [1.0 - t for t in near]) * wmax


def bisection_exponents(wf, omegas):
    """Entropy exponents from 72 bisection steps on beta over the solver's own bracket."""
    w, mult = wf.weight_classes()
    lnq = math.log(wf.q)
    beta_max = 60.0 / (min(w[1] - w[0], w[-1] - w[-2]) * lnq)
    om = np.clip(np.asarray(omegas, dtype=float), 0.0, w[-1])

    def gibbs(beta):
        z = np.log(mult) - np.multiply.outer(beta * lnq, w)
        z -= z.max(axis=-1, keepdims=True)
        return np.exp(z), z

    lo, hi = np.full(om.shape, -beta_max), np.full(om.shape, beta_max)
    for _ in range(72):
        mid = 0.5 * (lo + hi)
        e, _ = gibbs(mid)
        up = e @ w > om * e.sum(axis=-1)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    e, z = gibbs(0.5 * (lo + hi))
    tot = e.sum(axis=-1, keepdims=True)
    ent = -(e / tot * (z - np.log(tot) - np.log(mult))).sum(axis=-1) / lnq
    ent = np.where(om <= 0.0, math.log(mult[0]) / lnq, np.clip(ent, 0.0, 1.0))
    return np.where(om >= w[-1], math.log(mult[-1]) / lnq, ent)


@FIXED
@seed(1)
@given(entropy_cases())
def test_entropy_solver_matches_bisection(case):
    wf, omegas = case
    wmax = float(wf.max_weight)
    tab = np.array([float(x) for x in wf.table])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        wf._dual_solver.nodes  # the start table, built once per table
        with mock.patch.object(_Dual, "evaluate", autospec=True, side_effect=_Dual.evaluate) as spy:
            s = sphere_exponent_many(wf, omegas)
        means = [float(sphere_exponent(wf, om).lam @ tab) for om in omegas]
    assert np.abs(s - bisection_exponents(wf, omegas)).max() <= 1e-12
    assert np.abs(np.array(means) - omegas).max() <= 1e-12 * wmax
    # a few Newton steps at most, not a 72-step bisection
    assert spy.call_count <= 8


@FIXED
@seed(1)
@given(random_tables(), st.floats(0.05, 0.95))
def test_crossings_match_bisection(wf, rate):
    wf._dual_solver.nodes  # the start table, built once per table
    with mock.patch.object(_Dual, "evaluate", autospec=True, side_effect=_Dual.evaluate) as spy:
        got = local_maxima_weights(wf, rate)
    want = bisection_crossings(wf, 1.0 - rate)
    assert np.abs(np.subtract(got, want)).max() <= 1e-12 * float(wf.max_weight)
    # a few Newton steps at most, for both branches at once
    assert spy.call_count <= 10


LEE = [WeightFunction.lee(q) for q in (3, 13, 43, 163, 331)]
TWELVE = np.linspace(0.05, 0.95, 12)  # targets over w_max


def kernel_passes(fn, *args):
    with mock.patch.object(_Dual, "evaluate", autospec=True, side_effect=_Dual.evaluate) as spy:
        fn(*args)
    return spy.call_count


@pytest.mark.parametrize("wf", LEE, ids=lambda wf: f"lee{wf.q}")
def test_one_kernel_pass_per_solve(wf):
    # the Hermite start lands within the Newton tolerance, so the first
    # pass ends every solve; a crossing near beta = 0, where dbeta/dy is
    # not finite, may take one more
    wmax = float(wf.max_weight)
    wf._dual_solver.nodes  # the start table, built once per table
    uniform = np.random.default_rng(2020).uniform(0.0, 1.0, 4096)
    for targets in (TWELVE, uniform):
        assert kernel_passes(sphere_exponent_many, wf, targets * wmax) == 1
    for rate in (0.05, 0.2, 0.5, 0.95):
        assert kernel_passes(local_maxima_weights, wf, rate) <= 2


def check_carried_rows(wf):
    d, wmax = wf._dual_solver, float(wf.max_weight)
    ent, beta = _solve_dual(wf, np.linspace(0.0, 1.0, 401) * wmax)
    live = np.isfinite(beta)
    fresh = np.clip(d.evaluate(beta[live])[:, 0] / d.lnq, 0.0, 1.0)
    assert np.abs(ent[live] - fresh).max() <= 2e-15
    solves = []

    def newton(*args):
        solves.append(_newton(*args))
        return solves[-1]

    with mock.patch("leeisd.weights._newton", side_effect=newton):
        means = [local_maxima_weights(wf, rate) for rate in (0.05, 0.2, 0.5, 0.95)]
    for (beta, rows), got in zip(solves, means):
        assert np.array_equal(rows[:, 1], [m for m in got if 0.0 < m < wmax])
        if len(beta):
            assert np.abs(rows[:, 1] - d.evaluate(beta)[:, 1]).max() <= 2e-15 * wmax


@pytest.mark.parametrize("wf", LEE, ids=lambda wf: f"lee{wf.q}")
def test_carried_rows_match_a_fresh_pass(wf):
    check_carried_rows(wf)


@FIXED
@seed(1)
@given(random_tables())
def test_one_pass_and_carried_rows_on_random_tables(wf):
    wf._dual_solver.nodes
    assert kernel_passes(sphere_exponent_many, wf, TWELVE * float(wf.max_weight)) == 1
    check_carried_rows(wf)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def check_start_table(d, targets):
    """The table start equals the per-point oracle bit for bit, on both keys."""
    x, y, _, dx, dy = d.nodes
    for start, key, slopes in ((d.starts[0], x, dx), (d.starts[1], y, dy)):
        for t in targets(key, slopes):
            for got, want in zip(_hermite_start(start, t), hermite_start(d, key, slopes, t)):
                assert np.array_equal(bits(got), bits(want))


def start_targets(seed):
    def targets(key, slopes):
        rng = np.random.default_rng(seed)
        nan_cells = np.flatnonzero(np.isnan(slopes))  # dy at beta = 0
        special = np.concatenate([
            key,  # exactly on every node
            [key[0] - 1.0, np.nextafter(key[0], -1e300)],  # the low end cell
            [np.nextafter(key[-1], 1e300), key[-1] + 1.0],  # the high end cell
            *(rng.uniform(key[max(i - 1, 0)], key[min(i + 1, len(key) - 1)], 8) for i in nan_cells),
        ])
        inside = rng.uniform(key[0] - 0.5, key[-1] + 0.5, 4096)
        return [special[:1], special[-12:], special, inside[:1], inside[:12], inside]
    return targets


@pytest.mark.parametrize("wf", LEE, ids=lambda wf: f"lee{wf.q}")
def test_start_table_matches_the_per_point_oracle(wf):
    d = wf._dual_solver
    assert np.isnan(d.nodes[4]).any()  # the nan-slope cells are covered
    check_start_table(d, start_targets(wf.q))


@FIXED
@seed(1)
@given(random_tables(), st.integers(0, 2**32 - 1))
def test_start_table_matches_the_oracle_on_random_tables(wf, seed):
    check_start_table(wf._dual_solver, start_targets(seed))


@pytest.mark.parametrize("wf", LEE, ids=lambda wf: f"lee{wf.q}")
def test_a_target_solves_the_same_in_every_batch(wf):
    # a lone row goes through another BLAS kernel; evaluate never makes one
    om = np.random.default_rng(wf.q).uniform(0.0, 1.0, 8192) * float(wf.max_weight)
    ent, beta = _solve_dual(wf, om)
    for part in (slice(0, 1), slice(0, 2), slice(5, 5 + 4096), slice(1, 198), slice(0, 4096)):
        for got, want in zip(_solve_dual(wf, om[part]), (ent[part], beta[part])):
            assert np.array_equal(bits(got), bits(want))
    halves = [_solve_dual(wf, om[part]) for part in (slice(0, 4096), slice(4096, None))]
    for k, whole in enumerate((ent, beta)):
        assert np.array_equal(bits(np.concatenate([h[k] for h in halves])), bits(whole))
    one = np.array([_solve_dual(wf, om[i : i + 1])[0][0] for i in range(300)])
    assert np.array_equal(bits(one), bits(ent[:300]))


@pytest.mark.parametrize("wf", LEE, ids=lambda wf: f"lee{wf.q}")
def test_one_entropy_call_and_one_pass_per_factors_call(wf):
    # the compass polls and the grids: both weights of every point in one solve
    cp = CodeParams(wf, 0.45, 0.3 * float(wf.max_weight))
    wf._dual_solver.nodes
    unit = np.linspace(0.05, 0.95, 64)
    wmax = float(wf.max_weight)
    grid = estimator._unit_to_LP(wmax, cp.rate, cp.omega, np.repeat(unit, 64), np.tile(unit, 64))
    for L, P, a in ((*grid, np.arange(1, 11)[:, None]), (grid[0][:12], grid[1][:12], 2)):
        args = (wf, cp.rate, cp.omega, cp.s_omega, False, L, P, a)
        spy = mock.patch.object(estimator, "sphere_exponent_many", wraps=sphere_exponent_many)
        with spy as calls:
            assert kernel_passes(_factors, *args) == 1
        assert calls.call_count == 1
        # the same bits as two separate solves
        s0 = _factors(*args)["s_omega0"]
        alone = np.broadcast_to(sphere_exponent_many(wf, P / (cp.rate + L)), s0.shape)
        assert np.array_equal(bits(s0), bits(alone))


@settings(FIXED, max_examples=25)
@seed(1)
@given(random_tables())
def test_exact_counts_converge_to_sphere_exponent(wf):
    # log_q(count)/n approaches the entropy exponent at the realized weight.
    # The gap falls like log(n)/n, so doubling n scales it by about
    # (1 + ln 2 / ln n) / 2, which is 0.575 at n = 100.
    top = int(wf.int_table_array().max())
    for frac in (0.3, 0.5, 0.7):
        gaps = []
        for n in (100, 200):
            counts = count_row(wf.int_table, n)
            reachable = np.flatnonzero([c > 0 for c in counts])
            w = int(reachable[np.abs(reachable - frac * top * n).argmin()])
            count = sphere_count_exact(wf, n, Fraction(w, wf.denominator))
            assert count == counts[w]
            s = sphere_exponent_many(wf, [w / (wf.denominator * n)])[0]
            gaps.append(abs(math.log(count, wf.q) / n - s))
        assert gaps[1] <= 0.7 * gaps[0], (wf.table, frac, gaps)


@FIXED
@seed(1)
@given(
    random_tables(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.floats(0.05, 0.95),
)
def test_table_scaling_invariance(base, fractions, rate):
    # multiplying every weight and the targets by c changes no exponent
    ref = None
    for c in (Fraction(1, 1000), Fraction(1), Fraction(1000)):
        wf = WeightFunction(base.q, tuple(c * x for x in base.table))
        omegas = np.array(fractions) * float(wf.max_weight)
        s = sphere_exponent_many(wf, omegas)
        crossings = [om / float(wf.max_weight) for om in local_maxima_weights(wf, rate)]
        if ref is None:
            ref = (s, crossings)
        assert s == pytest.approx(ref[0], abs=1e-9)
        assert crossings == pytest.approx(ref[1], abs=1e-9)


SCALES = (Fraction(1), Fraction(1, 10**16), Fraction(1, 10**12), Fraction(10**16))  # c = 1 first


def scaled(base, c):
    return WeightFunction(base.q, tuple(c * x for x in base.table))


@settings(FIXED, max_examples=30)
@seed(1)
@given(
    random_tables() | st.just(WeightFunction.lee(5)),
    st.floats(0.05, 0.95),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from((-1.0, 0.0, 0.5, 1.0, 3.0)),
    st.sampled_from(("classical", "quantum")),
)
def test_estimator_tolerances_follow_the_table_scale(base, rate, om, fl, fp, model):
    # omega, P and the P range compare relative to the max weight, so
    # scaling the table by c from 1e-16 to 1e16 changes no decision
    edges = (-1e-5, -1e-13, 0.0, om, 1.0, 1.0 + 1e-13, 1.00001)
    ref = None
    for c in SCALES:
        wf = scaled(base, c)
        wmax = float(wf.max_weight)
        accepts = []
        for rel in edges:
            try:
                CodeParams(wf, rate, rel * wmax)
                accepts.append(True)
            except ValueError:
                accepts.append(False)
        cp = CodeParams(wf, rate, om * wmax)
        L = fl * (1.0 - rate)
        lo, hi = max(0.0, om - (1.0 - rate - L)), min(om, rate + L)  # the P range / w_max
        P = (lo + fp * (hi - lo)) * wmax
        try:
            point = work_factors(cp, model, AlgoPoint(L, P, 1)).total_q
        except InfeasibleParameterError:
            point = None
        best = optimize_point(cp, model, "wagner", a_max=4).total_q
        if ref is None:
            ref = (accepts, point, best)
            assert accepts == [False, False, True, True, True, False, False]
        assert accepts == ref[0]
        assert (point is None) == (ref[1] is None)
        if point is not None:
            assert point == pytest.approx(ref[1], abs=1e-9)
        assert best == pytest.approx(ref[2], abs=1e-9)


def test_hardest_instance_follows_the_table_scale():
    base = WeightFunction.lee(5)
    ref = hardest_instance(base, "classical")
    assert (ref.rate, ref.alpha_hat) == pytest.approx((0.5694, 0.1562), abs=2e-4)
    for c in (Fraction(1, 10**16), Fraction(10**16)):
        got = hardest_instance(scaled(base, c), "classical")
        assert got.rate == pytest.approx(ref.rate, abs=1e-9)
        assert got.omega / float(c) == pytest.approx(ref.omega, rel=1e-9)
        assert got.alpha_hat == pytest.approx(ref.alpha_hat, abs=1e-9)


@pytest.mark.parametrize(
    "wf",
    [
        WeightFunction.lee(5),
        WeightFunction.lee(7),
        WeightFunction.hamming(3),
        WeightFunction(5, (0, Fraction(1, 2), Fraction(3, 2), Fraction(3, 2), Fraction(1, 2))),
        WeightFunction(7, (0, 0, 1, Fraction(1, 3), 6, 2, Fraction(1, 3))),
    ],
    ids=["lee5", "lee7", "hamming3", "rational5", "rational7"],
)
@pytest.mark.parametrize(
    "omega, P", [(Fraction(1, 2), Fraction(1, 4)), (Fraction(2, 5), Fraction(1, 5))]
)
def test_exact_p1_converges_to_pi1(wf, omega, P):
    # log_q(P1)/n from exact sphere counts approaches the estimator's pi1 at
    # R = 1/2, L = 1/8.  Its gap falls like log(n)/n, so doubling n scales it
    # by about (1 + ln 2 / ln n) / 2, which is 0.58 at n = 80.
    omega, P = omega * wf.max_weight, P * wf.max_weight
    pi1 = work_factors(
        CodeParams(wf, 0.5, float(omega)), "classical", AlgoPoint(0.125, float(P), 1)
    ).pi1
    gaps = []
    for n in (80, 160, 320):
        inst = SimpleNamespace(n=n, k=n // 2, q=wf.q, wf=wf, w=omega * n)
        p1 = _exact_p1(inst, n // 8, P * n)
        gaps.append(abs(math.log(p1, wf.q) / n - pi1))
    assert gaps[1] <= 0.7 * gaps[0]
    assert gaps[2] <= 0.7 * gaps[1]
