"""Property tests: merge against the brute-force double loop, sphere rank round
trips, and the entropy solver against a plain bisection on random tables.

Every test runs under derandomize=True with no example database, so each
run draws the same cases.
"""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leeisd.estimator import local_maxima_weights
from leeisd.merge import IndexedList, _encode_keys, merge
from leeisd.weights import (
    SphereEnumerator,
    WeightFunction,
    _Dual,
    sphere_exponent,
    sphere_exponent_many,
)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)


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
@given(merge_cases(qs=(2, 3, 5, 7), widths=st.integers(1, 5), min_j=0))
def test_merge_matches_double_loop(case):
    check_against_double_loop(*case)


@FIXED
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
@given(sphere_cases())
def test_sphere_rank_unrank_round_trips(case):
    wf, enum, w_scaled, ranks = case
    rows = enum.unrank_many(ranks)
    assert rows.shape == (len(ranks), enum.n)
    for r, row in zip(ranks, rows):
        assert np.array_equal(row, enum.unrank(r))
        assert enum.rank(row) == r
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
@given(entropy_cases())
def test_entropy_solver_matches_bisection(case):
    wf, omegas = case
    wmax = float(wf.max_weight)
    tab = np.array([float(x) for x in wf.table])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        wf._dual_solver.nodes  # the start table, built once per table
        with mock.patch.object(_Dual, "gibbs", autospec=True, side_effect=_Dual.gibbs) as spy:
            s = sphere_exponent_many(wf, omegas)
        means = [float(sphere_exponent(wf, om).lam @ tab) for om in omegas]
    assert np.abs(s - bisection_exponents(wf, omegas)).max() <= 1e-12
    assert np.abs(np.array(means) - omegas).max() <= 1e-12 * wmax
    # a few Newton steps and the final evaluation, not a 72-step bisection
    assert spy.call_count <= 8


@FIXED
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
