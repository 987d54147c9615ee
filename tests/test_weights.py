import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from leeisd.fieldlin import FqVector, Permutation, apply_permutation
from leeisd.weights import (
    _BOUND_TOL,
    SphereEnumerator,
    WeightFunction,
    _count_rows,
    _entropy_bounds,
    _to_fraction,
    normalized_weight,
    sample_uniform_weight_w,
    sphere_count_exact,
    sphere_exponent,
    sphere_exponent_many,
    vector_weight,
)
from oracles import count_row, count_rows_by_product, sphere_rank as rank, unrank_full_rows


def brute_counts(wf, n):
    q = wf.q
    out = {}
    for idx in range(q**n):
        v = np.array([(idx // q**i) % q for i in range(n)], dtype=np.int64)
        w = vector_weight(FqVector(q, v), wf)
        out[w] = out.get(w, 0) + 1
    return out


def test_table_construction():
    lee = WeightFunction.lee(5)
    assert [float(x) for x in lee.table] == [0, 1, 2, 2, 1]
    ham = WeightFunction.hamming(5)
    assert [float(x) for x in ham.table] == [0, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        WeightFunction(3, (1, 1, 1))  # nonzero cost at symbol 0
    with pytest.raises(ValueError):
        WeightFunction(3, (0, -1, 1))
    with pytest.raises(ValueError):
        WeightFunction(3, (0, 1))  # wrong length
    with pytest.raises(ValueError):
        WeightFunction(3, (0, 0, 0))  # no positive weight


def test_custom_table_json_roundtrip():
    wf = WeightFunction.from_json('{"q": 7, "table": [0, 1, 2, 3, 3, 2, 1]}')
    assert wf.q == 7 and wf.table == WeightFunction.lee(7).table
    rational = WeightFunction(3, (0, Fraction(1, 2), Fraction(3, 2)))
    back = WeightFunction.from_json(rational.to_json())
    assert back.table == rational.table
    assert rational.denominator == 2 and rational.int_table == (0, 1, 3)
    arr = rational.int_table_array()
    assert arr.tolist() == [0, 1, 3] and arr is rational.int_table_array()
    with pytest.raises(ValueError):
        arr[0] = 5  # one shared copy per table, so it is read-only


def test_custom_table_json_rejects_non_integer_q():
    # int(3.7) used to build a table for q = 3
    for bad in (3.7, 3.0, True, "3"):
        with pytest.raises(ValueError, match="^q must be an integer"):
            WeightFunction.from_json({"q": bad, "table": [0, 1, 1]})


def test_non_integral_inputs_are_value_errors():
    # a None weight and a float modulus raised TypeError, not the documented ValueError
    for build in (
        lambda: WeightFunction(3.0, (0, 1, 1)),
        lambda: WeightFunction(3, (0, None, 1)),
        lambda: WeightFunction.from_json({"q": 3, "table": [0, None, 1]}),
        lambda: _to_fraction(None),
        lambda: _to_fraction([1]),
    ):
        with pytest.raises(ValueError):
            build()


def test_unrank_rejects_non_integer_ranks():
    # a float rank used to be truncated: 1.5 returned rank 1
    enum = SphereEnumerator(WeightFunction.lee(3), 5, 2)
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match="^rank must be an integer"):
            enum.unrank(bad)
    for bad in ([1.5], np.array([0.0, 1.0]), [1, True], [True]):
        with pytest.raises(ValueError, match="integers"):
            enum.unrank_many(bad)
    assert np.array_equal(enum.unrank_many(np.array([1], dtype=np.int32))[0], enum.unrank(np.int64(1)))


def test_vector_weight_examples():
    lee5 = WeightFunction.lee(5)
    ham5 = WeightFunction.hamming(5)
    assert vector_weight(FqVector(5, [0, 0, 0]), lee5) == 0
    assert vector_weight(FqVector(5, [1, 4, 2]), lee5) == 4
    assert vector_weight(FqVector(5, [1, 4, 2]), ham5) == 3
    with pytest.raises(ValueError):
        vector_weight(FqVector(3, [1, 2]), lee5)


def test_weight_permutation_invariant():
    rng = random.Random(5)
    for wf in (WeightFunction.lee(7), WeightFunction.hamming(7)):
        for _ in range(50):
            v = FqVector(7, [rng.randrange(7) for _ in range(10)])
            perm = Permutation.random(10, rng)
            moved = FqVector(7, apply_permutation(v.values, perm))
            assert vector_weight(v, wf) == vector_weight(moved, wf)


def test_sphere_count_examples():
    assert sphere_count_exact(WeightFunction.lee(5), 7, 0) == 1
    assert sphere_count_exact(WeightFunction.lee(5), 2, 2) == 8
    assert sphere_count_exact(WeightFunction.hamming(3), 4, 2) == 24
    # unreachable weights count zero
    assert sphere_count_exact(WeightFunction.lee(3), 4, Fraction(1, 2)) == 0
    assert sphere_count_exact(WeightFunction.lee(3), 4, 5) == 0


def test_sphere_counts_match_enumeration_small():
    for q in (2, 3, 5):
        for wf in (WeightFunction.lee(q), WeightFunction.hamming(q)):
            for n in (1, 2, 3, 4):
                brute = brute_counts(wf, n)
                total = 0
                for w, cnt in brute.items():
                    assert sphere_count_exact(wf, n, w) == cnt
                    total += cnt
                assert total == q**n


def test_sphere_partition_invariant():
    for q, n in ((3, 9), (5, 6), (7, 5)):
        for wf in (WeightFunction.lee(q), WeightFunction.hamming(q)):
            top = n * int(wf.int_table_array().max())
            assert sum(sphere_count_exact(wf, n, w) for w in range(top + 1)) == q**n


COUNT_TABLES = (
    WeightFunction.lee(3),
    WeightFunction.lee(5),
    WeightFunction.hamming(3),
    WeightFunction(5, (0, 0, Fraction(1, 2), Fraction(3, 2), 1)),
)


@pytest.mark.parametrize("wf", COUNT_TABLES, ids=lambda wf: str(wf.int_table))
def test_counts_and_unranks_match_the_full_row_oracle(wf):
    # only the weights up to the one asked for are packed; the counts stay exact
    for n in range(7):
        full = count_row(wf.int_table, n)
        for ws in range(len(full) + 2):
            w = Fraction(ws, wf.denominator)
            want = full[ws] if ws < len(full) else 0
            enum = SphereEnumerator(wf, n, w)
            assert sphere_count_exact(wf, n, w) == enum.count == want
            ranks = range(0, want, max(1, want // 40))
            if ranks:
                oracle = [unrank_full_rows(wf.int_table, n, ws, r) for r in ranks]
                assert np.array_equal(enum.unrank_many(list(ranks)), oracle)
                assert np.array_equal([enum.unrank(r) for r in ranks], oracle)
                assert np.array_equal(enum.all_vectors()[list(ranks)], oracle)


@pytest.mark.parametrize(
    "wf",
    (*COUNT_TABLES, WeightFunction.lee(13), WeightFunction.hamming(7)),
    ids=lambda wf: str(wf.int_table),
)
def test_count_rows_by_shifted_adds_match_the_product(wf):
    # each row is the last one shifted once per weight class, not multiplied
    top = max(wf.int_table)
    for n in (0, 1, 2, 3, 8, 21):
        for ws in sorted({-1, 0, 1, 2, top, n * top // 2, n * top, n * top + 1}):
            assert _count_rows(wf.int_table, n, ws) == count_rows_by_product(wf.int_table, n, ws)


def test_exact_counts_pack_only_the_weights_they_read():
    # lee(5) at n = 1000 packed all 2001 weights of every row: 10 s, 364 MB
    tracemalloc.start()
    try:
        enum = SphereEnumerator(WeightFunction.lee(5), 1000, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.count == sphere_count_exact(WeightFunction.lee(5), 1000, 10)
    assert peak <= 8_000_000
    # a weight past n * max weight is empty at any length, with no packing
    assert sphere_count_exact(WeightFunction.lee(5), 10**8, 3 * 10**8) == 0
    assert SphereEnumerator(WeightFunction.lee(5), 10**8, 3 * 10**8).count == 0


def test_exact_counts_over_the_packed_limit_are_rejected():
    # two slots of 37.5 MB each: rejected before any big-integer work
    wf = WeightFunction.lee(5)
    for build in (sphere_count_exact, SphereEnumerator):
        with pytest.raises(ValueError, match="over the limit of 1048576"):
            build(wf, 10**8, 1)


def test_rational_table_counts():
    wf = WeightFunction(3, (0, Fraction(1, 2), Fraction(3, 2)))
    # n=2: weights: 0, 1/2(x2), 1(x1: 1+1... wait) enumerate to be sure
    brute = brute_counts(wf, 2)
    for w, cnt in brute.items():
        assert sphere_count_exact(wf, 2, w) == cnt


def test_sphere_exponent_uniform_at_mean():
    prof = sphere_exponent(WeightFunction.lee(5), 1.2)  # (q^2-1)/(4q)
    assert abs(prof.s - 1.0) < 1e-9
    assert np.allclose(prof.lam, 0.2, atol=1e-9)
    assert abs(prof.beta) < 1e-6


def test_sphere_exponent_boundaries():
    prof0 = sphere_exponent(WeightFunction.hamming(7), 0.0)
    assert prof0.s == 0.0 and prof0.lam[0] == 1.0 and math.isinf(prof0.beta)
    top = sphere_exponent(WeightFunction.lee(5), 2.0)
    assert abs(top.s - math.log(2, 5)) < 1e-12
    assert np.allclose(top.lam, [0, 0, 0.5, 0.5, 0])


def test_sphere_exponent_boundary_laws_are_exact():
    # the ends are the uniform law on the extreme-weight symbols, not the
    # law at beta = +-beta_max, whose other entries are tiny but not 0
    wf = WeightFunction.lee(5)
    assert sphere_exponent(wf, 0.0).lam.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert sphere_exponent(wf, 2.0).lam.tolist() == [0.0, 0.0, 0.5, 0.5, 0.0]
    assert sphere_exponent(WeightFunction.hamming(3), 0.0).lam.tolist() == [1.0, 0.0, 0.0]


def test_sphere_exponent_many_keeps_the_input_shape():
    wf = WeightFunction.lee(7)
    grid = np.linspace(0.0, 3.0, 12)
    flat = sphere_exponent_many(wf, grid)
    assert flat.shape == (12,)
    for shape in ((3, 4), (2, 3, 2), (1, 12)):
        got = sphere_exponent_many(wf, grid.reshape(shape))
        assert got.shape == shape
        assert np.array_equal(got.reshape(-1), flat)
    assert sphere_exponent_many(wf, 1.5).shape == (1,)  # a scalar, as before
    assert sphere_exponent_many(wf, [1.5]).shape == (1,)
    assert sphere_exponent_many(wf, np.zeros((0, 3))).shape == (0, 3)
    with pytest.raises(ValueError, match="target weight"):
        sphere_exponent_many(wf, np.array([[1.0, math.nan]]))


def _oracle_exponent(wf, omega):
    """s(omega) at 50 digits, by mpmath alone.

    t = beta ln q is the root of the mean's logit minus the target's, found
    by a bracketing solver on [-T, T], T = 80 / (smallest end gap), where
    the mean is within e^-80 q w_max of either end.  The exponent is the
    dual value (ln Z + t omega) / ln q.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        classes = Counter(wf.table)
        ws = sorted(classes)
        w = [mpmath.mpf(x.numerator) / x.denominator for x in ws]
        mult = [classes[x] for x in ws]
        om, wmax = mpmath.mpf(omega), w[-1]

        def moments(t):
            e = [c * mpmath.exp(-t * x) for c, x in zip(mult, w)]
            z = mpmath.fsum(e)
            return z, mpmath.fsum(a * x for a, x in zip(e, w)) / z

        def logit_gap(t):
            m = moments(t)[1]
            return mpmath.log(m / (wmax - m)) - mpmath.log(om / (wmax - om))

        big = 80 / min(w[1] - w[0], w[-1] - w[-2])
        t = mpmath.findroot(logit_gap, (-big, big), solver="anderson")
        return float((mpmath.log(moments(t)[0]) + t * om) / mpmath.log(wf.q))


@pytest.mark.parametrize(
    "wf",
    [
        WeightFunction.lee(3),
        WeightFunction.lee(331),
        WeightFunction.hamming(331),
        WeightFunction(3, (0, Fraction(1, 1000), Fraction(1, 1000))),
    ],
    ids=["lee3", "lee331", "hamming331", "tiny-unit"],
)
def test_sphere_exponent_matches_mpmath_oracle(wf):
    wmax = float(wf.max_weight)
    ends = [1e-9, 1e-5, 1.0 - 1e-5, 1.0 - 1e-9]
    omegas = np.array(ends + [k / 10 for k in range(1, 10)]) * wmax
    s = sphere_exponent_many(wf, omegas)
    for om, got in zip(omegas, s):
        expect = _oracle_exponent(wf, om)
        assert abs(got - expect) <= 1e-13, (om, got, expect)


def test_sphere_exponent_many_memory_peak():
    # the kernel works in cache-sized row blocks, so a 4,096-point solve at
    # q = 331 never holds a (points x classes) array
    wf = WeightFunction.lee(331)
    omegas = np.linspace(0.0, float(wf.max_weight), 4096)
    sphere_exponent_many(wf, omegas[:8])  # build the node table first
    tracemalloc.start()
    try:
        sphere_exponent_many(wf, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def test_non_finite_targets_are_rejected():
    wf = WeightFunction.lee(5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="target weight"):
            sphere_exponent(wf, bad)
        with pytest.raises(ValueError, match="target weight"):
            sphere_exponent_many(wf, [1.0, bad])


def _scaled_lee5(c):
    return WeightFunction(5, tuple(x * c for x in WeightFunction.lee(5).table))


@pytest.mark.parametrize(
    "wf",
    [
        WeightFunction(3, (0, Fraction(1, 1000), Fraction(1, 1000))),
        _scaled_lee5(Fraction(1, 1000)),
        _scaled_lee5(1),
        _scaled_lee5(1000),
    ],
    ids=["tiny-unit", "lee5/1000", "lee5", "lee5*1000"],
)
def test_sphere_exponent_ends_agree_with_many(wf):
    # the one-point entry resolves targets near an end as the vector entry
    # does, bit for bit, at any table scale
    wmax = float(wf.max_weight)
    for om in (0.0, 1e-9 * wmax, (1.0 - 1e-9) * wmax, wmax):
        prof = sphere_exponent(wf, om)
        assert prof.s == sphere_exponent_many(wf, [om])[0], om
        assert math.isinf(prof.beta) == (om in (0.0, wmax)), om
    # the range check is relative to the max weight too
    for om in (-0.5e-12 * wmax, (1.0 + 0.5e-12) * wmax):
        assert sphere_exponent(wf, om).s == sphere_exponent_many(wf, [om])[0]
    for om in (-2e-12 * wmax, (1.0 + 2e-12) * wmax):
        with pytest.raises(ValueError, match="target weight"):
            sphere_exponent(wf, om)


BOUND_TABLES = {
    "lee3": WeightFunction.lee(3),
    "lee43": WeightFunction.lee(43),
    "lee331": WeightFunction.lee(331),
    "hamming5": WeightFunction.hamming(5),
    "custom7": WeightFunction(7, (0, 1, 3, Fraction(1, 2), 7, 2, 2)),
    "zero-class": WeightFunction(5, (0, 0, 1, 2, 2)),
    "tiny-unit": WeightFunction(3, (0, Fraction(1, 1000), Fraction(1, 1000))),
    # spreads up to the bound, wide at the bottom and at the top of the range
    **{f"low-1e{k}": WeightFunction(5, (0, 1, 1, 1, 10**k)) for k in (12, 15, 18)},
    **{
        f"top-1e{k}": WeightFunction(5, (0, 10**k - 10 ** (k - 12), 10**k, 10**k, 1))
        for k in (12, 15, 18)
    },
}


@pytest.mark.parametrize("name", BOUND_TABLES)
def test_entropy_bounds_enclose_the_solve(name):
    wf = BOUND_TABLES[name]
    wmax = float(wf.max_weight)
    _, _, (_, m, gap, _) = wf._dual_solver.node_rows
    ends = wmax * np.logspace(-300, 0, 601)
    omegas = np.concatenate([
        m, wmax - gap, [0.0, wmax],  # every node, read from either end, and both ends
        np.linspace(0.0, wmax, 4097),
        np.random.default_rng(7).uniform(0.0, wmax, 4096),
        ends, wmax - ends,
    ])
    lower, upper = _entropy_bounds(wf, omegas)
    exact = sphere_exponent_many(wf, omegas)
    # _BOUND_TOL = 1e-12 widens both bounds; the solve stays inside by at
    # least half of it (the largest excess of the bare bounds is 9.3e-14)
    slack = 0.5 * _BOUND_TOL
    assert (lower + slack <= exact).all() and (exact <= upper - slack).all()
    assert np.median(upper - lower) < 1e-3


def test_sphere_exponent_hamming_closed_form():
    # independent oracle: -(1-w)log_q(1-w) - w log_q(w/(q-1))
    q = 3
    for omega in (0.2, 0.5, 0.66):
        expect = -(1 - omega) * math.log(1 - omega, q) - omega * math.log(
            omega / (q - 1), q
        )
        got = sphere_exponent(WeightFunction.hamming(q), omega).s
        assert abs(got - expect) < 1e-9
    assert abs(sphere_exponent(WeightFunction.hamming(3), 0.5).s - 0.946395) < 1e-5


def test_sphere_exponent_vs_exact_count_n2000():
    wf = WeightFunction.hamming(3)
    n, omega = 2000, 0.5
    exact = sphere_count_exact(wf, n, int(omega * n))
    assert abs(math.log(exact, 3) / n - sphere_exponent(wf, omega).s) < 0.005


def test_dual_solver_beats_feasible_mixtures():
    # random feasible points: convex mixtures of two-symbol distributions
    rng = random.Random(17)
    wf = WeightFunction.lee(7)
    tab = [float(x) for x in wf.table]
    for omega in (0.5, 1.3, 2.1):
        prof = sphere_exponent(wf, omega)
        for _ in range(60):
            mix = np.zeros(7)
            for _ in range(3):
                lo = rng.choice([x for x in range(7) if tab[x] <= omega])
                hi = rng.choice([x for x in range(7) if tab[x] >= omega])
                if tab[hi] == tab[lo]:
                    t = 1.0
                else:
                    t = (tab[hi] - omega) / (tab[hi] - tab[lo])
                two = np.zeros(7)
                two[lo] += t
                two[hi] += 1.0 - t
                mix += rng.random() * two
            mix /= mix.sum()
            assert abs(float((mix * tab).sum()) - omega) < 1e-9
            ent = -sum(p * math.log(p, 7) for p in mix if p > 0)
            assert ent <= prof.s + 1e-9


def test_lee_symmetry_of_maximizer():
    wf = WeightFunction.lee(11)
    for omega in (0.7, 1.9, 2.4):
        lam = sphere_exponent(wf, omega).lam
        for x in range(1, 11):
            assert abs(lam[x] - lam[11 - x]) < 1e-9


def test_exponent_concave_with_peak_at_mean():
    wf = WeightFunction.lee(7)
    mean = float(sum(wf.table) / wf.q)
    grid = np.linspace(0.05, float(wf.max_weight) - 0.05, 41)
    s = sphere_exponent_many(wf, grid)
    second = s[2:] - 2 * s[1:-1] + s[:-2]
    assert (second <= 1e-8).all()
    assert abs(sphere_exponent(wf, mean).s - 1.0) < 1e-9


def test_typical_pattern_examples():
    assert np.allclose(sphere_exponent(WeightFunction.hamming(3), 2 / 3).lam, [1 / 3] * 3)
    assert np.allclose(sphere_exponent(WeightFunction.lee(5), 2.0).lam, [0, 0, 0.5, 0.5, 0])
    lam = sphere_exponent(WeightFunction.lee(5), 1.0).lam
    assert abs(lam[1] - lam[4]) < 1e-9 and abs(lam[2] - lam[3]) < 1e-9
    tab = np.array([0, 1, 2, 2, 1], dtype=float)
    assert abs(float((lam * tab).sum()) - 1.0) < 1e-9


def test_normalized_weight():
    assert normalized_weight(WeightFunction.hamming(7), 0.3) == pytest.approx(0.3)
    assert normalized_weight(WeightFunction.lee(13), 6.0) == pytest.approx(1.0)
    assert normalized_weight(WeightFunction.lee(13), 5.742) == pytest.approx(0.957)


def test_enumerator_rank_roundtrip():
    wf = WeightFunction.lee(5)
    enum = SphereEnumerator(wf, 4, 3)
    assert enum.count == sphere_count_exact(wf, 4, 3)
    seen = set()
    for r in range(enum.count):
        v = enum.unrank(r)
        assert rank(enum, v) == r
        assert vector_weight(FqVector(5, v), wf) == 3
        seen.add(v.tobytes())
    assert len(seen) == enum.count
    dense = enum.all_vectors()
    assert dense.shape == (enum.count, 4)
    for r in range(enum.count):
        assert np.array_equal(dense[r], enum.unrank(r))
    # built once per (scaled table, n, w), shared and read-only
    assert not dense.flags.writeable
    assert SphereEnumerator(WeightFunction.lee(5), 4, 3).all_vectors() is dense
    with pytest.raises(ValueError):
        dense[0, 0] = 1


def test_unrank_many_matches_scalar_unrank():
    rational = WeightFunction(5, (0, 0, Fraction(1, 2), Fraction(3, 2), 1))
    cases = (  # (table, n, w)
        (WeightFunction.lee(3), 9, 5),
        (WeightFunction.lee(5), 5, 4),
        (WeightFunction.hamming(7), 4, 2),
        (rational, 5, Fraction(5, 2)),
        # count 200, but the full DP rows overflow int64
        (WeightFunction.lee(331), 10, 2),
        # count >= 2^63: ranks and counts stay Python ints
        (WeightFunction.hamming(331), 10, 10),
    )
    rng = random.Random(31)
    for wf, n, w in cases:
        enum = SphereEnumerator(wf, n, w)
        if enum.count <= 2000:
            ranks = list(range(enum.count))
        else:
            ranks = sorted(rng.randrange(enum.count) for _ in range(200)) + [0, enum.count - 1]
        got = enum.unrank_many(ranks)
        assert got.shape == (len(ranks), n) and got.dtype == np.int64
        assert np.array_equal(got, np.array([enum.unrank(r) for r in ranks])), (wf, n, w)
        assert enum.unrank_many([]).shape == (0, n)
        with pytest.raises(IndexError):
            enum.unrank_many([0, enum.count])
    assert SphereEnumerator(WeightFunction.hamming(331), 10, 10).count >= 2**63


def test_sampling_weight_zero_and_postcondition():
    rng = random.Random(3)
    wf = WeightFunction.lee(5)
    assert sample_uniform_weight_w(wf, 6, 0, rng).tolist() == [0] * 6
    for _ in range(50):
        v = sample_uniform_weight_w(wf, 8, 5, rng)
        assert vector_weight(v, wf) == 5
    with pytest.raises(ValueError):
        sample_uniform_weight_w(wf, 2, 100, rng)


def test_negative_length_is_rejected():
    rng = random.Random(3)
    wf = WeightFunction.lee(3)
    for build in (
        lambda: SphereEnumerator(wf, -1, 0),
        lambda: sample_uniform_weight_w(wf, -2, 0, rng),
        lambda: sphere_count_exact(wf, -1, 0),
    ):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            build()


@pytest.mark.parametrize("n", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_length_must_be_an_integer(n):
    wf = WeightFunction.lee(3)
    for build in (SphereEnumerator, sphere_count_exact):
        with pytest.raises(ValueError, match="^length must be an integer"):
            build(wf, n, 1)
    assert sphere_count_exact(wf, np.int64(2), 1) == SphereEnumerator(wf, np.int32(2), 1).count == 4


def test_sampling_uniformity_chi_square():
    rng = random.Random(123)
    wf = WeightFunction.lee(5)
    draws = 8000
    hits: dict[bytes, int] = {}
    for _ in range(draws):
        v = sample_uniform_weight_w(wf, 2, 2, rng)
        hits[v.values.tobytes()] = hits.get(v.values.tobytes(), 0) + 1
    assert len(hits) == 8
    expected = draws / 8
    chi2 = sum((c - expected) ** 2 / expected for c in hits.values())
    assert chi2 < 18.48  # df=7 critical value at p=0.01


def test_wide_weight_range_is_exact_up_to_the_bound_and_rejected_past_it():
    # (0, 1, 1, 1, T) at mean 0.5: the T symbol's share vanishes, so the
    # exponent is that of (1/2, 1/6, 1/6, 1/6), log_5(12) / 2, for any large T;
    # past a top weight of 10^18 times the smallest gap the table is rejected
    limit = math.log(12) / (2 * math.log(5))
    for k in range(2, 19):
        wf = WeightFunction(5, (0, 1, 1, 1, 10**k))
        assert abs(sphere_exponent_many(wf, [0.5])[0] - limit) < 1e-12, k
    for top in (10**18 + 1, 10**20, 10**25, 10**30, 10**200, 10**307):
        with pytest.raises(ValueError, match="smallest weight gap"):
            WeightFunction(5, (0, 1, 1, 1, top))
    # the gap, not the smallest weight, is what counts
    with pytest.raises(ValueError, match="smallest weight gap"):
        WeightFunction(3, (0, 10**18, 10**18 + 1))
    WeightFunction(3, (0, Fraction(1, 10**9), 10**9))
