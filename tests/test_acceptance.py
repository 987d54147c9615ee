"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one PASS line (visible with pytest -s) after asserting.
The large-alphabet reference rows run only with LEEISD_EXTENDED=1.
"""

import math
import os
import random
import time
import zlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from leeisd.cmsd import cmsd_dumer, cmsd_wagner_v1, cmsd_wagner_v2_build, enumerate_f
from leeisd.estimator import hardest_instance, local_maxima_weights, sweep
from leeisd.fieldlin import FqVector, random_full_rank_matrix
from leeisd.isd import IsdParams, generate_instance, isd_solve, verify_solution
from leeisd.merge import IndexedList, merge
from leeisd.weights import (
    SphereEnumerator,
    WeightFunction,
    sphere_count_exact,
    sphere_exponent,
    vector_weight,
)

# reference hardest-instance rows, lee metric: q -> (R, alpha_hat)
CLASSICAL_REFERENCE = {3: (0.370, 0.170), 5: (0.572, 0.154), 13: (0.480, 0.141)}
QUANTUM_REFERENCE = {3: (0.369, 0.093), 5: (0.569, 0.089), 13: (0.501, 0.076)}
EXTENDED_CLASSICAL = {43: (0.454, 0.146), 163: (0.442, 0.152), 331: (0.438, 0.154)}
EXTENDED_QUANTUM = {43: (0.472, 0.079), 163: (0.464, 0.083), 331: (0.464, 0.084)}

R_TOL, AH_TOL = 0.02, 0.005

_hardest_cache: dict = {}


def cached_hardest(q: int, metric: str, model: str):
    key = (q, metric, model)
    if key not in _hardest_cache:
        wf = getattr(WeightFunction, metric)(q)
        t0 = time.monotonic()
        res = hardest_instance(wf, model, "wagner")
        _hardest_cache[key] = (res, time.monotonic() - t0)
    return _hardest_cache[key]


def test_table_reproduction_classical():
    total = 0.0
    for q, (r_ref, ah_ref) in CLASSICAL_REFERENCE.items():
        res, dt = cached_hardest(q, "lee", "classical")
        total += dt
        assert abs(res.rate - r_ref) <= R_TOL, (q, res.rate, r_ref)
        assert abs(res.alpha_hat - ah_ref) <= AH_TOL, (q, res.alpha_hat, ah_ref)
    assert total < 600.0, f"classical table reproduction took {total:.0f}s"
    print(f"PASS: classical hardest-instance table (q=3,5,13) in {total:.0f}s")


def test_table_reproduction_quantum():
    total = 0.0
    for q, (r_ref, ah_ref) in QUANTUM_REFERENCE.items():
        res, dt = cached_hardest(q, "lee", "quantum")
        total += dt
        assert abs(res.rate - r_ref) <= R_TOL, (q, res.rate, r_ref)
        assert abs(res.alpha_hat - ah_ref) <= AH_TOL, (q, res.alpha_hat, ah_ref)
    print(f"PASS: quantum hardest-instance table (q=3,5,13) in {total:.0f}s")


@pytest.mark.extended
@pytest.mark.skipif(
    not os.environ.get("LEEISD_EXTENDED"), reason="set LEEISD_EXTENDED=1 to enable"
)
def test_table_reproduction_extended():
    for refs, model in ((EXTENDED_CLASSICAL, "classical"), (EXTENDED_QUANTUM, "quantum")):
        for q, (r_ref, ah_ref) in refs.items():
            res, dt = cached_hardest(q, "lee", model)
            assert abs(res.rate - r_ref) <= R_TOL, (q, model, res.rate, r_ref)
            assert abs(res.alpha_hat - ah_ref) <= AH_TOL, (q, model, res.alpha_hat, ah_ref)
    print("PASS: extended hardest-instance table (q=43,163,331)")


def test_scaling_identity():
    for q, model in ((3, "classical"), (5, "classical"), (13, "classical"),
                     (3, "quantum"), (5, "quantum"), (13, "quantum")):
        res, _ = cached_hardest(q, "lee", model)
        assert abs(res.alpha - res.alpha_hat * math.log2(q)) < 0.0005
    # arithmetic consistency of the reference rows themselves
    assert abs(0.170 * math.log2(3) - 0.269) < 0.0006
    assert abs(0.141 * math.log2(13) - 0.522) < 0.0006
    print("PASS: alpha = alpha_hat * log2(q) to 3 decimals on every reported pair")


def test_sphere_exponent_convergence():
    t0 = time.monotonic()
    n = 500
    worst = 0.0
    for q in (3, 5, 7):
        for metric in ("lee", "hamming"):
            wf = getattr(WeightFunction, metric)(q)
            wmax = float(wf.max_weight)
            for frac in np.arange(0.1, 0.95, 0.1):
                w = math.floor(frac * wmax * n)
                count = sphere_count_exact(wf, n, w)
                s_exact = math.log(count, q) / n
                s_asym = sphere_exponent(wf, w / n).s
                worst = max(worst, abs(s_exact - s_asym))
    dt = time.monotonic() - t0
    assert worst <= 0.02, worst
    assert dt < 60.0
    print(f"PASS: sphere-exponent convergence at n={n} (worst gap {worst:.4f}, {dt:.1f}s)")


def test_exact_count_oracle():
    mismatches = 0
    for q in (2, 3, 5):
        for metric in ("lee", "hamming"):
            wf = getattr(WeightFunction, metric)(q)
            for n in range(0, 7):
                brute: dict = {}
                for idx in range(q**n):
                    v = np.array([(idx // q**i) % q for i in range(n)], dtype=np.int64)
                    w = vector_weight(FqVector(q, v), wf)
                    brute[w] = brute.get(w, 0) + 1
                max_scaled = n * max(wf.int_table)
                for ws in range(max_scaled + 1):
                    w = Fraction(ws, wf.denominator)
                    if sphere_count_exact(wf, n, w) != brute.get(w, 0):
                        mismatches += 1
    assert mismatches == 0
    print("PASS: exact sphere counts equal exhaustive enumeration (q<=5, n<=6, all w)")


SOUNDNESS_CONFIGS = (
    ("prange", dict(q=3, n=16, k=8, w=4), IsdParams(variant="prange")),
    ("dumer", dict(q=3, n=20, k=8, w=4), IsdParams(variant="dumer", ell=2, p=Fraction(2))),
    (
        "wagner1 a=2",
        dict(q=3, n=24, k=8, w=6),
        IsdParams(variant="wagner1", ell=4, p=Fraction(4), a=2),
    ),
)


def test_decoder_soundness():
    t0 = time.monotonic()
    trials = 50
    for label, shape, base_params in SOUNDNESS_CONFIGS:
        for metric in ("hamming", "lee"):
            wf = getattr(WeightFunction, metric)(shape["q"])
            found = 0
            rng = random.Random(zlib.crc32(f"{label}:{metric}".encode()))
            for t in range(trials):
                inst = generate_instance(shape["q"], shape["n"], shape["k"], shape["w"], wf, rng)
                params = IsdParams(
                    variant=base_params.variant,
                    ell=base_params.ell,
                    p=base_params.p,
                    a=base_params.a,
                    rng_seed=1000 + t,
                )
                rep = isd_solve(inst, params)
                if rep.found:
                    assert verify_solution(inst, rep.solution), (label, metric, t)
                    found += 1
            assert found >= 0.9 * trials, (label, metric, found)
    dt = time.monotonic() - t0
    assert dt < 300.0
    print(f"PASS: decoder soundness, 50 planted instances per config ({dt:.0f}s)")


def brute_cmsd(h2, s2, wf, p):
    out = Counter()
    enum = SphereEnumerator(wf, h2.cols, p)
    for v in map(enum.unrank, range(enum.count)):
        if np.array_equal((h2.values @ v) % h2.q, s2.values):
            out[tuple(v.tolist())] += 1
    return out


def test_cmsd_oracle_equivalence():
    rng = random.Random(424242)
    cases = 0
    for q, metric in ((3, "lee"), (3, "hamming"), (5, "lee"), (5, "hamming")):
        wf = getattr(WeightFunction, metric)(q)
        for ell, n, p in ((1, 8, 2), (2, 10, 2), (2, 9, 3), (3, 10, 3), (2, 8, 0)):
            h2 = random_full_rank_matrix(q, ell, n, rng)
            if p > 0:
                enum = SphereEnumerator(wf, n, p)
                b = enum.unrank(rng.randrange(enum.count))
                s2 = FqVector(q, (h2.values @ b) % q)
            else:
                s2 = FqVector.zeros(q, ell)
            oracle = brute_cmsd(h2, s2, wf, p)
            for desc in (
                cmsd_dumer(h2, s2, wf, p),
                cmsd_wagner_v1(h2, s2, wf, p, a=1),
            ):
                got = Counter(tuple(v.tolist()) for v in enumerate_f(desc).solutions)
                assert got == oracle, (q, metric, ell, n, p)
            cases += 1
    # checkable-function variant: subset, and nonempty on its weight profile
    for q, metric in ((3, "lee"), (5, "lee")):
        wf = getattr(WeightFunction, metric)(q)
        for n, p in ((9, 3), (6, 3)):
            h2 = random_full_rank_matrix(q, 2, n, rng)
            enum = SphereEnumerator(wf, n, p)
            s2 = FqVector(q, (h2.values @ enum.unrank(rng.randrange(enum.count))) % q)
            oracle = brute_cmsd(h2, s2, wf, p)
            desc = cmsd_wagner_v2_build(h2, s2, wf, p, a=1)
            profile = _profile_restricted(oracle, wf, n, p)
            outs = [desc.evaluate(i) for i in range(desc.y)]
            nonzero = [v for v in outs if v.any()]
            for v in nonzero:
                assert tuple(v.tolist()) in oracle
            if profile:
                assert nonzero, (q, metric, n, p)
    print(f"PASS: small-scale candidate generators match exhaustive search ({cases} cases)")


def _profile_restricted(oracle, wf, n, p):
    from leeisd.cmsd import _split_lengths, _split_weight

    lengths = _split_lengths(n, 3)
    wsplit = _split_weight(wf.scaled(p), 3)
    keep = []
    for v in oracle:
        arr = np.array(v, dtype=np.int64)
        first = arr[: lengths[0]]
        tail = arr[lengths[0] :]
        if (
            wf.scaled(vector_weight(FqVector(wf.q, first), wf)) == wsplit[0]
            and wf.scaled(vector_weight(FqVector(wf.q, tail), wf)) == wsplit[1] + wsplit[2]
        ):
            keep.append(v)
    return keep


def test_merge_size_law():
    rng = random.Random(777)
    q, m, size, jcount = 3, 8, 1 << 10, 4
    expected = size * size / q**jcount
    ok = 0
    for _ in range(20):
        def rand_list(tag):
            syn = np.array(
                [[rng.randrange(q) for _ in range(m)] for _ in range(size)], dtype=np.int64
            )
            return IndexedList(q, syn, [(tag, i) for i in range(size)])

        t = np.array([rng.randrange(q) for _ in range(m)], dtype=np.int64)
        out = merge(rand_list(1), rand_list(2), tuple(range(jcount)), t)
        if expected / 4 <= len(out) <= expected * 4:
            ok += 1
    assert ok >= 18, ok
    print(f"PASS: merged-list sizes within 4x of |L1||L2|/q^|J| in {ok}/20 trials")


def test_weight_landscape_maxima():
    t0 = time.monotonic()
    for q in (3, 5, 13):
        wf = WeightFunction.lee(q)
        wmax = float(wf.max_weight)
        step = 1e-3 * wmax
        for rate in (0.3, 0.5):
            om_lo, om_hi = local_maxima_weights(wf, rate)
            assert abs(sphere_exponent(wf, om_lo).s - (1 - rate)) <= 1e-6
            if om_hi < wmax - 1e-9:
                assert abs(sphere_exponent(wf, om_hi).s - (1 - rate)) <= 1e-6
            for target in (om_lo, om_hi):
                lo = max(0.0, target - 6 * step)
                hi = min(wmax, target + 6 * step)
                grid = np.arange(lo, hi + step / 2, step)
                rows = sweep(wf, rate, grid, columns=(("classical", "wagner"),), a_max=6)
                vals = [r.factors.total_q for r in rows]
                argmax = float(grid[int(np.argmax(vals))])
                assert abs(argmax - target) <= 2 * step + 1e-12, (q, rate, target, argmax)
    dt = time.monotonic() - t0
    print(f"PASS: sweep maxima sit at the predicted weights ({dt:.0f}s)")


def test_lee_harder_than_hamming():
    for q in (5, 13):
        lee, _ = cached_hardest(q, "lee", "classical")
        ham, _ = cached_hardest(q, "hamming", "classical")
        assert lee.alpha_hat > ham.alpha_hat, (q, lee.alpha_hat, ham.alpha_hat)
    print("PASS: hardest lee exponent strictly above hardest hamming exponent (q=5,13)")
