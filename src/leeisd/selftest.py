"""Quick end-to-end checks runnable from the CLI without pytest.

Each check is small enough for a fresh-checkout smoke run (about a
minute); the full test suite under tests/ is the authoritative gate.
"""

from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import numpy as np

from . import estimator
from .estimator import CodeParams
from .fieldlin import FqVector
from .isd import IsdParams, generate_instance, isd_solve, verify_solution
from .merge import IndexedList, merge
from .weights import (
    WeightFunction,
    sphere_count_exact,
    sphere_exponent,
    vector_weight,
)

REFERENCE_CLASSICAL_Q3 = 0.170  # frozen regression target, lee metric


def _check_weight_table_validation() -> None:
    try:
        WeightFunction(3, (Fraction(1), Fraction(1), Fraction(1)))
    except ValueError:
        return
    raise AssertionError("corrupt weight table (nonzero cost at 0) was not rejected")


def _check_small_spheres() -> None:
    for q, wf in ((3, WeightFunction.lee(3)), (5, WeightFunction.lee(5))):
        n = 4
        brute: dict[Fraction, int] = {}
        for idx in range(q**n):
            v = np.array([(idx // q**i) % q for i in range(n)], dtype=np.int64)
            w = vector_weight(FqVector(q, v), wf)
            brute[w] = brute.get(w, 0) + 1
        for w, cnt in brute.items():
            got = sphere_count_exact(wf, n, w)
            assert got == cnt, f"count mismatch at q={q} w={w}: {got} != {cnt}"


def _check_entropy_spots() -> None:
    s = sphere_exponent(WeightFunction.hamming(3), 0.5).s
    assert abs(s - 0.946395) < 1e-5, s
    prof = sphere_exponent(WeightFunction.lee(5), 1.2)  # the mean weight: s peaks at 1
    assert abs(prof.s - 1.0) < 1e-9 and abs(prof.beta) < 1e-6
    lo, hi = estimator.local_maxima_weights(WeightFunction.lee(5), 0.37)
    assert abs(sphere_exponent(WeightFunction.lee(5), lo).s - 0.63) < 1e-9 and lo < 1.2 < hi


def _check_merge() -> None:
    L1 = IndexedList(3, np.array([[0, 1], [1, 2]]), [0, 1])
    L2 = IndexedList(3, np.array([[2, 1], [1, 0]]), [0, 1])
    out = merge(L1, L2, (0,), np.array([0, 0]))
    assert len(out) == 1 and out.syndromes[0].tolist() == [0, 0]


def _check_solvers() -> None:
    rng = random.Random(7)
    for variant, kwargs in (
        ("prange", {}),
        ("dumer", {"ell": 2, "p": Fraction(2)}),
        ("wagner1", {"ell": 4, "p": Fraction(2), "a": 2}),
        ("wagner2", {"ell": 4, "p": Fraction(3), "a": 2}),
    ):
        wf = WeightFunction.lee(3)
        inst = generate_instance(3, 16, 8, 4, wf, rng)
        report = isd_solve(inst, IsdParams(variant=variant, rng_seed=11, **kwargs))
        assert report.found, f"{variant} failed to decode"
        assert verify_solution(inst, report.solution)


def _check_estimates() -> None:
    wf = WeightFunction.lee(3)
    fac = estimator.optimize_point(CodeParams(wf, 0.370, 1.0), "classical", "wagner")
    assert abs(fac.total_q - REFERENCE_CLASSICAL_Q3) <= 0.005, fac.total_q
    assert abs(fac.total_bin - fac.total_q * math.log2(3)) < 1e-12
    quantum = estimator.optimize_point(CodeParams(wf, 0.370, 1.0), "quantum", "wagner")
    assert quantum.total_q <= fac.total_q + 1e-12


def _check_determinism() -> None:
    import csv

    def run_once() -> str:
        wf = WeightFunction.lee(3)
        rows = estimator.sweep(wf, 0.5, [0.0, 0.5, 1.0], columns=(("classical", "wagner"),))
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for r in rows:
            w.writerow([f"{r.omega:.6f}", "" if r.factors is None else f"{r.factors.total_q:.6f}"])
        return buf.getvalue()

    assert run_once() == run_once(), "sweep output is not deterministic"


CHECKS = (
    ("weight table validation", _check_weight_table_validation),
    ("exact sphere counts vs enumeration", _check_small_spheres),
    ("entropy exponent and crossing spot values", _check_entropy_spots),
    ("list merge", _check_merge),
    ("planted decoding (prange, dumer, wagner1, wagner2)", _check_solvers),
    ("exponent estimates", _check_estimates),
    ("deterministic sweeps", _check_determinism),
)


def run() -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report every failure, then exit nonzero
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} of {len(CHECKS)} checks failed")
        return 1
    print(f"all {len(CHECKS)} checks passed")
    return 0
