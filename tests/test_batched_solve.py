"""The batched solver against the loop-at-a-time oracle: the same reports, seed by seed."""

import random

import numpy as np
import pytest

import oracles
from leeisd.fieldlin import FqMatrix, FqVector
from leeisd.isd import IsdParams, SdInstance, generate_instance, isd_solve
from leeisd.weights import WeightFunction

# (label, metric, n, k, w, IsdParams fields); every case runs SEEDS instances
CASES = (
    # about 44% of the square eliminations are singular: batches stop short often
    ("prange", "hamming", 16, 8, 4, dict(variant="prange")),
    # a budget of 3 loops cuts the first batch short, and most solves miss
    ("prange-budget", "lee", 18, 9, 6, dict(variant="prange", max_outer_loops=3)),
    ("dumer", "lee", 20, 8, 4, dict(variant="dumer", ell=2, p=2)),
    ("dumer-budget", "hamming", 24, 12, 6, dict(variant="dumer", ell=2, p=2, max_outer_loops=2)),
    ("wagner1", "lee", 24, 12, 6, dict(variant="wagner1", ell=4, p=4, a=2)),
    ("wagner1-budget", "lee", 24, 8, 6,
     dict(variant="wagner1", ell=4, p=4, a=2, max_outer_loops=3)),
    # halves of 3 and 2 symbols: some loops overflow a cap of 15 in one split's
    # merge, others only in the running total over the splits
    ("dumer-cap", "hamming", 20, 4, 2, dict(variant="dumer", ell=1, p=2, list_size_cap=15)),
    # merges of 10-entry leaves overflow a cap of 10 in some loops only
    ("wagner1-cap", "lee", 24, 12, 6, dict(variant="wagner1", ell=4, p=4, a=2, list_size_cap=10)),
    # wagner1 at a = 1 is dumer, whose Z is only known once loop 1 is built
    ("wagner1-a1", "hamming", 20, 8, 4, dict(variant="wagner1", ell=2, p=2, a=1)),
    # four blocks of 2 cannot carry 3 each: the first build raises
    ("wagner1-infeasible", "hamming", 14, 6, 12, dict(variant="wagner1", ell=2, p=12, a=2)),
    ("wagner2", "hamming", 28, 14, 8, dict(variant="wagner2", ell=4, p=3, a=2)),
    ("wagner2-a1", "lee", 21, 6, 6, dict(variant="wagner2", ell=3, p=3, a=1)),
    # a lazy sphere of 60 sampled down to 40 ranks: _sample_ranks joins the stream
    ("wagner2-sampled", "lee", 28, 14, 7,
     dict(variant="wagner2", ell=4, p=3, a=2, list_size_cap=40)),
)
SEEDS = 30


def outcome(solve, inst, params):
    """The report without its wall time, or the type and text of the error raised."""
    try:
        rep = solve(inst, params)
    except ValueError as exc:
        return type(exc), str(exc)
    stats = {k: v for k, v in rep.wall_stats.items() if k != "elapsed_s"}
    solution = None if rep.solution is None else rep.solution.tolist()
    return solution, rep.outer_loops, rep.cmsd_calls, rep.tested_candidates, stats


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_reports_match_the_sequential_solver(case):
    label, metric, n, k, w, fields = case
    wf = getattr(WeightFunction, metric)(3)
    seen = set()
    for seed in range(SEEDS):
        inst = generate_instance(3, n, k, w, wf, random.Random(f"{label}:{seed}"))
        params = IsdParams(rng_seed=seed, **fields)
        got = outcome(isd_solve, inst, params)
        assert got == outcome(oracles.isd_solve, inst, params), (label, seed)
        if isinstance(got[0], type):
            seen.add(got[0].__name__)
        elif got[0] is None:
            seen.add("miss")
        else:
            seen.add("hit")
            seen.add("singular" if got[4]["singular_retries"] else "regular")
    # each case reaches what it is there for
    want = {
        "prange": {"hit", "singular"},
        "prange-budget": {"hit", "miss"},
        "dumer-budget": {"hit", "miss"},
        "wagner1-budget": {"hit", "miss"},
        "dumer-cap": {"hit", "MergeOverflowError"},
        "wagner1-cap": {"hit", "MergeOverflowError"},
        "wagner1-infeasible": {"CmsdInfeasibleError"},
    }
    assert want.get(label, {"hit"}) <= seen, seen


def test_loops_that_never_eliminate_match_the_sequential_solver():
    # H has n-k unit columns and k zero columns, so a permutation eliminates
    # only when the unit columns all land in front (1 in 924): most loops
    # spend their 256 draws, pass the rank check and build nothing
    n, k = 12, 6
    consumed = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        h = np.zeros((n - k, n), dtype=np.int64)
        h[:, : n - k] = np.eye(n - k, dtype=np.int64)
        h = h[:, rng.permutation(n)]
        e = np.zeros(n, dtype=np.int64)
        e[rng.choice(n, 2, replace=False)] = 1
        inst = SdInstance(
            q=3, n=n, k=k, w=2, wf=WeightFunction.hamming(3), h=FqMatrix(3, h),
            s=FqVector(3, (h @ e) % 3),
        )
        params = IsdParams(variant="prange", max_outer_loops=4, rng_seed=seed)
        got = outcome(isd_solve, inst, params)
        assert got == outcome(oracles.isd_solve, inst, params), seed
        consumed += got[1] - got[2]  # loops without a build
    assert consumed > 0
