"""The candidate contract every back end keeps, and block edges in the solver.

A description's candidates are the entries of its root list at ascending
domain indices; candidates(lo, hi) walks them block by block, and
evaluate_many is their zero-filled scatter over the domain.
"""

import json
import random
from collections import Counter

import numpy as np
import pytest

import oracles
from leeisd import cmsd, isd
from leeisd.cli import main
from leeisd.cmsd import cmsd_dumer, cmsd_prange, cmsd_wagner_v1, cmsd_wagner_v2_build
from leeisd.estimator import AlgoPoint, CodeParams, optimize_point, work_factors
from leeisd.isd import IsdParams, generate_instance, isd_solve
from leeisd.merge import DEFAULT_LIST_CAP, MergeOverflowError
from leeisd.weights import WeightFunction
from test_batched_solve import CASES, outcome


def walk(desc, size: int):
    """(indices, rows) of every candidate, taken size domain indices at a time."""
    idx, rows = [], []
    for lo in range(0, desc.y, size):
        hi = min(lo + size, desc.y)
        i, r = desc.candidates(lo, hi)
        assert ((lo <= i) & (i < hi)).all() and len(i) == len(r)
        idx.append(i)
        rows.append(r)
    return np.concatenate(idx), np.concatenate(rows)


def check_contract(desc, p: int) -> np.ndarray:
    """Assert the contract on desc; returns the full-domain scan."""
    full = desc.evaluate_many(np.arange(desc.y))
    idx, rows = walk(desc, desc.y)
    assert (np.diff(idx) > 0).all()
    assert np.array_equal(rows, full[idx])
    rest = np.ones(desc.y, dtype=bool)
    rest[idx] = False
    assert not full[rest].any()  # an index without a candidate evaluates to zero
    if p:  # the candidates are exactly the nonzero rows
        assert np.array_equal(idx, np.flatnonzero(full.any(axis=1)))
    for size in (1, 7):
        i, r = walk(desc, size)
        assert np.array_equal(i, idx) and np.array_equal(r, rows)
    return full


def loop_of(desc, idx):
    return np.searchsorted(desc.starts, idx, side="right") - 1


def random_stack(q, loops, ell, n, rng, zero_loops=()):
    h2 = rng.integers(0, q, (loops, ell, n))
    s2 = rng.integers(0, q, (loops, ell))
    s2[list(zero_loops)] = 0
    return h2, s2


def test_dumer_candidates_are_the_split_by_split_solutions():
    rng = np.random.default_rng(3)
    seen = Counter()
    for trial in range(60):
        wf = (WeightFunction.hamming(3), WeightFunction.lee(5))[trial % 2]
        n, ell, p = int(rng.integers(4, 9)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h2, s2 = random_stack(wf.q, 5, ell, n, rng)
        cap = 10**9
        if trial % 3 == 0:  # the last loop pairs everything: a cap that only it exceeds
            h2[-1], s2[-1] = 0, 0
            cap = max(len(oracles.dumer_by_split(h2[b], s2[b], wf, p, cap)) for b in range(4))
        try:
            desc = cmsd_dumer(h2, s2, wf, p, cap)
        except MergeOverflowError:
            seen["raised"] += 1
            continue
        full = check_contract(desc, p)
        idx, _ = walk(desc, 5)
        for b in range(len(desc.starts) - 1):
            want = oracles.dumer_by_split(h2[b], s2[b], wf, p, 10**9)
            got = full[idx[loop_of(desc, idx) == b]]
            assert np.array_equal(got, want), (trial, b)
            seen["placeholder" if not len(want) else "rows"] += 1
        seen["cut"] += desc.overflow is not None
    assert seen["placeholder"] and seen["rows"] and seen["cut"] and seen["raised"]


def test_wagner1_candidates_keep_the_contract():
    rng = np.random.default_rng(4)
    seen = Counter()
    for trial in range(40):
        wf = WeightFunction.lee(3)
        loops = int(rng.integers(1, 7))
        h2, s2 = random_stack(3, loops, 4, 12, rng)
        cap = (DEFAULT_LIST_CAP, 6)[trial % 2]
        sample = (None, 5)[trial % 4 // 2]
        try:
            draws = oracles.loop_draws("wagner1", h2, wf, 4, 2, cap, random.Random(trial), sample)
            desc = cmsd_wagner_v1(h2, s2, wf, 4, 2, cap, draws=draws)
        except MergeOverflowError:
            seen["raised"] += 1
            continue
        check_contract(desc, 4)
        idx, sols = walk(desc, 3)
        for b in range(len(desc.starts) - 1):
            part = sols[loop_of(desc, idx) == b]
            assert ((part @ h2[b].T) % 3 == s2[b]).all()
            seen["placeholder" if not len(part) else "rows"] += 1
        seen["cut"] += desc.overflow is not None
    assert seen["placeholder"] and seen["rows"] and seen["cut"]


@pytest.mark.parametrize("lazy", ["shared", "sampled"])
def test_wagner2_candidates_match_the_full_row_oracle(lazy):
    rng = random.Random(11)
    seen = Counter()
    sampled = lazy == "sampled"
    for wf, ell, n, p, a, cap, loops in (
        (WeightFunction.hamming(3), 4, 20, 3, 2, 25 if sampled else DEFAULT_LIST_CAP, 6),
        (WeightFunction.hamming(3), 4, 20, 3, 2, 25 if sampled else DEFAULT_LIST_CAP, 1),
        (WeightFunction.lee(3), 4, 28, 3, 2, 40 if sampled else DEFAULT_LIST_CAP, 1),
        (WeightFunction.lee(5), 3, 15, 3, 1, 20 if sampled else DEFAULT_LIST_CAP, 4),
        (WeightFunction.lee(3), 6, 27, 9, 3, 8 if sampled else DEFAULT_LIST_CAP, 5),
        (WeightFunction.lee(3), 4, 20, 6, 2, 10 if sampled else DEFAULT_LIST_CAP, 6),
    ):
        q = wf.q
        plan = cmsd.loop_plan("wagner2", wf, n, ell, p, a, cap)
        for seed in range(6):
            nrng = np.random.default_rng(rng.randrange(2**32))
            h2, s2 = random_stack(q, loops, ell, n, nrng)
            draws = [plan.draw(rng) for _ in range(loops)]
            assert (draws[0].leaf_ranks[-1] is not None) == sampled
            try:
                desc = cmsd_wagner_v2_build(h2, s2, wf, p, a, cap, draws=draws)
            except MergeOverflowError:
                seen["raised"] += 1
                continue
            full = check_contract(desc, p)
            idx = np.arange(desc.y)
            want, populated = oracles.wagner2_full_rows(h2, s2, wf, p, a, cap, draws, idx)
            assert np.array_equal(full, want), (wf, ell, n, p, a, cap, seed)
            seen["empty table" if not populated else "populated"] += 1
            seen["rows"] += int(want.any(axis=1).sum())
            seen["cut"] += desc.overflow is not None
    # merges over a small cap cut stacks, or raise at loop 0
    assert seen["populated"] and seen["rows"] and seen["empty table"]
    assert bool(seen["cut"] and seen["raised"]) == sampled


@pytest.mark.parametrize("variant", ["dumer", "wagner1", "wagner2"])
def test_weight_zero_candidate_is_the_zero_row_of_loops_with_zero_syndrome(variant):
    # at p = 0 the only candidate is the zero vector, a real candidate exactly
    # in the loops whose s'' is zero; every other index holds none
    wf = WeightFunction.lee(3)
    rng = np.random.default_rng(5)
    h2, s2 = random_stack(3, 6, 3, 12, rng, zero_loops=(1, 2, 5))
    build = {
        "dumer": lambda: cmsd_dumer(h2, s2, wf, 0),
        "wagner1": lambda: cmsd_wagner_v1(h2, s2, wf, 0, 2),
        "wagner2": lambda: cmsd_wagner_v2_build(h2, s2, wf, 0, 2),
    }[variant]
    desc = build()
    full = check_contract(desc, 0)
    idx, rows = walk(desc, 2)
    assert loop_of(desc, idx).tolist() == [1, 2, 5]
    assert not rows.any() and not full.any()
    assert desc.y == 6  # one index per loop, candidate or not


def test_prange_candidates_are_one_zero_row_per_loop():
    wf = WeightFunction.hamming(3)
    desc = cmsd_prange(np.zeros((4, 0, 5), dtype=np.int64), np.zeros((4, 0), dtype=np.int64), wf, 0)
    idx, rows = walk(desc, 3)
    assert idx.tolist() == [0, 1, 2, 3] and rows.shape == (4, 5) and not rows.any()
    check_contract(desc, 0)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_candidate_block_never_changes_a_report(case, block, monkeypatch):
    label, metric, n, k, w, fields = case
    wf = getattr(WeightFunction, metric)(3)
    for seed in range(6):
        inst = generate_instance(3, n, k, w, wf, random.Random(f"{label}:{seed}"))
        params = IsdParams(rng_seed=seed, **fields)
        want = outcome(isd_solve, inst, params)
        with monkeypatch.context() as m:
            m.setattr(isd, "CANDIDATE_BLOCK", block)
            assert outcome(isd_solve, inst, params) == want, (label, seed)


# -- bounds on the level count ---------------------------------------------------


@pytest.mark.parametrize("a", [64, 10**6])
@pytest.mark.parametrize("variant", ["wagner1", "wagner2"])
def test_level_count_above_the_bound_is_rejected(variant, a):
    wf = WeightFunction.lee(3)
    inst = generate_instance(3, 16, 8, 4, wf, random.Random(1))
    with pytest.raises(ValueError, match=f"level count a={a} is above"):
        isd_solve(inst, IsdParams(variant=variant, ell=2, p=2, a=a))
    h2, s2 = np.zeros((2, 10), dtype=np.int64), np.zeros(2, dtype=np.int64)
    build = cmsd_wagner_v1 if variant == "wagner1" else cmsd_wagner_v2_build
    with pytest.raises(ValueError, match="is above 4, the most for 10 columns"):
        build(h2, s2, wf, 2, a)
    with pytest.raises(ValueError, match="a=5 is above 4"):
        build(h2, s2, wf, 0, 5)
    build(h2, s2, wf, 0, 4)  # 2^3 <= 10: the deepest tree over 10 columns


def test_estimator_level_bound():
    cp = CodeParams(WeightFunction.lee(5), 0.5, 0.5)
    at_ten = optimize_point(cp, a_max=10).total_q
    assert optimize_point(cp, a_max=64).total_q == at_ten == 0.00890531994047619
    for a_max in (65, 10**5):
        with pytest.raises(ValueError, match=r"a_max must lie in \[1, 64\]"):
            optimize_point(cp, a_max=a_max)
    point = optimize_point(cp, a_max=2).point
    deep = work_factors(cp, "classical", AlgoPoint(point.L, point.P, 64))
    assert np.isfinite(deep.total_q)  # 2^64 is a float, not an int64 overflow
    with pytest.raises(ValueError, match=r"level count a must lie in \[1, 64\]"):
        AlgoPoint(point.L, point.P, 65)


def test_cli_rejects_level_counts_above_the_bounds(capsys, tmp_path):
    # a RuntimeWarning is an error under the test settings, so code 0 also
    # shows that --a-max 64 computes 2^a without overflow
    est = ["estimate", "--q", "5", "--R", "0.5", "--omega", "0.5", "--a-max"]
    assert main([*est, "64"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha_q"] == 0.00890531994047619
    inst = tmp_path / "inst.json"
    assert main(["gen", "--q", "3", "--n", "16", "--k", "8", "--w", "4", "--out", str(inst)]) == 0
    solve = ["solve", str(inst), "--alg", "wagner2", "--ell", "2", "--p", "2", "--a"]
    for argv in ([*est, "100000"], [*solve, "64"], [*solve, str(10**6)]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
