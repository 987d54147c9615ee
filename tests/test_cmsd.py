import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from leeisd.cmsd import (
    CmsdInfeasibleError,
    cmsd_dumer,
    cmsd_prange,
    cmsd_wagner_v1,
    cmsd_wagner_v2_build,
    _finish_targets,
    loop_plan,
    _sample_ranks,
    _split_lengths,
    _split_weight,
)
from leeisd.fieldlin import FqMatrix, FqVector, random_full_rank_matrix
from leeisd.isd import IsdParams, generate_instance, isd_solve
from leeisd.merge import DEFAULT_LIST_CAP, IndexedList, MergeOverflowError, _encode_keys, merge
from leeisd.weights import SphereEnumerator, WeightFunction, vector_weight
import oracles
from oracles import enumerate_f


def brute_solutions(h2, s2, wf, p):
    """All e'' with H'' e'' = s'' and wt(e'') = p, by sphere enumeration."""
    out = []
    enum = SphereEnumerator(wf, h2.cols, p)
    for v in map(enum.unrank, range(enum.count)):
        if np.array_equal((h2.values @ v) % h2.q, s2.values):
            out.append(tuple(v.tolist()))
    return Counter(out)


def random_subproblem(q, ell, n, wf, p, rng, planted=True):
    h2 = random_full_rank_matrix(q, ell, n, rng) if ell else FqMatrix(q, np.zeros((0, n), dtype=np.int64))
    if planted:
        enum = SphereEnumerator(wf, n, p)
        b = enum.unrank(rng.randrange(enum.count))
        s2 = FqVector(q, (h2.values @ b) % q)
    else:
        s2 = FqVector(q, [rng.randrange(q) for _ in range(ell)])
    return h2, s2


def test_split_helpers():
    assert _split_lengths(10, 4) == [3, 3, 2, 2]
    assert _split_lengths(8, 4) == [2, 2, 2, 2]
    assert _split_weight(6, 4) == [1, 2, 1, 2]
    assert sum(_split_weight(7, 3)) == 7
    # the plan is cached: a repeated call returns the same object, whose J
    # groups are read-only, so no caller can change the next call's groups
    plan = loop_plan("wagner2", WeightFunction.lee(3), 27, 6, 9, 3, DEFAULT_LIST_CAP)
    assert loop_plan("wagner2", WeightFunction.lee(3), 27, 6, 9, 3, DEFAULT_LIST_CAP) is plan
    groups = plan.j_groups
    assert [g.tolist() for g in groups] == [[0, 1], [2, 3], [4, 5]]
    with pytest.raises(ValueError):
        groups[0][0] = 5


def test_plan_layouts():
    # dumer keeps only the weight splits both halves can carry
    wf = WeightFunction.lee(3)
    plan = loop_plan("dumer", wf, 6, 2, 4, 1, DEFAULT_LIST_CAP)
    layouts, groups = plan.layouts, plan.j_groups
    assert [[b.enum.w_scaled for b in blocks] for blocks in layouts] == [[1, 3], [2, 2], [3, 1]]
    assert all([(b.offset, b.length) for b in blocks] == [(0, 3), (3, 3)] for blocks in layouts)
    assert [g.tolist() for g in groups] == [[0, 1]]
    # wagner2 joins the last two of its 2^a + 1 balanced units into the lazy leaf
    (blocks,) = loop_plan("wagner2", wf, 8, 2, 4, 1, DEFAULT_LIST_CAP).layouts
    assert [(b.offset, b.length, b.enum.w_scaled) for b in blocks] == [(0, 3, 1), (3, 5, 3)]
    # an infeasible wagner layout is one cached plan, and each of its builds
    # raises a new error, not one stored instance whose traceback grows
    signature = ("wagner1", WeightFunction.hamming(3), 8, 2, 12, 2, DEFAULT_LIST_CAP)
    plan = loop_plan(*signature)
    assert loop_plan(*signature) is plan and plan.infeasible
    errors = []
    for _ in range(2):
        with pytest.raises(CmsdInfeasibleError) as err:
            plan.build(np.zeros((2, 8), dtype=np.int64), np.zeros(2, dtype=np.int64))
        errors.append(err.value)
    assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])


def test_dumer_solve_plans_once():
    # the splits a half cannot carry are dropped once, in the one cached plan,
    # not rebuilt and re-raised on every outer loop
    wf = WeightFunction.lee(3)
    inst = generate_instance(3, 16, 4, 8, wf, random.Random(2))
    params = IsdParams(variant="dumer", ell=2, p=4, max_outer_loops=8, rng_seed=3)
    plan = loop_plan("dumer", wf, 6, 2, 4, 1, DEFAULT_LIST_CAP)
    assert plan.layouts[0][0].enum.w_scaled == 1  # (0, 4), (4, 0) dropped
    loop_plan.cache_clear()
    report = isd_solve(inst, params)
    assert report.cmsd_calls > 1
    assert loop_plan.cache_info().misses == 1


def test_prange_description():
    q = 3
    h2 = FqMatrix(q, np.zeros((0, 5), dtype=np.int64))
    s2 = FqVector(q, np.zeros(0, dtype=np.int64))
    wf = WeightFunction.hamming(q)
    desc = cmsd_prange(h2, s2, wf, 0)
    assert desc.y == 1
    assert desc.evaluate(0).tolist() == [0] * 5
    res = enumerate_f(desc, h2, s2, wf, 0)
    assert res.observed_z == 1 and res.solutions[0].tolist() == [0] * 5
    with pytest.raises(ValueError):
        cmsd_prange(h2, s2, wf, p=1)
    h_bad = FqMatrix(q, np.zeros((1, 5), dtype=np.int64))
    with pytest.raises(ValueError):
        cmsd_prange(h_bad, FqVector(q, [0]), wf, 0)
    with pytest.raises(ValueError):  # s'' longer than the empty H''
        cmsd_prange(h2, FqVector(q, [1]), wf, 0)


def test_evaluate_many_rejects_non_integer_indices():
    # an int64 cast used to truncate: 0.9 evaluated index 0
    wf = WeightFunction.lee(3)
    h2, s2 = random_subproblem(3, 2, 8, wf, 2, random.Random(12))
    desc = cmsd_dumer(h2, s2, wf, 2)
    for bad in ([0.9], np.array([0.0]), [True], [0, True]):
        with pytest.raises(ValueError, match="integers"):
            oracles.evaluate_many(desc, bad)
    every = oracles.evaluate_many(desc, np.arange(desc.y, dtype=np.int32))
    assert np.array_equal(every[:1], oracles.evaluate_many(desc, [np.int64(0)]))


def test_dumer_p0_degenerate():
    rng = random.Random(1)
    wf = WeightFunction.lee(3)
    h2, s2 = random_subproblem(3, 2, 6, wf, 0, rng, planted=True)  # s2 = 0
    desc = cmsd_dumer(h2, s2, wf, 0)
    assert desc.y == 1
    assert desc.evaluate(0).tolist() == [0] * 6
    # with a nonzero syndrome there is no weight-0 candidate
    s_bad = FqVector(3, [1, 0])
    desc2 = cmsd_dumer(h2, s_bad, wf, 0)
    assert enumerate_f(desc2, h2, s_bad, wf, 0).observed_z == 0


def test_dumer_without_a_feasible_split_is_infeasible():
    # two lee(3) halves of 2 carry at most 2 each: p = 5 has no split, which
    # failed as "need at least one array to stack"
    h2, s2 = np.array([[1, 2, 0, 1]]), np.array([1])
    for build in (cmsd_dumer, lambda *args: cmsd_wagner_v1(*args, a=1)):
        with pytest.raises(CmsdInfeasibleError, match="^no split of scaled weight 5"):
            build(h2, s2, WeightFunction.lee(3), 5)
    inst = generate_instance(3, 10, 3, 6, WeightFunction.lee(3), random.Random(4))
    with pytest.raises(CmsdInfeasibleError, match="^no split of scaled weight 5"):
        isd_solve(inst, IsdParams(variant="dumer", ell=1, p=5))


@pytest.mark.parametrize("q,metric", [(3, "lee"), (3, "hamming"), (5, "lee"), (5, "hamming")])
def test_dumer_matches_exhaustive_oracle(q, metric):
    rng = random.Random(q * 7 + len(metric))
    wf = getattr(WeightFunction, metric)(q)
    for ell, n, p in ((2, 8, 2), (1, 7, 3), (3, 9, 2), (2, 10, 3)):
        h2, s2 = random_subproblem(q, ell, n, wf, p, rng)
        desc = cmsd_dumer(h2, s2, wf, p)
        res = enumerate_f(desc, h2, s2, wf, p)
        got = Counter(tuple(v.tolist()) for v in res.solutions)
        assert got == brute_solutions(h2, s2, wf, p)
        assert res.observed_z == len(got)


def test_wagner_v1_a1_identical_to_dumer():
    rng = random.Random(5)
    wf = WeightFunction.lee(5)
    h2, s2 = random_subproblem(5, 2, 8, wf, 3, rng)
    d = enumerate_f(cmsd_dumer(h2, s2, wf, 3), h2, s2, wf, 3)
    w = enumerate_f(cmsd_wagner_v1(h2, s2, wf, 3, a=1), h2, s2, wf, 3)
    assert Counter(tuple(v.tolist()) for v in d.solutions) == Counter(
        tuple(v.tolist()) for v in w.solutions
    )
    # base lists subsampled by the draws keep a subset of the solutions
    draws = oracles.loop_draws("wagner1", h2, wf, 3, 1, rng=random.Random(0), size=5)
    sub = cmsd_wagner_v1(h2, s2, wf, 3, a=1, draws=draws)
    assert sub.y > 1
    assert {tuple(v.tolist()) for v in enumerate_f(sub, h2, s2, wf, 3).solutions} <= {
        tuple(v.tolist()) for v in d.solutions
    }


def test_dumer_is_wagner_v1_at_a1():
    # one builder body: every index gives the same row, and the meta is dumer's
    rng = random.Random(8)
    for q, metric, ell, n, p, planted in (
        (3, "lee", 2, 8, 3, True),
        (5, "hamming", 3, 6, 2, False),
        (3, "lee", 2, 4, 4, True),  # the splits (0, 4) and (4, 0) cannot be built
        (3, "lee", 3, 4, 1, False),
    ):
        wf = getattr(WeightFunction, metric)(q)
        h2, s2 = random_subproblem(q, ell, n, wf, p, rng, planted)
        d = cmsd_dumer(h2, s2, wf, p)
        w = cmsd_wagner_v1(h2, s2, wf, p, a=1)
        assert d.meta == w.meta and d.meta["variant"] == "dumer"
        every = np.arange(d.y)
        assert d.y == w.y
        assert np.array_equal(oracles.evaluate_many(d, every), oracles.evaluate_many(w, every))


def test_wagner_v1_a2_subset_of_oracle_and_sound():
    # ell = 2 keeps the expected surviving-solution count near 50 per build,
    # so every seed should produce something and all of it must be genuine
    rng = random.Random(19)
    wf = WeightFunction.hamming(3)
    found = 0
    for seed in range(4):
        h2, s2 = random_subproblem(3, 2, 12, wf, 4, rng)
        draws = oracles.loop_draws("wagner1", h2, wf, 4, 2, rng=random.Random(seed))
        desc = cmsd_wagner_v1(h2, s2, wf, 4, a=2, draws=draws)
        oracle = brute_solutions(h2, s2, wf, 4)
        res = enumerate_f(desc, h2, s2, wf, 4)
        for v in res.solutions:
            assert tuple(v.tolist()) in oracle
            assert vector_weight(FqVector(3, v), wf) == 4
            assert np.array_equal((h2.values @ v) % 3, s2.values)
        found += len(res.solutions)
    assert found > 0


def test_wagner_v1_a2_complete_within_profile_when_unfiltered():
    # ell = 1 makes the first level unconstrained (|J_1| = 0), so the tree
    # must return exactly the solutions whose per-block weights are balanced
    rng = random.Random(41)
    q, wf = 3, WeightFunction.hamming(3)
    n, p = 8, 4
    for _ in range(5):
        h2, s2 = random_subproblem(q, 1, n, wf, p, rng)
        draws = oracles.loop_draws("wagner1", h2, wf, p, 2, rng=random.Random(0))
        desc = cmsd_wagner_v1(h2, s2, wf, p, a=2, draws=draws)
        assert desc.meta["j_sizes"][0] == 0
        lengths = _split_lengths(n, 4)
        wsplit = _split_weight(wf.scaled(p), 4)
        expected = Counter()
        for v, cnt in brute_solutions(h2, s2, wf, p).items():
            arr = np.array(v, dtype=np.int64)
            off, match = 0, True
            for ln, wtarget in zip(lengths, wsplit):
                blk = FqVector(q, arr[off : off + ln])
                if wf.scaled(vector_weight(blk, wf)) != wtarget:
                    match = False
                    break
                off += ln
            if match:
                expected[v] = cnt
        got = Counter(tuple(v.tolist()) for v in enumerate_f(desc, h2, s2, wf, p).solutions)
        assert got == expected


def test_wagner_v1_infeasible_block_weight():
    wf = WeightFunction.hamming(3)
    h2 = FqMatrix(3, np.zeros((2, 8), dtype=np.int64))
    s2 = FqVector(3, [0, 0])
    # per-block budget 3 exceeds block length 2
    with pytest.raises(CmsdInfeasibleError):
        cmsd_wagner_v1(h2, s2, wf, 12, a=2)
    # a budget off the table unit is rejected by every back end alike
    lee = WeightFunction.lee(3)
    for build in (
        lambda p: cmsd_dumer(h2, s2, lee, p),
        lambda p: cmsd_wagner_v1(h2, s2, lee, p, a=1),
        lambda p: cmsd_wagner_v1(h2, s2, lee, p, a=2),
        lambda p: cmsd_wagner_v2_build(h2, s2, lee, p, a=2),
    ):
        with pytest.raises(CmsdInfeasibleError):
            build(Fraction(1, 2))


def test_empty_support_block_carries_weight_zero():
    # three symbols over four blocks leave one block empty: at p = 0 its one
    # base entry is the empty vector (the leaf product used to fail to reshape)
    wf = WeightFunction.lee(5)
    h2, s2 = np.array([[1, 2, 3], [4, 0, 1]]), np.array([0, 0])
    desc = cmsd_wagner_v1(h2, s2, wf, 0, a=2)
    assert desc.meta["level_sizes"][0] == [1, 1, 1, 1]
    assert enumerate_f(desc, h2, s2, wf, 0).solutions[0].tolist() == [0, 0, 0]


def test_wagner_v1_level_sizes_follow_prediction():
    # subsampled base lists of size q^(N u) keep every level near q^(N u)
    rng0 = random.Random(77)
    q, wf = 3, WeightFunction.lee(3)
    N, ell, p, a = 16, 4, 8, 2
    omega0 = p / N
    from leeisd.weights import sphere_exponent

    s0 = sphere_exponent(wf, omega0).s
    u = min(s0 / 4, (ell / N) / a)
    base = int(round(q ** (N * u)))
    ok = 0
    for seed in range(20):
        rng = random.Random(seed)
        h2, s2 = random_subproblem(q, ell, N, wf, p, rng0)
        draws = oracles.loop_draws("wagner1", h2, wf, p, a, rng=rng, size=base)
        desc = cmsd_wagner_v1(h2, s2, wf, p, a=a, draws=draws)
        mid = desc.meta["level_sizes"][1]  # sizes after the first merge level
        for sz in mid:
            if base / 4 <= sz <= base * 4:
                ok += 1
    assert ok >= 0.8 * 20 * 2  # 2 first-level lists per trial


def test_wagner_v2_outputs_sound_and_subset():
    rng = random.Random(3)
    q, wf = 3, WeightFunction.lee(3)
    for ell, n, p in ((2, 9, 3), (3, 9, 3)):
        h2, s2 = random_subproblem(q, ell, n, wf, p, rng)
        desc = cmsd_wagner_v2_build(h2, s2, wf, p, a=1)
        oracle = brute_solutions(h2, s2, wf, p)
        nonzero = 0
        for i in range(desc.y):
            v = desc.evaluate(i)
            if v.any():
                nonzero += 1
                assert tuple(v.tolist()) in oracle
                assert vector_weight(FqVector(q, v), wf) == p
                assert np.array_equal((h2.values @ v) % q, s2.values)
        assert nonzero > 0  # planted subproblem: its profile class is populated


def test_wagner_v2_counts_match_reachable_combinations():
    # with a = 1 there are no random targets: f hits exactly one candidate per
    # populated last-block element, so the nonzero count equals the number of
    # distinct last-block parts among profile-compatible solutions
    rng = random.Random(31)
    q, wf = 3, WeightFunction.lee(3)
    n, ell, p = 9, 2, 3
    h2, s2 = random_subproblem(q, ell, n, wf, p, rng)
    desc = cmsd_wagner_v2_build(h2, s2, wf, p, a=1)
    lengths = _split_lengths(n, 3)
    w_units = _split_weight(wf.scaled(p), 3)
    first_len = lengths[0]
    last_len = lengths[1] + lengths[2]
    w_first, w_last = w_units[0], w_units[1] + w_units[2]
    reachable_last = set()
    for v, _ in brute_solutions(h2, s2, wf, p).items():
        arr = np.array(v, dtype=np.int64)
        head, tail = arr[:first_len], arr[first_len:]
        if (
            wf.scaled(vector_weight(FqVector(q, head), wf)) == w_first
            and wf.scaled(vector_weight(FqVector(q, tail), wf)) == w_last
        ):
            reachable_last.add(tail.tobytes())
    nonzero = sum(1 for i in range(desc.y) if desc.evaluate(i).any())
    assert nonzero == len(reachable_last)


def test_wagner_v2_zero_when_no_match():
    # a syndrome far from every reachable value leaves f all-zero
    q, wf = 3, WeightFunction.hamming(3)
    h2 = FqMatrix(q, np.zeros((2, 6), dtype=np.int64))  # H'' = 0
    s2 = FqVector(q, [1, 2])  # unreachable: H'' e = 0 always
    desc = cmsd_wagner_v2_build(h2, s2, wf, 2, a=1)
    assert all(not desc.evaluate(i).any() for i in range(desc.y))
    assert enumerate_f(desc, h2, s2, wf, 2).observed_z == 0


def test_observed_z_slope_matches_prediction():
    # size sweep with subsampled lists: log_q Z should grow like (2u - x) N
    q, wf, a = 3, WeightFunction.lee(3), 2
    m0, omega0 = 0.25, 0.5
    from leeisd.weights import sphere_exponent

    s0 = sphere_exponent(wf, omega0).s
    u = min(s0 / 4, m0 / a)
    zeta_per_n = 2 * u - (m0 - u)
    sizes = [16, 24, 32, 40]
    log_z = []
    for N in sizes:
        ell, p = int(m0 * N), int(omega0 * N)
        base = int(round(q ** (N * u)))
        zs = []
        for seed in range(6):
            rng = random.Random(1000 * N + seed)
            h2, s2 = random_subproblem(q, ell, N, wf, p, rng)
            draws = oracles.loop_draws("wagner1", h2, wf, p, a, rng=rng, size=base)
            desc = cmsd_wagner_v1(h2, s2, wf, p, a=a, draws=draws)
            zs.append(max(enumerate_f(desc, h2, s2, wf, p).observed_z, 1))
        log_z.append(math.log(sum(zs) / len(zs), q))
    slope = np.polyfit(sizes, log_z, 1)[0]
    assert abs(slope - zeta_per_n) <= 0.15


def wagner2_reference(h2, s2, wf, p, a, cap, seed):
    """f over its whole domain by the per-index walk, rebuilt from the build steps.

    For each last-list element and each level, the candidates are the
    match_range of the needed key in the side list sorted on J_j; the one
    with the lexicographically smallest resolved block wins, the first
    position on ties.  A level without a match, or a sum missing s'', gives
    the zero row.
    """
    rng = random.Random(seed)
    q, (ell, n) = h2.q, h2.values.shape
    plan = loop_plan("wagner2", wf, n, ell, p, a, cap)
    (blocks,), j_groups = plan.layouts, plan.j_groups
    last = blocks[-1]
    targets = _finish_targets(s2.values, np.array(plan.draw(rng).targets), j_groups, q)

    def build(lo, size):
        """(list, part) where part(backref) resolves one entry's support block."""
        if size == 1:
            b = blocks[lo]
            vecs = b.enum.all_vectors()
            syn = vecs @ h2.values[:, b.offset : b.offset + b.length].T % q
            return IndexedList(q, syn, np.arange(len(vecs))), lambda ref: vecs[ref]
        half = size // 2
        (l1, part1), (l2, part2) = build(lo, half), build(lo + half, half)
        level = size.bit_length() - 1
        merged = merge(l1, l2, tuple(j_groups[level - 1]), targets[level][lo // size], cap)
        return merged, lambda ref: np.concatenate(
            [part1(l1.backrefs[ref[0]]), part2(l2.backrefs[ref[1]])]
        )

    nb = 1 << a
    sides = []
    for j in range(1, a + 1):
        lst, part = build(nb - (1 << j), 1 << (j - 1))
        sides.append((lst.sort_on(tuple(j_groups[j - 1])), part, blocks[nb - (1 << j)].offset))
    cnt = last.enum.count
    rng = random.Random(seed)  # replayed: the level targets, then the chain's ranks
    for _ in range(sum(((1 << (a - j)) - 1) * len(J) for j, J in enumerate(j_groups, 1))):
        rng.randrange(q)
    ranks = sorted(_sample_ranks(cnt, cap, rng)) if cnt > cap else range(cnt)
    rows = []
    for r in ranks:
        out = np.zeros(n, dtype=np.int64)
        out[last.offset :] = last.enum.unrank(r)
        acc = h2.values[:, last.offset :] @ out[last.offset :] % q
        for j, (lst, part, off) in enumerate(sides, 1):
            J = j_groups[j - 1]
            need = (targets[j][(1 << (a - j)) - 1][J] - acc[J]) % q
            lo, hi = lst.match_range(_encode_keys(need[None, :], q)[0])
            if lo == hi:
                out[:] = 0
                break
            best = min(range(lo, hi), key=lambda pos: tuple(part(lst.backrefs[pos]).tolist()))
            blk = part(lst.backrefs[best])
            out[off : off + len(blk)] = blk
            acc = (acc + lst.syndromes[best]) % q
        if (acc != s2.values).any():
            out[:] = 0
        rows.append(out)
    return np.array(rows)


def test_wagner2_partner_tables_match_per_index_walk():
    rng = random.Random(2718)
    cases = (  # (weight, ell, n, p, a, cap): a = 1..3, sampled last lists, wide keys
        (WeightFunction.lee(3), 3, 12, 3, 1, DEFAULT_LIST_CAP),
        (WeightFunction.lee(3), 3, 15, 3, 1, 50),
        (WeightFunction.hamming(3), 4, 15, 5, 2, DEFAULT_LIST_CAP),
        (WeightFunction.lee(5), 4, 20, 5, 2, 60),
        (WeightFunction.lee(3), 6, 27, 9, 3, DEFAULT_LIST_CAP),
        (WeightFunction.lee(331), 8, 9, 3, 1, DEFAULT_LIST_CAP),  # q^|J| >= 2^62
    )
    nonzero = 0
    for wf, ell, n, p, a, cap in cases:
        q = wf.q
        for seed in range(3):
            # plant a solution whose unit weights follow the balanced split
            units = (1 << a) + 1
            planted = []
            for ln, w in zip(_split_lengths(n, units), _split_weight(wf.scaled(p), units)):
                enum = SphereEnumerator(wf, ln, w)
                planted.append(enum.unrank(rng.randrange(enum.count)))
            h2 = random_full_rank_matrix(q, ell, n, rng)
            s2 = FqVector(q, (h2.values @ np.concatenate(planted)) % q)
            draws = oracles.loop_draws("wagner2", h2, wf, p, a, cap, random.Random(seed))
            desc = cmsd_wagner_v2_build(h2, s2, wf, p, a=a, list_size_cap=cap, draws=draws)
            got = oracles.evaluate_many(desc, np.arange(desc.y))
            want = wagner2_reference(h2, s2, wf, p, a, cap, seed)
            assert np.array_equal(got, want), (q, ell, n, p, a, cap, seed)
            nonzero += int(want.any(axis=1).sum())
    assert nonzero > 0


def test_split_merge_cuts_like_one_merge_per_split():
    # dumer's one merge over all weight splits gives each loop the rows of one
    # merge per split, in split order, and a stack ends where that build would
    # overflow, named in a fixed order: a base list over cap, else the first
    # split whose merge passes cap, else the solutions of all splits over cap
    rng = np.random.default_rng(5)
    kinds = Counter()
    for trial in range(200):
        wf = (WeightFunction.hamming(3), WeightFunction.lee(5))[trial % 2]
        q = wf.q
        n, ell, p = int(rng.integers(4, 10)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        loops = int(rng.integers(1, 6))
        h2, s2 = rng.integers(0, q, (loops, ell, n)), rng.integers(0, q, (loops, ell))
        if trial % 3 == 2:  # the last loop pairs everything: its merges are the largest
            h2[-1], s2[-1] = 0, 0
        # caps below the largest base list, or between it and the largest output
        base = max(
            SphereEnumerator(wf, ln, Fraction(w, wf.denominator)).count
            for ln in ((n + 1) // 2, n // 2)
            for w in range(wf.scaled(p) + 1)
        )
        most = max(len(oracles.dumer_by_split(h2[b], s2[b], wf, p, 10**9)) for b in range(loops))
        lo, hi = (1, base) if trial % 5 == 0 else (base, max(base, most))
        cap = int(rng.integers(lo, hi + 1))
        want = []
        for b in range(loops):
            try:
                want.append(oracles.dumer_by_split(h2[b], s2[b], wf, p, cap))
            except MergeOverflowError as exc:
                want.append(exc)
                kinds[str(exc).split()[0], b > 0] += 1
                break
        if isinstance(want[0], MergeOverflowError):
            for h, s in ((h2, s2), (h2[0], s2[0])):
                with pytest.raises(MergeOverflowError) as got:
                    cmsd_dumer(h, s, wf, p, cap)
                assert str(got.value) == str(want[0])
            continue
        single = cmsd_dumer(h2[0], s2[0], wf, p, cap)
        rows = oracles.evaluate_many(single, np.arange(single.y))
        assert np.array_equal(rows[rows.any(axis=1)], want[0])
        desc = cmsd_dumer(h2, s2, wf, p, cap)
        cut = want[-1] if isinstance(want[-1], MergeOverflowError) else None
        assert str(desc.overflow) == str(cut)
        assert len(desc.starts) - 1 == len(want) - (cut is not None)
        for b, lo, hi in zip(range(loops), desc.starts[:-1], desc.starts[1:]):
            rows = oracles.evaluate_many(desc, np.arange(lo, hi))
            assert np.array_equal(rows[rows.any(axis=1)], want[b]), (trial, b)
    # a merge or a running total over cap ends a stack at a later loop, or
    # raises at loop 0; a base list over cap fails every loop, so loop 0 raises
    assert set(kinds) == {("base", False)} | {
        (k, b) for k in ("merge", "merged") for b in (False, True)
    }


def test_wagner2_survivor_rows_match_full_rows():
    # rows only for the indices whose chain resolves, as the full-row evaluation
    # gave them: shared and sampled lazy lists, single builds and stacks, p = 0,
    # and builds where a partner table is empty
    rng = random.Random(99)
    seen = Counter()
    for wf, ell, n, p, a, cap, loops in (
        (WeightFunction.hamming(3), 4, 20, 3, 2, DEFAULT_LIST_CAP, 1),
        (WeightFunction.hamming(3), 4, 20, 3, 2, DEFAULT_LIST_CAP, 6),
        (WeightFunction.lee(3), 4, 28, 3, 2, 40, 1),
        (WeightFunction.lee(3), 4, 28, 3, 2, 40, 5),
        (WeightFunction.lee(5), 3, 15, 3, 1, 20, 4),
        (WeightFunction.lee(3), 6, 27, 9, 3, DEFAULT_LIST_CAP, 3),
        (WeightFunction.hamming(3), 3, 12, 0, 2, DEFAULT_LIST_CAP, 3),
    ):
        q = wf.q
        plan = loop_plan("wagner2", wf, n, ell, p, a, cap)
        for seed in range(8):
            h2 = np.array([random_full_rank_matrix(q, ell, n, rng).values for _ in range(loops)])
            s2 = np.array([[rng.randrange(q) for _ in range(ell)] for _ in range(loops)])
            draws = [plan.draw(rng) for _ in range(loops)]
            single = loops == 1
            args = (h2[0], s2[0]) if single else (h2, s2)
            desc = cmsd_wagner_v2_build(*args, wf, p, a, cap, draws=draws)
            idx = np.arange(desc.y)
            want, populated = oracles.wagner2_full_rows(h2, s2, wf, p, a, cap, draws, idx)
            got = oracles.evaluate_many(desc, idx)
            assert np.array_equal(got, want), (wf, ell, n, p, a, cap, loops, seed)
            seen["sampled" if draws[0].leaf_ranks[-1] else "shared"] += 1
            seen["populated" if populated else "empty table"] += 1
            seen["rows"] += int(want.any(axis=1).sum())
    assert seen["sampled"] and seen["shared"] and seen["empty table"] and seen["rows"]


def _chain(desc):
    """wagner2's chain nodes, from the leaf up to the root: right children all the way down."""
    nodes = [desc.root]
    while nodes[-1].children is not None:
        nodes.append(nodes[-1].children[1])
    return nodes[::-1]


@pytest.mark.parametrize("a,n,p,cap", [(1, 9, 3, 30), (2, 15, 5, 40), (3, 27, 9, 100)])
def test_wagner2_level_sizes_end_with_the_chain(a, n, p, cap):
    # one merge tree: level j holds 2^(a-j) nodes, the chain last, and the
    # expected output is loop_plan's average-case count for every loop
    wf, ell, loops = WeightFunction.lee(3), 4, 3
    rng = np.random.default_rng(a)
    h2, s2 = rng.integers(0, 3, (loops, ell, n)), rng.integers(0, 3, (loops, ell))
    draws = oracles.loop_draws("wagner2", h2, wf, p, a, cap, random.Random(a))
    desc = cmsd_wagner_v2_build(h2, s2, wf, p, a, cap, draws=draws)
    assert desc.overflow is None
    sizes = desc.meta["level_sizes"]
    assert [len(level) for level in sizes] == [1 << (a - j) for j in range(a + 1)]
    assert [level[-1] for level in sizes] == [len(nd.lst) for nd in _chain(desc)]
    plan = loop_plan("wagner2", wf, n, ell, p, a, cap)
    (blocks,) = plan.layouts
    assert sizes[0][-1] == desc.y == loops * min(blocks[-1].enum.count, cap)  # the chain leaf
    assert desc.meta["expected_solutions"] == pytest.approx(plan.expected * loops, rel=1e-12)


def test_wagner2_stack_cut_at_level_2_after_the_chain_merged():
    # a = 3: the chain merges at level 1 over all four loops, then a level-2
    # merge of the materialized side overflows for loop 3 and cuts the stack
    wf, ell, n, p, a, cap, loops = WeightFunction.lee(3), 4, 27, 9, 3, 48, 4
    q = wf.q
    plan = loop_plan("wagner2", wf, n, ell, p, a, cap)
    rng = np.random.default_rng(1)
    h2, s2 = rng.integers(0, q, (loops, ell, n)), rng.integers(0, q, (loops, ell))
    draw_rng = random.Random(1)
    draws = [plan.draw(draw_rng) for _ in range(loops)]
    desc = cmsd_wagner_v2_build(h2, s2, wf, p, a, cap, draws=draws)
    live = len(desc.starts) - 1
    assert live == 3 and desc.overflow.loop == 3
    assert np.unique(_chain(desc)[1].lst.loop).tolist() == [0, 1, 2]  # the cut loop is rebuilt away
    with pytest.raises(MergeOverflowError) as err:
        cmsd_wagner_v2_build(h2[live], s2[live], wf, p, a, cap, draws=draws[live : live + 1])
    assert str(err.value) == str(desc.overflow)
    for b in range(live):
        single = cmsd_wagner_v2_build(h2[b], s2[b], wf, p, a, cap, draws=draws[b : b + 1])
        want = oracles.evaluate_many(single, np.arange(single.y))
        got = oracles.evaluate_many(desc, np.arange(desc.starts[b], desc.starts[b + 1]))
        assert np.array_equal(got, want), b
    idx = np.arange(desc.y)
    want, _ = oracles.wagner2_full_rows(h2, s2, wf, p, a, cap, draws, idx)
    assert np.array_equal(oracles.evaluate_many(desc, idx), want)
    assert want.any(axis=1).sum() > 0


def test_draws_refuse_the_randomness_options_they_fix():
    # draws are a build's only randomness: rng and base_list_size are no
    # options, subsampled base lists come from loop_plan(...).draw(rng, size),
    # and a build without draws draws each loop from Random(0) in turn
    wf = WeightFunction.lee(3)
    rng = np.random.default_rng(8)
    h2, s2 = rng.integers(0, 3, (2, 2, 12)), rng.integers(0, 3, (2, 2))
    for build, p in ((cmsd_wagner_v1, 4), (cmsd_wagner_v2_build, 3)):
        for extra in ({"base_list_size": 5}, {"rng": random.Random(1)}):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                build(h2, s2, wf, p, 2, **extra)
        with pytest.raises(TypeError, match="positional arguments"):
            build(h2, s2, wf, p, 2, DEFAULT_LIST_CAP, random.Random(1))
    plan = loop_plan("wagner1", wf, 12, 2, 4, 2, DEFAULT_LIST_CAP)
    draws = [plan.draw(random.Random(b), 5) for b in range(2)]
    assert cmsd_wagner_v1(h2, s2, wf, 4, 2, draws=draws).meta["level_sizes"][0] == [10] * 4
    draws = [plan.draw(random.Random(b)) for b in range(2)]
    assert cmsd_wagner_v1(h2, s2, wf, 4, 2, draws=draws).meta["level_sizes"][0] == [12] * 4
    got = cmsd_wagner_v1(h2, s2, wf, 4, 2)
    want = cmsd_wagner_v1(h2, s2, wf, 4, 2, draws=oracles.loop_draws("wagner1", h2, wf, 4, 2))
    every = np.arange(want.y)
    assert got.y == want.y
    assert np.array_equal(oracles.evaluate_many(got, every), oracles.evaluate_many(want, every))
    lazy = loop_plan("wagner2", wf, 12, 2, 3, 2, DEFAULT_LIST_CAP)
    cmsd_wagner_v2_build(h2, s2, wf, 3, 2, draws=[lazy.draw(random.Random(b)) for b in range(2)])


def test_every_plan_draws_and_builds_through_one_contract():
    # prange, the three merge trees and an infeasible layout alike take
    # draw(rng), draw(rng, size) and build(h2, s2, draws)
    lee, ham, cap = WeightFunction.lee(3), WeightFunction.hamming(3), DEFAULT_LIST_CAP
    rng = np.random.default_rng(8)
    h2, s2 = rng.integers(0, 3, (2, 2, 12)), rng.integers(0, 3, (2, 2))
    prange = loop_plan("prange", lee, 12, 0, 0, 1, cap)
    assert prange.draw(random.Random(0)) is None and prange.draw(random.Random(0), 5) is None
    assert prange.build(h2[:, :0], s2[:, :0], [None, None]).y == 2
    for variant, builder, p, a in (
        ("dumer", lambda *args, draws: cmsd_dumer(*args[:4]), 4, 1),
        ("wagner1", cmsd_wagner_v1, 4, 2),
        ("wagner2", cmsd_wagner_v2_build, 3, 2),
    ):
        plan = loop_plan(variant, lee, 12, 2, p, a, cap)
        for size in (None, 5):
            draws = [plan.draw(random.Random(b), size) for b in range(2)]
            got = plan.build(h2, s2, draws)
            want = builder(h2, s2, lee, p, a, draws=draws)
            every = np.arange(want.y)
            rows = [oracles.evaluate_many(desc, every) for desc in (got, want)]
            assert np.array_equal(*rows), variant
            # a sized draw subsamples the base lists over size, but dumer lists every sphere
            sampled = any(r is not None for r in draws[0].leaf_ranks)
            assert sampled == (size is not None and variant != "dumer"), (variant, size)
            if variant == "wagner1":  # each loop's four base lists of 6 entries, or 5 sampled
                assert got.meta["level_sizes"][0] == [2 * (size or 6)] * 4
    infeasible = loop_plan("wagner1", ham, 8, 2, 12, 2, cap)
    assert infeasible.draw(random.Random(0)) is None and infeasible.draw(random.Random(0), 5) is None
    with pytest.raises(CmsdInfeasibleError) as public:
        cmsd_wagner_v1(h2[:, :, :8], s2, ham, 12, 2)
    for _ in range(2):
        with pytest.raises(CmsdInfeasibleError) as err:
            infeasible.build(h2[:, :, :8], s2, [None, None])
        assert str(err.value) == str(public.value)


def test_a_single_block_builds_as_a_stack_of_one():
    # one description contract: a bottom block (ell, n) builds as the stack
    # (1, ell, n) does, and every description, a cut one too, gives each of
    # its loops one index or more, y = starts[-1] >= 1 in all
    lee, rng = WeightFunction.lee(3), np.random.default_rng(40)
    h2, s2 = rng.integers(0, 3, (4, 2, 12)), rng.integers(0, 3, (4, 2))
    h2[-1], s2[-1] = 0, 0  # the last loop's merges pair everything, so a low cap cuts there
    for variant, p, a in (("prange", 0, 1), ("dumer", 4, 1), ("wagner1", 4, 2), ("wagner2", 5, 2)):
        ell = 0 if variant == "prange" else 2
        plan = loop_plan(variant, lee, 12, ell, p, a, DEFAULT_LIST_CAP)
        draws = [plan.draw(random.Random(0))]
        one = plan.build(h2[0, :ell], s2[0, :ell], draws)
        stack = plan.build(h2[:1, :ell], s2[:1, :ell], draws)
        assert one.y == stack.y and one.starts.tolist() == stack.starts.tolist() == [0, one.y]
        assert np.array_equal(one.dom, stack.dom) and one.meta == stack.meta, variant
        every = np.arange(one.y)
        rows = [oracles.evaluate_many(desc, every) for desc in (one, stack)]
        assert np.array_equal(*rows), variant
        cuts = 0
        for cap in [DEFAULT_LIST_CAP] + [2**k for k in range(2, 14) if variant != "prange"]:
            plan = loop_plan(variant, lee, 12, ell, p, a, cap)
            draws = [plan.draw(random.Random(b)) for b in range(4)]
            try:
                desc = plan.build(h2[:, :ell], s2[:, :ell], draws)
            except MergeOverflowError:  # loop 0, or a whole base list, overflows
                continue
            starts = desc.starts.tolist()
            assert starts[0] == 0 and desc.y == starts[-1] >= 1, (variant, cap)
            assert all(hi > lo for lo, hi in zip(starts, starts[1:])), (variant, cap)
            cuts += desc.overflow is not None
        assert cuts or variant == "prange", variant


def test_sample_ranks_past_int64_are_distinct_and_seeded():
    count = 3 * 2**63  # range() of this size cannot be sampled, so ranks are drawn one by one
    ranks = _sample_ranks(count, 50, random.Random(5))
    assert len(set(ranks)) == 50 and all(0 <= r < count for r in ranks)
    assert ranks == _sample_ranks(count, 50, random.Random(5))
    assert ranks != _sample_ranks(count, 50, random.Random(6))
