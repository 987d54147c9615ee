import hashlib
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import leeisd.isd as isd
from leeisd.cmsd import (
    CmsdInfeasibleError,
    LoopDraws,
    cmsd_dumer,
    cmsd_wagner_v1,
    cmsd_wagner_v2_build,
    loop_plan,
)
from leeisd.fieldlin import (
    FqMatrix,
    FqVector,
    mat_vec_mul,
    partial_gaussian_elim,
    random_full_rank_matrix,
    rank,
)
from leeisd.isd import (
    IsdParams,
    SdInstance,
    generate_instance,
    isd_solve,
    verify_solution,
)
from leeisd.merge import DEFAULT_LIST_CAP, MergeOverflowError
from leeisd.weights import SphereEnumerator, WeightFunction, vector_weight


def test_generate_weight_zero():
    rng = random.Random(0)
    wf = WeightFunction.lee(3)
    inst = generate_instance(3, 8, 4, 0, wf, rng)
    assert inst.s.tolist() == [0, 0, 0, 0]
    assert inst.planted.tolist() == [0] * 8


def test_generate_postconditions():
    rng = random.Random(1)
    wf = WeightFunction.hamming(3)
    inst = generate_instance(3, 10, 5, 3, wf, rng)
    assert rank(inst.h) == 5
    assert mat_vec_mul(inst.h, inst.planted) == inst.s
    assert vector_weight(inst.planted, wf) == 3
    inst.check_well_formed()


def test_generate_many_planted_verify():
    rng = random.Random(2)
    wf = WeightFunction.lee(5)
    for _ in range(100):
        inst = generate_instance(5, 12, 6, 6, wf, rng)
        assert verify_solution(inst, inst.planted)


def test_generate_empty_sphere():
    rng = random.Random(3)
    with pytest.raises(ValueError):
        generate_instance(3, 6, 3, 100, WeightFunction.lee(3), rng)


def test_verify_solution_negative_cases():
    rng = random.Random(4)
    wf = WeightFunction.lee(3)
    inst = generate_instance(3, 10, 5, 3, wf, rng)
    assert not verify_solution(inst, FqVector(3, np.zeros(10, dtype=np.int64)))  # s != 0 here
    # single-coordinate bump must break syndrome or weight
    for i in range(10):
        bumped = np.array(inst.planted.values)
        bumped[i] = (bumped[i] + 1) % 3
        assert not verify_solution(inst, FqVector(3, bumped))


def test_instance_json_roundtrip(tmp_path):
    rng = random.Random(5)
    wf = WeightFunction.lee(5)
    inst = generate_instance(5, 9, 4, 4, wf, rng)
    doc = inst.to_dict()
    text = json.dumps(doc)
    back = SdInstance.from_dict(json.loads(text))
    assert back.h == inst.h and back.s == inst.s and back.w == inst.w
    assert back.planted == inst.planted
    # custom table spec survives the round trip
    custom = WeightFunction(3, (0, Fraction(1, 2), Fraction(1, 2)), name="half")
    inst2 = generate_instance(3, 8, 4, Fraction(3, 2), custom, rng)
    back2 = SdInstance.from_dict(json.loads(json.dumps(inst2.to_dict())))
    assert back2.wf.table == custom.table and back2.w == Fraction(3, 2)


def test_custom_table_named_like_a_builtin_keeps_its_table():
    # a custom table named "lee" was written as the name and reloaded as lee(3)
    fake = WeightFunction.from_json({"q": 3, "table": [0, 2, 2], "name": "lee"})
    inst = generate_instance(3, 10, 5, 4, fake, random.Random(6))
    doc = json.loads(json.dumps(inst.to_dict()))
    assert doc["weight"]["table"] == [0, 2, 2]
    assert SdInstance.from_dict(doc).wf == fake
    del doc["e"]
    assert SdInstance.from_dict(doc).wf.table == fake.table
    lee = generate_instance(3, 10, 5, 4, WeightFunction.lee(3), random.Random(6))
    assert lee.to_dict()["weight"] == "lee"


def test_instance_json_rejects_non_integers():
    # int() and an int64 cast used to truncate: k = 8.9 read as 8, an entry 0.5 as 0
    inst = generate_instance(3, 10, 5, 3, WeightFunction.lee(3), random.Random(2))
    for key, bad in (("q", 3.0), ("n", 10.5), ("k", 5.9), ("k", True), ("n", "10")):
        doc = inst.to_dict()
        doc[key] = bad
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            SdInstance.from_dict(doc)
    for key, bad in (("H", 0.5), ("H", True), ("H", "1"), ("s", 1.0), ("e", 0.0)):
        doc = inst.to_dict()
        if key == "H":
            doc["H"][0][0] = bad
        else:
            doc[key][0] = bad
        with pytest.raises(ValueError, match=f"^{key} entry must be an integer"):
            SdInstance.from_dict(doc)
    doc = inst.to_dict()
    doc["s"][0] = 2**70
    with pytest.raises(ValueError):
        SdInstance.from_dict(doc)
    assert SdInstance.from_dict(inst.to_dict()).h == inst.h


def test_k_outside_0_n_rejected_before_any_draw():
    # k > n asked for a full-rank (n-k) x n matrix with n-k < 0 and never returned
    wf = WeightFunction.lee(3)
    for n, k in ((10, 12), (10, 10), (10, 0), (10, -1)):
        with pytest.raises(ValueError, match="need 0 < k < n"):
            generate_instance(3, n, k, 2, wf, random.Random(1))
    with pytest.raises(ValueError):
        random_full_rank_matrix(3, -2, 10, random.Random(1))


@pytest.mark.parametrize("n, k", [(16, True), (16.0, 8), (16, 8.0), (np.int64(16), "8")])
def test_non_integer_n_or_k_rejected_before_any_draw(n, k):
    wf, rng = WeightFunction.lee(3), random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="must be an integer"):
        generate_instance(3, n, k, 4, wf, rng)
    assert rng.getstate() == state
    inst = generate_instance(3, 16, 8, 4, wf, random.Random(1))
    with pytest.raises(ValueError, match="must be an integer"):
        SdInstance(3, n, k, 4, wf, inst.h, inst.s)


def test_solve_weight_zero_trivial():
    rng = random.Random(6)
    wf = WeightFunction.lee(3)
    inst = generate_instance(3, 8, 4, 0, wf, rng)
    report = isd_solve(inst, IsdParams(variant="prange", rng_seed=1))
    assert report.found and report.outer_loops == 1
    assert report.solution.tolist() == [0] * 8


def test_solve_prange_planted():
    rng = random.Random(7)
    wf = WeightFunction.hamming(3)
    for trial in range(20):
        inst = generate_instance(3, 16, 8, 4, wf, rng)
        report = isd_solve(inst, IsdParams(variant="prange", rng_seed=trial))
        assert report.found
        assert verify_solution(inst, report.solution)


def test_solve_q2_prange():
    rng = random.Random(8)
    wf = WeightFunction.hamming(2)
    for trial in range(10):
        inst = generate_instance(2, 20, 5, 2, wf, rng)
        report = isd_solve(inst, IsdParams(variant="prange", rng_seed=trial))
        assert report.found and verify_solution(inst, report.solution)


def test_solutions_within_exhaustive_set():
    rng = random.Random(9)
    wf = WeightFunction.lee(3)
    inst = generate_instance(3, 10, 5, 3, wf, rng)
    exhaustive = set()
    enum = SphereEnumerator(wf, 10, 3)
    for v in map(enum.unrank, range(enum.count)):
        if np.array_equal((inst.h.values @ v) % 3, inst.s.values):
            exhaustive.add(tuple(v.tolist()))
    assert tuple(inst.planted.tolist()) in exhaustive
    for seed in range(12):
        report = isd_solve(inst, IsdParams(variant="prange", rng_seed=seed))
        assert report.found
        assert tuple(report.solution.tolist()) in exhaustive


def test_solve_dumer_and_wagner_variants():
    rng = random.Random(10)
    wf = WeightFunction.lee(3)
    inst = generate_instance(3, 20, 8, 4, wf, rng)
    rep = isd_solve(inst, IsdParams(variant="dumer", ell=2, p=2, rng_seed=3))
    assert rep.found and verify_solution(inst, rep.solution)

    inst = generate_instance(3, 24, 8, 6, wf, rng)
    rep = isd_solve(inst, IsdParams(variant="wagner1", ell=4, p=4, a=2, rng_seed=3))
    assert rep.found and verify_solution(inst, rep.solution)

    inst = generate_instance(3, 21, 6, 6, wf, rng)
    rep = isd_solve(inst, IsdParams(variant="wagner2", ell=3, p=3, a=1, rng_seed=3))
    assert rep.found and verify_solution(inst, rep.solution)


def test_permutation_replay_framework():
    # solving the permuted instance and un-permuting preserves weight/syndrome;
    # implicitly covered by verify, but exercise a round trip explicitly
    rng = random.Random(11)
    wf = WeightFunction.lee(5)
    inst = generate_instance(5, 14, 7, 5, wf, rng)
    rep = isd_solve(inst, IsdParams(variant="dumer", ell=2, p=2, rng_seed=5))
    if rep.found:
        assert vector_weight(rep.solution, wf) == inst.w
        assert mat_vec_mul(inst.h, rep.solution) == inst.s


def test_wrappers_stay_at_the_boundary(monkeypatch):
    # inside the loop H, s and every candidate are int64 arrays; a hit is
    # wrapped once, and that FqVector is both verified and returned
    inst = generate_instance(3, 30, 15, 7, WeightFunction.lee(3), random.Random(211))
    built = Counter()
    for cls in (FqMatrix, FqVector):
        def counted(self, q, values, init=cls.__init__, name=cls.__name__):
            built[name] += 1
            init(self, q, values)

        monkeypatch.setattr(cls, "__init__", counted)
    verified = []

    def verify(inst, e):
        verified.append(e)
        return verify_solution(inst, e)

    monkeypatch.setattr(isd, "verify_solution", verify)
    rep = isd_solve(inst, IsdParams(variant="dumer", ell=3, p=2, rng_seed=11))
    assert rep.found and rep.outer_loops == 5
    assert built["FqMatrix"] == 0
    assert built["FqVector"] == len(verified) == 1
    assert rep.solution is verified[0]


def test_stack_meta_sums_the_single_builds_of_its_loops():
    # isd_solve reads a batch's expected_solutions: a stack's, like its splits,
    # is the sum over the single builds of the loops it describes, also where
    # a cap cuts the stack
    rng = np.random.default_rng(26)
    seen = Counter()
    for trial in range(72):
        variant = ("dumer", "wagner1", "wagner2")[trial % 3]
        wf = (WeightFunction.hamming(3), WeightFunction.lee(5))[trial // 3 % 2]
        q, a, lazy = wf.q, 1 if variant == "dumer" else 2, variant == "wagner2"
        n, ell = int(rng.integers(6 * a, 6 * a + 6)), int(rng.integers(1, 4))
        p, loops = int(rng.integers(3 * a - 2, 3 * a + 1)), int(rng.integers(2, 6))
        h2, s2 = rng.integers(0, q, (loops, ell, n)), rng.integers(0, q, (loops, ell))
        h2[-1], s2[-1] = 0, 0  # with zero level targets, the last loop's merges pair everything
        layouts = loop_plan(variant, wf, n, ell, p, a, DEFAULT_LIST_CAP).layouts
        # caps from base up, so every whole base list fits; wagner2 samples its chain to the cap
        base = max(b.enum.count for layout in layouts for b in layout[: 4 - lazy])
        cap = DEFAULT_LIST_CAP if trial % 4 == 3 else int(base * rng.uniform(1, 2))
        draw_rng = random.Random(trial)
        plan = loop_plan(variant, wf, n, ell, p, a, cap)
        draws = [plan.draw(draw_rng) for _ in range(loops)]
        last = draws[-1]
        draws[-1] = LoopDraws([0] * len(last.targets), last.leaf_ranks, last.plan)

        def build(h, s, d):
            if variant == "dumer":
                return cmsd_dumer(h, s, wf, p, cap)
            back_end = cmsd_wagner_v2_build if lazy else cmsd_wagner_v1
            return back_end(h, s, wf, p, a, cap, draws=d)

        try:
            stack = build(h2, s2, draws)
        except MergeOverflowError:
            seen["raised"] += 1
            continue
        singles = [build(h2[b], s2[b], draws[b : b + 1]) for b in range(len(stack.starts) - 1)]
        want = sum(d.meta["expected_solutions"] for d in singles)
        assert stack.meta["expected_solutions"] == pytest.approx(want, rel=1e-12), trial
        if variant == "dumer":
            assert stack.meta["splits"] == sum(d.meta["splits"] for d in singles), trial
        seen[variant, stack.overflow is not None] += 1
    assert all(seen[v, cut] for v in ("dumer", "wagner1", "wagner2") for cut in (False, True))


def test_one_elimination_per_outer_loop(monkeypatch):
    # elimination pivots over all rows, so a full-rank H almost never sends
    # a loop back for a new permutation; loops are eliminated in stacks, one
    # member per loop, and only the last stack runs past the hit
    inst = generate_instance(3, 30, 15, 7, WeightFunction.lee(3), random.Random(211))
    stacks = []

    def counted(h, *args):
        assert h.ndim == 3
        stacks.append(len(h))
        return partial_gaussian_elim(h, *args)

    monkeypatch.setattr(isd, "partial_gaussian_elim", counted)
    rep = isd_solve(inst, IsdParams(variant="dumer", ell=3, p=2, rng_seed=11))
    assert rep.found and rep.outer_loops == 5
    assert sum(stacks[:-1]) < rep.outer_loops <= sum(stacks)
    assert rep.wall_stats["singular_retries"] == 0


def test_rank_deficient_h_is_rejected():
    # an instance built directly skips check_well_formed; a repeated row of H
    # leaves no information set, which the solve reports instead of spinning
    rng = random.Random(17)
    wf = WeightFunction.lee(3)
    base = generate_instance(3, 20, 10, 4, wf, rng)
    h = base.h.values.copy()
    h[-1] = h[0]
    hm = FqMatrix(3, h)
    inst = SdInstance(
        q=3, n=20, k=10, w=base.w, wf=wf, h=hm, s=mat_vec_mul(hm, base.planted),
        planted=base.planted,
    )
    assert rank(hm) == 9 and verify_solution(inst, base.planted)
    with pytest.raises(ValueError, match="rank"):
        isd_solve(inst, IsdParams(variant="prange", max_outer_loops=20, rng_seed=0))


def test_determinism_fixed_seed():
    rng = random.Random(12)
    wf = WeightFunction.lee(3)
    inst = generate_instance(3, 18, 8, 4, wf, rng)
    params = IsdParams(variant="dumer", ell=2, p=2, rng_seed=99)
    a = isd_solve(inst, params)
    b = isd_solve(inst, params)
    assert a.found == b.found
    assert a.solution == b.solution
    assert a.outer_loops == b.outer_loops
    assert a.cmsd_calls == b.cmsd_calls
    assert a.tested_candidates == b.tested_candidates


def test_budget_exhaustion_reported():
    # w = 0 but s != 0 is unsolvable; the loop budget must end gracefully
    rng = random.Random(13)
    wf = WeightFunction.lee(3)
    base = generate_instance(3, 8, 4, 1, wf, rng)
    inst = SdInstance(q=3, n=8, k=4, w=Fraction(0), wf=wf, h=base.h, s=base.s)
    report = isd_solve(inst, IsdParams(variant="prange", max_outer_loops=17, rng_seed=0))
    assert not report.found
    assert report.outer_loops <= 17


def test_param_validation():
    rng = random.Random(14)
    wf = WeightFunction.lee(3)
    inst = generate_instance(3, 10, 5, 3, wf, rng)
    with pytest.raises(ValueError):
        isd_solve(inst, IsdParams(variant="prange", ell=1))
    with pytest.raises(ValueError):
        isd_solve(inst, IsdParams(variant="dumer", ell=9, p=1))
    with pytest.raises(ValueError):
        isd_solve(inst, IsdParams(variant="dumer", ell=2, p=5))
    with pytest.raises(ValueError):  # p is not a multiple of the lee table unit
        isd_solve(inst, IsdParams(variant="dumer", ell=2, p=Fraction(1, 2)))
    with pytest.raises(ValueError):
        IsdParams(variant="nope")


def test_isd_params_integer_fields():
    # a float used to run (max_outer_loops) or fail deep inside with a TypeError (a, ell)
    for name in ("ell", "a", "list_size_cap", "max_outer_loops", "rng_seed"):
        for bad in (2.5, True, "3", None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                IsdParams(variant="dumer", **{name: bad})
    # numpy integers pass and leave as Python ints, which random.Random needs from Python 3.12
    params = IsdParams(variant="dumer", ell=np.int64(2), p=1, rng_seed=np.int64(3))
    assert type(params.ell) is int and type(params.rng_seed) is int
    inst = generate_instance(3, 10, 5, 3, WeightFunction.lee(3), random.Random(14))
    assert isd_solve(inst, params).found


def test_list_size_cap_below_one_is_rejected():
    # wagner2 failed inside random.sample, dumer and wagner1 on a base list over the cap
    for cap in (0, -5):
        for variant in ("dumer", "wagner1", "wagner2"):
            with pytest.raises(ValueError, match="^list_size_cap must be at least 1, got"):
                IsdParams(variant=variant, ell=4, p=3, a=2, list_size_cap=cap)
    assert IsdParams(variant="wagner2", list_size_cap=1).list_size_cap == 1


def test_missing_budget_is_a_value_error():
    # p=None raised TypeError from the rational parser
    with pytest.raises(ValueError, match="rational weight"):
        IsdParams(variant="dumer", p=None)


def test_off_unit_budget_fails_alike_at_every_entry():
    # one check and one message, whether the budget reaches the solver or a back end
    wf = WeightFunction.from_json({"q": 5, "table": [0, 0.1, 0.3, 0.3, 0.1]})
    inst = generate_instance(5, 12, 6, "3/5", wf, random.Random(1))
    with pytest.raises(ValueError) as via_solve:
        isd_solve(inst, IsdParams(variant="dumer", ell=2, p=0.25, rng_seed=1))
    h2, s2 = np.array([[1, 2, 0, 1], [0, 1, 3, 4]]), np.array([1, 2])
    with pytest.raises(ValueError) as via_dumer:
        cmsd_dumer(h2, s2, wf, 0.25)
    assert via_solve.type is via_dumer.type is CmsdInfeasibleError
    assert str(via_solve.value) == str(via_dumer.value)
    assert str(via_solve.value) == "weight budget p=1/4 is not a multiple of the table unit 1/10"


def test_float_weights_parse_as_table_rationals():
    # a table given in tenths: every float weight must read as the same tenths
    wf = WeightFunction.from_json({"q": 5, "table": [0, 0.1, 0.3, 0.3, 0.1]})
    assert wf.scaled(0.3) == 3
    assert IsdParams(p=0.3).p == Fraction(3, 10)
    inst = generate_instance(5, 12, 6, "3/5", wf, random.Random(1))
    again = SdInstance(q=5, n=12, k=6, w=0.6, wf=wf, h=inst.h, s=inst.s, planted=inst.planted)
    assert again.w == Fraction(3, 5) and verify_solution(again, inst.planted)
    report = isd_solve(inst, IsdParams(variant="dumer", ell=2, p=0.3, rng_seed=1))
    assert report.found and verify_solution(inst, report.solution)
    h2, s2 = np.array([[1, 2, 0, 1], [0, 1, 3, 4]]), np.array([1, 2])
    assert cmsd_dumer(h2, s2, wf, 0.3).y == cmsd_dumer(h2, s2, wf, "3/10").y
    # a weight that is no rational at all is a ValueError, not an arithmetic error
    for bad in (float("inf"), float("-inf"), float("nan"), "1/0"):
        with pytest.raises(ValueError):
            WeightFunction(3, (0, bad, 1))
        with pytest.raises(ValueError):
            IsdParams(p=bad)


def test_report_serialization():
    rng = random.Random(15)
    wf = WeightFunction.hamming(3)
    inst = generate_instance(3, 12, 6, 3, wf, rng)
    report = isd_solve(inst, IsdParams(variant="prange", rng_seed=2))
    doc = report.to_dict()
    assert doc["found"] is True
    assert doc["solution"] == report.solution.tolist()
    json.dumps(doc)  # must be JSON-serializable as-is


# (variant, metric, n, k, w, ell, p, a, instance seed, solver seed) ->
# (outer_loops, tested_candidates, solution) of seeded q=3 solves: the order
# in which candidates are tried, and the count up to the hit, stay fixed
PINNED_SOLVES = (
    (
        ("prange", "hamming", 20, 10, 5, 0, 0, 1, 101, 5),
        (4, 4, [0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 2, 0]),
    ),
    (
        ("dumer", "lee", 30, 15, 7, 3, 2, 1, 106, 6),
        (2, 19, [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 2, 1, 0, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]),
    ),
    (
        ("wagner1", "lee", 28, 14, 7, 4, 4, 2, 103, 7),
        (2, 8, [1, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 2, 2, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ),
    (
        ("wagner2", "hamming", 28, 14, 8, 4, 3, 2, 104, 8),
        (1, 58, [0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 1, 2, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0]),
    ),
)


@pytest.mark.parametrize("case,expected", PINNED_SOLVES, ids=[c[0][0] for c in PINNED_SOLVES])
def test_solve_reports_pinned(case, expected):
    variant, metric, n, k, w, ell, p, a, inst_seed, solver_seed = case
    wf = getattr(WeightFunction, metric)(3)
    inst = generate_instance(3, n, k, w, wf, random.Random(inst_seed))
    rep = isd_solve(inst, IsdParams(variant=variant, ell=ell, p=p, a=a, rng_seed=solver_seed))
    assert (rep.outer_loops, rep.tested_candidates, rep.solution.tolist()) == expected
    assert rep.cmsd_calls == rep.outer_loops


# (variant, n, k, w, ell, p, a) of the solve_merge_tree benchmark: with lee and
# hamming and instance (= solver) seeds 0..3 these 24 solves take 152 loops in
# batches of up to 22, with 4 singular retries; the digest pins every report
PINNED_BENCHMARK_SHAPES = (
    ("dumer", 36, 18, 8, 4, 3, 1),
    ("wagner1", 32, 16, 8, 4, 4, 2),
    ("wagner2", 32, 16, 9, 4, 3, 2),
)


def test_solve_reports_pinned_on_the_benchmark_shapes():
    digest = hashlib.sha256()
    retries = 0
    for variant, n, k, w, ell, p, a in PINNED_BENCHMARK_SHAPES:
        for metric in ("lee", "hamming"):
            wf = getattr(WeightFunction, metric)(3)
            for seed in range(4):
                inst = generate_instance(3, n, k, w, wf, random.Random(seed))
                rep = isd_solve(inst, IsdParams(variant=variant, ell=ell, p=p, a=a, rng_seed=seed))
                doc = rep.to_dict()
                del doc["wall_stats"]["elapsed_s"]
                digest.update(json.dumps(doc, sort_keys=True).encode())
                retries += doc["wall_stats"]["singular_retries"]
    assert retries == 4
    assert digest.hexdigest()[:16] == "fec6ab37a3adb1fe"


# (n, k, w) of the solve_merge_tree benchmark -> sha256 prefix of (H, s, e)
# over q = 3, seeds 0..9, lee then hamming: every benchmark task and pinned
# report starts from generate_instance, so a change to what it draws shows here
PINNED_INSTANCES = (
    ((36, 18, 8), "4b74dfcedc08a46b"),
    ((32, 16, 8), "262f054541948822"),
    ((32, 16, 9), "1da700cc16687d41"),
)


@pytest.mark.parametrize("shape,expected", PINNED_INSTANCES)
def test_generated_instances_pinned(shape, expected):
    n, k, w = shape
    digest = hashlib.sha256()
    for seed in range(10):
        for metric in ("lee", "hamming"):
            wf = getattr(WeightFunction, metric)(3)
            inst = generate_instance(3, n, k, w, wf, random.Random(seed))
            for arr in (inst.h, inst.s, inst.planted):
                digest.update(np.asarray(arr, dtype="<i8").tobytes())
    assert digest.hexdigest()[:16] == expected


# tracemalloc bytes held per generated (36, 18, 8) instance at q = 3: about
# 1,520 with one byte per residue and 6,430 with eight; the bound lies between
HELD_BYTES_PER_INSTANCE = 3000


def test_held_instances_store_residues_narrow():
    wf = WeightFunction.lee(3)
    generate_instance(3, 36, 18, 8, wf, random.Random(0))  # the caches fill outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [generate_instance(3, 36, 18, 8, wf, random.Random(i)) for i in range(1, 201)]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(held) == 200 and grown <= 200 * HELD_BYTES_PER_INSTANCE, grown
