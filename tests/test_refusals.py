"""Every refusal of a bad input is one exception of a stated type with a one-line message."""

import random

import numpy as np
import pytest

from leeisd.cli import main
from leeisd.cmsd import cmsd_dumer, cmsd_wagner_v1, cmsd_wagner_v2_build, loop_plan
from leeisd.estimator import (
    AlgoPoint,
    CodeParams,
    InfeasibleParameterError,
    local_maxima_weights,
    optimize_point,
    work_factors,
)
from leeisd.fieldlin import FqMatrix, FqVector, Permutation, validate_modulus
from leeisd.isd import IsdParams, SdInstance, generate_instance, verify_solution
from leeisd.merge import DEFAULT_LIST_CAP, IndexedList, merge
from leeisd.weights import SphereEnumerator, WeightFunction

HAM3, LEE3 = WeightFunction.hamming(3), WeightFunction.lee(3)


def instance(n=4, k=2, h_rows=2, s_len=2, wf=HAM3, h=None, planted=None):
    h = np.zeros((h_rows, n), dtype=np.int64) if h is None else np.asarray(h)
    e = None if planted is None else FqVector(3, planted)
    return SdInstance(3, n, k, 1, wf, FqMatrix(3, h), FqVector(3, np.zeros(s_len, int)), e)


def pair():
    return IndexedList(3, [[0, 1], [1, 2]], [0, 1])


def stack():
    return IndexedList(3, [[0, 1], [1, 2]], [0, 1], loop=[0, 1])


def bottom_blocks(loops=2, ell=2, n=12):
    rng = np.random.default_rng(0)
    return rng.integers(0, 3, (loops, ell, n)), rng.integers(0, 3, (loops, ell))


def one_draw():
    return [loop_plan("wagner1", LEE3, 12, 2, 4, 2, DEFAULT_LIST_CAP).draw(random.Random(0))]


def plan_draws(a, loops=2, lazy_cap=None):
    """Draws of the wagner1 plan (wagner2's with lazy_cap) at level count a for a
    (loops, 4, 16) stack, weight 4."""
    rng = random.Random(0)
    variant = "wagner1" if lazy_cap is None else "wagner2"
    plan = loop_plan(variant, LEE3, 16, 4, 4, a, lazy_cap or DEFAULT_LIST_CAP)
    return [plan.draw(rng) for _ in range(loops)]


def bad_plan(**change):
    """The loop_plan call of a wagner1 signature (lee(3), n = 12, ell = 2, p = 4, a = 2) with
    change applied."""
    args = dict(variant="wagner1", wf=LEE3, n=12, ell=2, p=4, a=2, cap=DEFAULT_LIST_CAP)
    return lambda: loop_plan(**(args | change))


def dumer_desc():
    h2, s2 = bottom_blocks(1)
    return cmsd_dumer(h2[0], s2[0], LEE3, 2)


REFUSALS = [  # (label, call, exception type)
    ("SdInstance k = n", lambda: instance(k=4, h_rows=0, s_len=0), ValueError),
    ("SdInstance H of the wrong shape", lambda: instance(h_rows=3), ValueError),
    ("SdInstance short s", lambda: instance(s_len=1), ValueError),
    ("SdInstance table of another q", lambda: instance(wf=WeightFunction.lee(5)), ValueError),
    ("check_well_formed zero H", lambda: instance().check_well_formed(), ValueError),
    (
        "check_well_formed planted non-solution",
        lambda: instance(h=np.eye(2, 4, dtype=int), planted=[1, 0, 0, 0]).check_well_formed(),
        ValueError,
    ),
    ("IsdParams ell = -1", lambda: IsdParams(ell=-1), ValueError),
    ("IndexedList 1-D syndromes", lambda: IndexedList(3, [0, 1], [0, 1]), ValueError),
    ("IndexedList short backrefs", lambda: IndexedList(3, [[0], [1]], [0]), ValueError),
    ("IndexedList loop length", lambda: IndexedList(3, [[0], [1]], [0, 1], loop=[0]), ValueError),
    ("merge repeated J", lambda: merge(pair(), pair(), (0, 0), [0, 0]), ValueError),
    ("merge target length", lambda: merge(pair(), pair(), (0,), [0, 0, 0]), ValueError),
    ("merge stack with a list", lambda: merge(stack(), pair(), (0,), [[0, 0]] * 2), ValueError),
    ("match_range before sort_on", lambda: pair().match_range(0), ValueError),
    ("from_json of a list", lambda: WeightFunction.from_json("[1, 2]"), ValueError),
    ("from_spec unknown name", lambda: WeightFunction.from_spec(3, "taxicab"), ValueError),
    (
        "from_spec table of another q",
        lambda: WeightFunction.from_spec(3, {"q": 5, "table": [0, 1, 2, 2, 1]}),
        ValueError,
    ),
    ("unrank past the sphere", lambda: SphereEnumerator(LEE3, 3, 1).unrank(99), IndexError),
    ("validate_modulus 9", lambda: validate_modulus(9), ValueError),
    ("FqVector of a 2-D list", lambda: FqVector(3, [[0, 1]]), ValueError),
    ("Permutation repeats", lambda: Permutation([0, 0]), ValueError),
    ("evaluate_many at y", lambda: (d := dumer_desc()).evaluate_many([d.y]), IndexError),
    (
        "stack with too few LoopDraws",
        lambda: cmsd_wagner_v1(*bottom_blocks(), LEE3, 4, 2, draws=one_draw()),
        ValueError,
    ),
    (
        "wagner1 a = 2 with draws of a = 3",
        lambda: cmsd_wagner_v1(*bottom_blocks(ell=4, n=16), LEE3, 4, 2, draws=plan_draws(3)),
        ValueError,
    ),
    (
        "wagner2 with draws of wagner1",
        lambda: cmsd_wagner_v2_build(*bottom_blocks(ell=4, n=16), LEE3, 4, 2, draws=plan_draws(2)),
        ValueError,
    ),
    (
        "wagner1 a = 3 with draws of a = 2",
        lambda: cmsd_wagner_v1(*bottom_blocks(ell=4, n=16), LEE3, 4, 3, draws=plan_draws(2)),
        ValueError,
    ),
    (
        "wagner2 cap 1000 with draws of cap 20",
        lambda: cmsd_wagner_v2_build(
            *bottom_blocks(ell=4, n=16), LEE3, 4, 2, 1000, draws=plan_draws(2, lazy_cap=20)
        ),
        ValueError,
    ),
    (
        "wagner1 cap 1000 with draws of the default cap",
        lambda: cmsd_wagner_v1(*bottom_blocks(ell=4, n=16), LEE3, 4, 2, 1000, draws=plan_draws(2)),
        ValueError,
    ),
    ("loop_plan a = 0", bad_plan(a=0), ValueError),
    ("loop_plan variant wagner9", bad_plan(variant="wagner9"), ValueError),
    ("loop_plan ell = -2", bad_plan(ell=-2), ValueError),
    ("loop_plan ell = 20 > n = 12", bad_plan(ell=20), ValueError),
    ("loop_plan cap = 0", bad_plan(cap=0), ValueError),
    ("weight budget -1", lambda: cmsd_dumer(*bottom_blocks(), LEE3, -1), ValueError),
    ("level count 0", lambda: cmsd_wagner_v1(*bottom_blocks(), LEE3, 4, 0), ValueError),
    ("CodeParams rate 1.5", lambda: CodeParams(LEE3, 1.5, 0.5), ValueError),
    (
        "work_factors L past 1 - R",
        lambda: work_factors(CodeParams(LEE3, 0.5, 0.5), "classical", AlgoPoint(0.9, 0.0, 1)),
        InfeasibleParameterError,
    ),
    (
        "optimize_point model",
        lambda: optimize_point(CodeParams(LEE3, 0.5, 0.5), "qubit"),
        ValueError,
    ),
    (
        "optimize_point algorithm",
        lambda: optimize_point(CodeParams(LEE3, 0.5, 0.5), "classical", "bjmm"),
        ValueError,
    ),
    ("local_maxima_weights rate 0", lambda: local_maxima_weights(LEE3, 0.0), ValueError),
]

CLI_REFUSALS = [  # argv; each exits 2 with one line on stderr
    ("sphere", "--q", "3", "--exact"),
    ("solve", "{tmp}/missing.json"),
    ("sphere", "--q", "3", "--weight", "{tmp}/missing.json", "--omega", "0.5"),
]


def test_every_refusal_is_one_typed_line(tmp_path, capsys):
    for label, call, exc in REFUSALS:
        with pytest.raises(exc) as err:
            call()
        assert type(err.value) is exc, label
        msg = str(err.value)
        assert msg and "\n" not in msg, (label, msg)
    for argv in CLI_REFUSALS:
        code = main([a.format(tmp=tmp_path) for a in argv])
        out = capsys.readouterr()
        assert code == 2 and not out.out, argv
        assert out.err.startswith("error: ") and out.err.count("\n") == 1, (argv, out.err)


def test_verify_solution_refuses_a_vector_of_another_length_or_field():
    inst = generate_instance(3, 10, 5, 3, LEE3, random.Random(2))
    assert verify_solution(inst, inst.planted)
    assert not verify_solution(inst, FqVector(3, inst.planted.values[:-1]))
    assert not verify_solution(inst, FqVector(5, inst.planted.values))
