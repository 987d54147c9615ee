"""The records keep the behaviour they had as dataclasses, pinned value by value.

For every exported record: the constructor's positional order, keywords
and defaults; every check with its message; which fields are read-only;
the repr, character for character; and equality and hashing (by value,
by identity, or unhashable).  The expected values were taken from the
dataclass versions.  No leeisd class is a dataclass any more.
"""

import copy
import dataclasses
import importlib
import inspect
import json
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import leeisd
from leeisd import cli
from leeisd.cmsd import CmsdDescription, LoopDraws, LoopPlan, cmsd_prange, loop_plan
from leeisd.estimator import (
    AlgoPoint,
    CodeParams,
    HardestResult,
    SweepRow,
    WorkFactors,
    work_factors,
)
from leeisd.fieldlin import FqMatrix, FqVector, PartialEchelon, Permutation, partial_gaussian_elim
from leeisd.isd import IsdParams, SdInstance, SolveReport
from leeisd.merge import DEFAULT_LIST_CAP, IndexedList
from leeisd.weights import EntropyProfile, WeightFunction

H3, L5 = WeightFunction.hamming(3), WeightFunction.lee(5)
REQ = inspect.Parameter.empty


def instance(**change):
    fields = dict(
        q=3, n=3, k=1, w=1, wf=H3, h=FqMatrix(3, [[1, 0, 2], [0, 1, 1]]),
        s=FqVector(3, [1, 0]), planted=FqVector(3, [1, 0, 0]),
    )
    return SdInstance(**{**fields, **change})


def point():
    return AlgoPoint(0.125, 0.0625, 2)


def factors(total_q=0.1):
    return WorkFactors(0.5, 0.25, 0.0, 0.125, 0.0625, 1.0, 0.75, total_q, 0.2, point())


def prange_description():
    return cmsd_prange(np.zeros((0, 3), np.int64), np.zeros(0, np.int64), H3, 0)


SIGNATURES = {  # parameter names and defaults, every one positional-or-keyword
    FqVector: [("q", REQ), ("values", REQ)],
    FqMatrix: [("q", REQ), ("values", REQ)],
    Permutation: [("images", REQ)],
    PartialEchelon: [(f, REQ) for f in ("h_prime", "h_second", "s_prime", "s_second", "singular")],
    WeightFunction: [("q", REQ), ("table", REQ), ("name", "custom")],
    EntropyProfile: [("lam", REQ), ("s", REQ), ("beta", REQ)],
    IndexedList: [("q", REQ), ("syndromes", REQ), ("backrefs", REQ), ("loop", None)],
    CmsdDescription: [
        ("y", REQ), ("meta", REQ), ("root", REQ), ("dom", REQ), ("starts", REQ), ("overflow", None),
    ],
    LoopDraws: [("targets", REQ), ("leaf_ranks", REQ), ("plan", REQ)],
    LoopPlan: [
        ("key", REQ), ("layouts", ()), ("j_groups", ()), ("rows", 0), ("expected", None),
        ("infeasible", None),
    ],
    SdInstance: [(f, REQ) for f in ("q", "n", "k", "w", "wf", "h", "s")] + [("planted", None)],
    IsdParams: [
        ("variant", "prange"), ("ell", 0), ("p", Fraction(0)), ("a", 1),
        ("list_size_cap", DEFAULT_LIST_CAP), ("max_outer_loops", 10_000), ("rng_seed", 0),
    ],
    # the dataclass default was a factory of a new dict; None now stands for it
    SolveReport: [
        ("solution", REQ), ("outer_loops", REQ), ("cmsd_calls", REQ), ("tested_candidates", REQ),
        ("wall_stats", None),
    ],
    CodeParams: [("wf", REQ), ("rate", REQ), ("omega", REQ)],
    AlgoPoint: [("L", REQ), ("P", REQ), ("a", REQ)],
    WorkFactors: [
        (f, REQ)
        for f in ("pi1", "zeta", "tau", "y", "u", "x", "s_omega0", "total_q", "total_bin", "point")
    ],
    HardestResult: [(f, REQ) for f in ("rate", "omega", "alpha", "alpha_hat", "factors")],
    SweepRow: [(f, REQ) for f in ("omega", "omega_normalized", "model", "algorithm", "factors")],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_constructor_order_keywords_and_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_solve_report_gets_a_new_dict_by_default():
    a, b = SolveReport(None, 0, 0, 0), SolveReport(None, 0, 0, 0)
    assert a.wall_stats == {} and a.wall_stats is not b.wall_stats


REPRS = {
    "FqVector": (
        lambda: FqVector(257, [256, 3]), "FqVector(q=257, _stored=array([256,   3], dtype=uint16))"
    ),
    "FqMatrix": (
        lambda: FqMatrix(3, [[2, 0], [1, 1]]),
        "FqMatrix(q=3, _stored=array([[2, 0],\n       [1, 1]], dtype=uint8))",
    ),
    "Permutation": (lambda: Permutation([2, 0, 1]), "Permutation(images=array([2, 0, 1]))"),
    "PartialEchelon": (
        lambda: partial_gaussian_elim(np.array([[1, 2, 0], [0, 1, 1]]), 1, np.array([1, 2]), 3),
        "PartialEchelon(h_prime=array([[2, 0]]), h_second=array([[1, 1]]), s_prime=array([1]),"
        " s_second=array([2]), singular=array(False))",
    ),
    "WeightFunction": (
        lambda: WeightFunction(3, (0, 1, "1/2"), "half"),
        "WeightFunction(q=3, table=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 2)), name='half')",
    ),
    "EntropyProfile": (
        lambda: EntropyProfile([0.5, 0.25, 0.25], 0.75, -1.5),
        "EntropyProfile(lam=array([0.5 , 0.25, 0.25]), s=0.75, beta=-1.5)",
    ),
    "IndexedList": (
        lambda: IndexedList(3, [[0, 1], [1, 2]], [0, 1], loop=[0, 1]),
        "IndexedList(q=3, syndromes=array([[0, 1],\n       [1, 2]]), backrefs=array([0, 1]),"
        " loop=array([0, 1]), loop_end=2)",
    ),
    "CmsdDescription": (
        prange_description,
        "CmsdDescription(y=1, meta={'variant': 'prange', 'expected_solutions': 1.0},"
        " starts=array([0, 1]), overflow=None)",
    ),
    "LoopDraws": (
        lambda: LoopDraws([1, 2], (None, [0, 3]), ("wagner1",)),
        "LoopDraws(targets=[1, 2], leaf_ranks=(None, [0, 3]), plan=('wagner1',))",
    ),
    "LoopPlan": (
        lambda: LoopPlan(("prange",), expected=1.0),
        "LoopPlan(key=('prange',), layouts=(), j_groups=(), rows=0, expected=1.0, infeasible=None)",
    ),
    "SdInstance": (
        instance,
        "SdInstance(q=3, n=3, k=1, w=Fraction(1, 1), wf=WeightFunction(q=3, table=(Fraction(0, 1),"
        " Fraction(1, 1), Fraction(1, 1)), name='hamming'), h=FqMatrix(q=3, _stored=array([[1, 0,"
        " 2],\n       [0, 1, 1]], dtype=uint8)), s=FqVector(q=3, _stored=array([1, 0],"
        " dtype=uint8)), planted=FqVector(q=3, _stored=array([1, 0, 0], dtype=uint8)))",
    ),
    "IsdParams": (
        lambda: IsdParams("wagner2", 2, "1/2", 2, 100, 5, 7),
        "IsdParams(variant='wagner2', ell=2, p=Fraction(1, 2), a=2, list_size_cap=100,"
        " max_outer_loops=5, rng_seed=7)",
    ),
    "SolveReport": (
        lambda: SolveReport(FqVector(3, [1, 0]), 1, 2, 3, {"total_s": 0.5}),
        "SolveReport(solution=FqVector(q=3, _stored=array([1, 0], dtype=uint8)), outer_loops=1,"
        " cmsd_calls=2, tested_candidates=3, wall_stats={'total_s': 0.5})",
    ),
    "CodeParams": (
        lambda: CodeParams(L5, 0.5, 0.25),
        "CodeParams(wf=WeightFunction(q=5, table=(Fraction(0, 1), Fraction(1, 1), Fraction(2, 1),"
        " Fraction(2, 1), Fraction(1, 1)), name='lee'), rate=0.5, omega=0.25)",
    ),
    "AlgoPoint": (point, "AlgoPoint(L=0.125, P=0.0625, a=2)"),
    "WorkFactors": (
        factors,
        "WorkFactors(pi1=0.5, zeta=0.25, tau=0.0, y=0.125, u=0.0625, x=1.0, s_omega0=0.75,"
        " total_q=0.1, total_bin=0.2, point=AlgoPoint(L=0.125, P=0.0625, a=2))",
    ),
    "HardestResult": (
        lambda: HardestResult(0.5, 0.25, 0.2, 0.1, factors()),
        "HardestResult(rate=0.5, omega=0.25, alpha=0.2, alpha_hat=0.1, factors=WorkFactors(pi1=0.5,"
        " zeta=0.25, tau=0.0, y=0.125, u=0.0625, x=1.0, s_omega0=0.75, total_q=0.1, total_bin=0.2,"
        " point=AlgoPoint(L=0.125, P=0.0625, a=2)))",
    ),
    "SweepRow": (
        lambda: SweepRow(0.25, 0.125, "classical", "prange", None),
        "SweepRow(omega=0.25, omega_normalized=0.125, model='classical', algorithm='prange',"
        " factors=None)",
    ),
}


@pytest.mark.parametrize("make,want", REPRS.values(), ids=REPRS.keys())
def test_repr(make, want):
    assert repr(make()) == want


BY_VALUE = {  # two calls that build equal records, and one that builds a different one
    "WeightFunction": (lambda: WeightFunction(3, (0, 1, 1), "hamming"), lambda: L5),
    "IsdParams": (lambda: IsdParams("dumer", 2, 1), IsdParams),
    "CodeParams": (lambda: CodeParams(L5, 0.5, 0.25), lambda: CodeParams(L5, 0.5, 0.5)),
    "AlgoPoint": (point, lambda: AlgoPoint(0.125, 0.0625, 3)),
    "WorkFactors": (factors, lambda: factors(0.3)),
    "HardestResult": (
        lambda: HardestResult(0.5, 0.25, 0.2, 0.1, factors()),
        lambda: HardestResult(0.5, 0.25, 0.2, 0.1, factors(0.3)),
    ),
    "SweepRow": (
        lambda: SweepRow(0.25, 0.125, "classical", "prange", factors()),
        lambda: SweepRow(0.25, 0.125, "quantum", "prange", factors()),
    ),
}


@pytest.mark.parametrize("make,other", BY_VALUE.values(), ids=BY_VALUE.keys())
def test_equality_and_hash_by_value(make, other):
    a, b, c = make(), make(), other()
    assert a is not b and a == b and not a != b and a != c
    fields = tuple(getattr(a, name) for name, _ in SIGNATURES[type(a)])
    assert hash(a) == hash(b) == hash(fields)
    assert a.__eq__(fields) is NotImplemented  # only a record of the same type is equal


BY_IDENTITY = {
    "PartialEchelon": REPRS["PartialEchelon"][0],
    "EntropyProfile": REPRS["EntropyProfile"][0],
    "IndexedList": REPRS["IndexedList"][0],
    "CmsdDescription": prange_description,
    "LoopDraws": REPRS["LoopDraws"][0],
    "LoopPlan": REPRS["LoopPlan"][0],
    "SdInstance": instance,
    "SolveReport": REPRS["SolveReport"][0],
}


@pytest.mark.parametrize("make", BY_IDENTITY.values(), ids=BY_IDENTITY.keys())
def test_equality_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("make", [REPRS[k][0] for k in ("FqVector", "FqMatrix", "Permutation")])
def test_arrays_compare_by_value_and_are_unhashable(make):
    assert make() == make()
    with pytest.raises(TypeError, match="unhashable"):
        hash(make())


FROZEN = [k for k in REPRS if k not in ("CmsdDescription", "SolveReport")]


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_refuse_assignment_and_deletion(name):
    value = REPRS[name][0]()
    frozen = dataclasses.FrozenInstanceError
    fields = [f for f, _ in SIGNATURES[type(value)]]
    for field in ["q"] if isinstance(value, (FqVector, FqMatrix)) else fields:
        with pytest.raises(frozen, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(frozen, match=f"cannot delete field '{field}'"):
            delattr(value, field)


@pytest.mark.parametrize("make", [prange_description, REPRS["SolveReport"][0]])
def test_descriptions_and_reports_stay_mutable(make):
    value = make()
    for name, _ in SIGNATURES[type(value)]:
        setattr(value, name, None)
        assert getattr(value, name) is None


def test_entropy_profile_keeps_a_read_only_float_copy():
    lam = [1, 0]
    prof = EntropyProfile(lam, 0.0, 1.0)
    assert prof.lam.dtype == np.float64 and not prof.lam.flags.writeable
    assert prof.lam.tolist() == [1.0, 0.0] and isinstance(prof.lam, np.ndarray)


def test_constructors_coerce_their_fields():
    inst = instance(n=np.int64(3), k=np.int64(1), w="1")
    assert (type(inst.n), type(inst.k), inst.w) == (int, int, Fraction(1))
    ints = [np.int64(v) for v in (2, 1, 9, 3, 4)]
    params = IsdParams("dumer", ints[0], 0.5, *ints[1:])
    assert params == IsdParams("dumer", 2, Fraction(1, 2), 1, 9, 3, 4)
    assert {type(getattr(params, f)) for f, _ in SIGNATURES[IsdParams][1:]} - {Fraction} == {int}
    wf = WeightFunction(np.int64(3), [0, 1, 1.0])
    assert type(wf.q) is int and wf.table == (Fraction(0), Fraction(1), Fraction(1))
    lst = IndexedList(np.int64(3), [[1]], [0], loop=[0])
    assert type(lst.q) is int and lst.syndromes.dtype == lst.loop.dtype == np.int64


def instance_with(**change):
    return lambda: instance(**{"planted": None, **change})


CHECKS = [  # (label, call, the message of its ValueError)
    ("FqVector q 'a'", lambda: FqVector("a", [0]), "modulus must be an integer, got str"),
    ("FqVector q True", lambda: FqVector(True, [0]), "modulus must be an integer, got bool"),
    ("FqMatrix q True", lambda: FqMatrix(True, [[0]]), "modulus must be an integer, got bool"),
    (
        "WeightFunction q True",
        lambda: WeightFunction(True, (0,)),
        "modulus must be an integer, got bool",
    ),
    (
        "FqVector q 2^16 + 1",
        lambda: FqVector(65537, [0]),
        "modulus 65537 too large (must be < 2**16)",
    ),
    ("FqVector q 4", lambda: FqVector(4, [0]), "modulus 4 is not prime"),
    ("FqVector floats", lambda: FqVector(3, [0.0]), "entries must be integers, not float64 values"),
    ("FqVector bool", lambda: FqVector(3, [1, True]), "entries must be integers, not bool values"),
    ("FqVector 2-D", lambda: FqVector(3, [[0, 1]]), "vector must be one-dimensional"),
    ("FqVector entry q", lambda: FqVector(3, [0, 3]), "entries must lie in [0, 3)"),
    ("FqVector entry -1", lambda: FqVector(3, [-1]), "entries must lie in [0, 3)"),
    ("FqMatrix 3-D", lambda: FqMatrix(3, [[[0]]]), "matrix must be two-dimensional"),
    ("Permutation repeats", lambda: Permutation([0, 0]), "images must be a permutation of 0..n-1"),
    ("Permutation 2-D", lambda: Permutation([[0]]), "images must be a permutation of 0..n-1"),
    (
        "Permutation floats",
        lambda: Permutation([0.0]),
        "entries must be integers, not float64 values",
    ),
    ("WeightFunction q 6", lambda: WeightFunction(6, (0, 1, 2, 3, 2, 1)), "modulus 6 is not prime"),
    (
        "WeightFunction short",
        lambda: WeightFunction(3, (0, 1)),
        "table must have exactly q=3 entries",
    ),
    (
        "WeightFunction wt(0)",
        lambda: WeightFunction(3, (1, 1, 1)),
        "weight of the zero symbol must be 0",
    ),
    (
        "WeightFunction negative",
        lambda: WeightFunction(3, (0, -1, 1)),
        "weights must be nonnegative",
    ),
    (
        "WeightFunction all zero",
        lambda: WeightFunction(3, (0, 0, 0)),
        "at least one symbol must have positive weight",
    ),
    (
        "WeightFunction spread",
        lambda: WeightFunction(3, (0, 1, 10**19)),
        "top weight exceeds 1e+18 times the smallest weight gap",
    ),
    (
        "WeightFunction None",
        lambda: WeightFunction(3, (0, None, 1)),
        "cannot interpret None as a rational weight",
    ),
    (
        "WeightFunction inf",
        lambda: WeightFunction(3, (0, float("inf"), 1)),
        "weight inf is not a finite rational",
    ),
    ("IndexedList q 1.0", lambda: IndexedList(1.0, [[0]], [0]), "q must be an integer, not 1.0"),
    ("IndexedList q 1", lambda: IndexedList(1, [[0]], [0]), "q must be at least 2, not 1"),
    ("IndexedList 1-D", lambda: IndexedList(3, [0, 1], [0, 1]), "syndromes must be a 2-D array"),
    (
        "IndexedList entry 3",
        lambda: IndexedList(3, [[3]], [0]),
        "syndrome entries must lie in [0, 3)",
    ),
    (
        "IndexedList entry -1",
        lambda: IndexedList(3, [[-1]], [0]),
        "syndrome entries must lie in [0, 3)",
    ),
    (
        "IndexedList short backrefs",
        lambda: IndexedList(3, [[0], [1]], [0]),
        "backrefs length must match syndrome count",
    ),
    (
        "IndexedList loop length",
        lambda: IndexedList(3, [[0], [1]], [0, 1], loop=[0]),
        "loop ids must be one per entry",
    ),
    *[
        (
            f"SdInstance {name} of an array",
            instance_with(**{name: np.zeros(shape, int)}),
            "h must be an FqMatrix, and s and planted FqVectors or None",
        )
        for name, shape in (("h", (2, 3)), ("s", 2), ("planted", 3))
    ],
    ("SdInstance n 3.0", instance_with(n=3.0), "n must be an integer, not 3.0"),
    ("SdInstance k True", instance_with(k=True), "k must be an integer, not True"),
    ("SdInstance w 'x'", instance_with(w="x"), "Invalid literal for Fraction: 'x'"),
    ("SdInstance w nan", instance_with(w=float("nan")), "weight nan is not a finite rational"),
    ("SdInstance k = n", instance_with(k=3), "need 0 < k < n"),
    ("SdInstance n = 4", instance_with(n=4, k=2), "H must be (n-k) x n"),
    ("SdInstance s of 3", instance_with(s=FqVector(3, [0, 0, 0])), "syndrome must have length n-k"),
    ("SdInstance q 5", instance_with(q=5), "modulus mismatch within instance"),
    ("SdInstance lee(5)", instance_with(wf=L5), "modulus mismatch within instance"),
    (
        "SdInstance planted of 2",
        instance_with(planted=FqVector(3, [0, 0])),
        "planted solution must have length n and modulus q",
    ),
    (
        "SdInstance planted over F_5",
        instance_with(planted=FqVector(5, [0, 0, 0])),
        "planted solution must have length n and modulus q",
    ),
    (
        "IsdParams variant",
        lambda: IsdParams("stern"),
        "variant must be one of ('prange', 'dumer', 'wagner1', 'wagner2')",
    ),
    ("IsdParams p 'x'", lambda: IsdParams(p="x"), "Invalid literal for Fraction: 'x'"),
    ("IsdParams p nan", lambda: IsdParams(p=float("nan")), "weight nan is not a finite rational"),
    (
        "loop_plan p nan",
        lambda: loop_plan("wagner1", H3, 12, 2, float("nan"), 2, DEFAULT_LIST_CAP),
        "weight nan is not a finite rational",
    ),
    ("IsdParams ell 1.5", lambda: IsdParams(ell=1.5), "ell must be an integer, not 1.5"),
    ("IsdParams a True", lambda: IsdParams(a=True), "a must be an integer, not True"),
    (
        "IsdParams cap '9'",
        lambda: IsdParams(list_size_cap="9"),
        "list_size_cap must be an integer, not '9'",
    ),
    (
        "IsdParams loops None",
        lambda: IsdParams(max_outer_loops=None),
        "max_outer_loops must be an integer, not None",
    ),
    ("IsdParams seed 0.0", lambda: IsdParams(rng_seed=0.0), "rng_seed must be an integer, not 0.0"),
    ("IsdParams ell -1", lambda: IsdParams(ell=-1), "invalid parameter ranges"),
    ("IsdParams a 0", lambda: IsdParams(a=0), "invalid parameter ranges"),
    ("IsdParams loops 0", lambda: IsdParams(max_outer_loops=0), "invalid parameter ranges"),
    (
        "IsdParams cap 0",
        lambda: IsdParams(list_size_cap=0),
        "list_size_cap must be at least 1, got 0",
    ),
    ("CodeParams rate 0", lambda: CodeParams(L5, 0.0, 0.5), "rate must lie in (0, 1)"),
    ("CodeParams rate 1", lambda: CodeParams(L5, 1.0, 0.5), "rate must lie in (0, 1)"),
    (
        "CodeParams omega -0.1",
        lambda: CodeParams(L5, 0.5, -0.1),
        "omega outside the reachable weight range",
    ),
    (
        "CodeParams omega 2.1",
        lambda: CodeParams(L5, 0.5, 2.1),
        "omega outside the reachable weight range",
    ),
    (
        "AlgoPoint a 2.0",
        lambda: AlgoPoint(0.1, 0.1, 2.0),
        "level count a must be an integer, not 2.0",
    ),
    (
        "AlgoPoint a True",
        lambda: AlgoPoint(0.1, 0.1, True),
        "level count a must be an integer, not True",
    ),
    ("AlgoPoint a 0", lambda: AlgoPoint(0.1, 0.1, 0), "level count a must lie in [1, 64], not 0"),
    (
        "AlgoPoint a 65",
        lambda: AlgoPoint(0.1, 0.1, 65),
        "level count a must lie in [1, 64], not 65",
    ),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_checks_and_their_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_no_leeisd_class_is_a_dataclass():
    names = [m.name for m in pkgutil.iter_modules(leeisd.__path__) if m.name != "__main__"]
    assert len(names) == 8  # __main__ runs the command line on import and defines no class
    seen = 0
    for name in names:
        module = importlib.import_module(f"leeisd.{name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                assert not dataclasses.is_dataclass(obj), obj.__qualname__
                seen += 1
    assert seen >= 20


def test_a_numpy_level_count_reads_as_an_int():
    # a kept np.int64 showed in the repr and broke the JSON document
    pt = AlgoPoint(0.05, 0.05, np.int64(2))
    assert type(pt.a) is int and repr(pt) == "AlgoPoint(L=0.05, P=0.05, a=2)"
    doc = cli._factors_doc(work_factors(CodeParams(L5, 0.5, 0.3), "classical", pt))
    assert json.loads(json.dumps(doc))["a"] == 2


def test_records_rebuild_through_their_constructor_on_every_copy():
    # pickle, deepcopy and copy all call the checked __init__ again
    params = IsdParams("wagner2", 4, "1/2", 3, 99, 5, 6)
    values = [H3, L5, params, CodeParams(L5, 0.5, 0.3), point(), factors()]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
    inst = instance()
    for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), copy.copy(inst)):
        assert type(twin) is SdInstance and twin != inst  # compared by identity
        for name in SdInstance._fields:
            assert getattr(twin, name) == getattr(inst, name), name
