"""The benchmark's per-layer tracer must still find every name it wraps."""

import importlib.util
from pathlib import Path

import numpy as np

import leeisd.cmsd as cmsd
import leeisd.isd as isd
from leeisd.cmsd import CmsdDescription
from leeisd.weights import WeightFunction

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores():
    mod = load_tracer()
    evaluate, solve = CmsdDescription.evaluate, isd.isd_solve
    tracer = mod.Tracer()
    try:
        mod.install(tracer)
        assert CmsdDescription.evaluate is not evaluate and isd.isd_solve is not solve
    finally:
        tracer.restore()
    assert CmsdDescription.evaluate is evaluate and isd.isd_solve is solve


def test_each_public_build_is_one_build_span():
    # a public builder that called another public builder would count twice
    mod = load_tracer()
    tracer = mod.Tracer()
    wf = WeightFunction.lee(3)
    h2 = np.array([[1, 0, 2, 1, 0, 1, 2, 2], [0, 1, 1, 2, 2, 0, 1, 0]])
    s2 = np.array([1, 2])
    builds = (
        lambda: cmsd.cmsd_dumer(h2, s2, wf, 2),
        lambda: cmsd.cmsd_wagner_v1(h2, s2, wf, 4, a=2),
    )
    try:
        mod.install(tracer)
        for build in builds:
            before = len(tracer.name)
            build()
            names = [tracer.names[i] for i in tracer.name[before:]]
            assert names.count("cmsd.build") == 1, names
    finally:
        tracer.restore()
