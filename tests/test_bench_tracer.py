"""The benchmark's per-layer tracer must still find every name it wraps."""

import importlib.util
from pathlib import Path

import leeisd.isd as isd
from leeisd.cmsd import CmsdDescription

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
