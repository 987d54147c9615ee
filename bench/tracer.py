"""Outside-in tracer for the leeisd layers.

The library stays untouched: each public function is replaced, for the
duration of a traced run, at the name its caller actually looks up (a
module global such as ``leeisd.isd.partial_gaussian_elim`` or a class
attribute such as ``CmsdDescription.evaluate``).  Every call records one
span (name, parent span, task id, start, end, whether it raised) in flat
arrays kept in memory; counters that need the call's arguments or result
are bumped by small hooks.  Self time is derived from the spans afterwards.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.task = array("q")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.raised = array("b")
        self.counters: Counter = Counter()
        self.task_id = -1
        self.on = True
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def wrap(self, owner, attr: str, span: str, hook=None) -> None:
        """Replace owner.attr by a recording wrapper.

        hook(tracer, args, kwargs, result), when given, runs after the call
        returns, outside the span.
        """
        raw = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)  # bound for classmethods
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return target(*args, **kwargs)
            sid = len(self.t0)
            self.parent.append(stack[-1] if stack else -1)
            self.task.append(self.task_id)
            self.name.append(nid)
            self.t0.append(0.0)
            self.t1.append(0.0)
            self.raised.append(0)
            stack.append(sid)
            start = clock()
            try:
                result = target(*args, **kwargs)
            except BaseException:
                self.raised[sid] = 1
                raise
            finally:
                end = clock()
                stack.pop()
                self.t0[sid] = start
                self.t1[sid] = end
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(traced) if isinstance(raw, classmethod) else traced)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = t1 - t0
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "task": np.frombuffer(self.task, dtype=np.int64),
            "t0": t0,
            "t1": t1,
            "raised": np.frombuffer(self.raised, dtype=np.int8),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        """Write every span (and the name table) as one compressed npz file."""
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("name", "parent", "task", "t0", "t1", "raised")},
        )


# -- the leeisd layer map --------------------------------------------------


def _count_points(tr, args, kwargs, result):
    tr.counters["entropy_points"] += int(np.size(result))


def _count_zero_eval(tr, args, kwargs, result):
    if not result.any():
        tr.counters["zero_evals"] += 1


def _count_build(tr, args, kwargs, desc):
    tr.counters["size_over_expected_sum"] += desc.y / desc.meta["expected_solutions"]


def _count_merge(tr, args, kwargs, out):
    tr.counters["merge_in"] += len(args[0]) + len(args[1])
    tr.counters["merge_out"] += len(out)


def _count_solve(tr, args, kwargs, rep):
    tr.counters["loops"] += rep.outer_loops
    tr.counters["candidates"] += rep.tested_candidates
    tr.counters["hits"] += int(rep.found)


def install(tracer: Tracer) -> None:
    """Wrap every public entry point of the six layers at its call site."""
    import leeisd.cmsd as cmsd
    import leeisd.estimator as estimator
    import leeisd.isd as isd
    from leeisd.cmsd import CmsdDescription
    from leeisd.fieldlin import Permutation
    from leeisd.merge import IndexedList
    from leeisd.weights import SphereEnumerator

    w = tracer.wrap
    # fieldlin, as the ISD loop looks it up
    w(isd, "partial_gaussian_elim", "fieldlin.partial_gaussian_elim")
    w(isd, "apply_permutation", "fieldlin.apply_permutation")
    w(Permutation, "random", "fieldlin.Permutation.random")
    # weights, from each calling module
    w(estimator, "sphere_exponent_many", "weights.sphere_exponent_many", _count_points)
    w(cmsd, "sphere_exponent_many", "weights.sphere_exponent_many", _count_points)
    w(SphereEnumerator, "all_vectors", "weights.SphereEnumerator.all_vectors")
    w(SphereEnumerator, "unrank", "weights.SphereEnumerator.unrank")
    w(isd, "vector_weight", "weights.vector_weight")
    w(cmsd, "vector_weight", "weights.vector_weight")
    w(isd, "sphere_count_exact", "weights.sphere_count_exact")
    # merge, as the back ends look it up
    w(cmsd, "merge", "merge.merge", _count_merge)
    w(IndexedList, "match_range", "merge.IndexedList.match_range")
    # cmsd back ends, looked up as cmsd.<name> by the ISD loop
    for fn in ("cmsd_prange", "cmsd_dumer", "cmsd_wagner_v1", "cmsd_wagner_v2_build"):
        w(cmsd, fn, "cmsd.build", _count_build)
    w(CmsdDescription, "evaluate", "cmsd.CmsdDescription.evaluate", _count_zero_eval)
    # estimator: hardest_instance calls both helpers through module globals
    w(estimator, "hardest_instance", "estimator.hardest_instance")
    w(estimator, "optimize_point", "estimator.optimize_point")
    w(estimator, "local_maxima_weights", "estimator.local_maxima_weights")
    # isd: the benchmark calls these through the module
    w(isd, "generate_instance", "isd.generate_instance")
    w(isd, "isd_solve", "isd.isd_solve", _count_solve)


# Per-layer metrics: (name, unit, better).  README.md maps each one to the
# end-to-end metric and workload it should move.
LAYER_METRICS = (
    ("fieldlin.elim_s", "s", "lower"),
    ("fieldlin.elim_calls", "count", "lower"),
    ("fieldlin.singular_ratio", "ratio", "lower"),
    ("fieldlin.permute_s", "s", "lower"),
    ("cmsd.build_s", "s", "lower"),
    ("cmsd.build_calls", "count", "lower"),
    ("cmsd.eval_s", "s", "lower"),
    ("cmsd.eval_calls", "count", "lower"),
    ("cmsd.zero_eval_ratio", "ratio", "lower"),
    ("cmsd.size_over_expected", "ratio", "higher"),
    ("merge.merge_s", "s", "lower"),
    ("merge.merge_calls", "count", "lower"),
    ("merge.in_entries", "count", "lower"),
    ("merge.out_entries", "count", "lower"),
    ("merge.match_range_calls", "count", "lower"),
    ("weights.entropy_s", "s", "lower"),
    ("weights.entropy_calls", "count", "lower"),
    ("weights.entropy_points", "count", "lower"),
    ("weights.enum_s", "s", "lower"),
    ("weights.unrank_calls", "count", "lower"),
    ("weights.vector_weight_s", "s", "lower"),
    ("weights.vector_weight_calls", "count", "lower"),
    ("weights.sphere_count_s", "s", "lower"),
    ("estimator.optimize_point_s", "s", "lower"),
    ("estimator.optimize_point_calls", "count", "lower"),
    ("estimator.maxima_s", "s", "lower"),
    ("estimator.self_s", "s", "lower"),
    ("isd.solve_s", "s", "lower"),
    ("isd.self_s", "s", "lower"),
    ("isd.generate_s", "s", "lower"),
    ("isd.loops", "count", "lower"),
    ("isd.candidates", "count", "higher"),
    ("isd.hit_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
)


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Aggregate the spans and counters into the LAYER_METRICS values.

    A ``_s`` metric is the inclusive time of the named calls; ``self_s``
    excludes time spent in traced callees.
    """
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(*names):
        mask = np.zeros(len(a["dur"]), dtype=bool)
        for n in names:
            if n in ids:
                mask |= a["name"] == ids[n]
        return mask

    def total(*names, col="dur"):
        return float(a[col][sel(*names)].sum())

    def calls(*names):
        return int(sel(*names).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counters
    elim = sel("fieldlin.partial_gaussian_elim")
    builds = calls("cmsd.build")
    evals = calls("cmsd.CmsdDescription.evaluate")
    return {
        "fieldlin.elim_s": total("fieldlin.partial_gaussian_elim"),
        "fieldlin.elim_calls": int(elim.sum()),
        "fieldlin.singular_ratio": ratio(int(a["raised"][elim].sum()), int(elim.sum())),
        "fieldlin.permute_s": total("fieldlin.apply_permutation", "fieldlin.Permutation.random"),
        "cmsd.build_s": total("cmsd.build"),
        "cmsd.build_calls": builds,
        "cmsd.eval_s": total("cmsd.CmsdDescription.evaluate"),
        "cmsd.eval_calls": evals,
        "cmsd.zero_eval_ratio": ratio(c["zero_evals"], evals),
        "cmsd.size_over_expected": ratio(c["size_over_expected_sum"], builds),
        "merge.merge_s": total("merge.merge"),
        "merge.merge_calls": calls("merge.merge"),
        "merge.in_entries": c["merge_in"],
        "merge.out_entries": c["merge_out"],
        "merge.match_range_calls": calls("merge.IndexedList.match_range"),
        "weights.entropy_s": total("weights.sphere_exponent_many"),
        "weights.entropy_calls": calls("weights.sphere_exponent_many"),
        "weights.entropy_points": c["entropy_points"],
        "weights.enum_s": total(
            "weights.SphereEnumerator.all_vectors", "weights.SphereEnumerator.unrank"
        ),
        "weights.unrank_calls": calls("weights.SphereEnumerator.unrank"),
        "weights.vector_weight_s": total("weights.vector_weight"),
        "weights.vector_weight_calls": calls("weights.vector_weight"),
        "weights.sphere_count_s": total("weights.sphere_count_exact"),
        "estimator.optimize_point_s": total("estimator.optimize_point"),
        "estimator.optimize_point_calls": calls("estimator.optimize_point"),
        "estimator.maxima_s": total("estimator.local_maxima_weights"),
        "estimator.self_s": total(
            "estimator.hardest_instance",
            "estimator.optimize_point",
            "estimator.local_maxima_weights",
            col="self",
        ),
        "isd.solve_s": total("isd.isd_solve"),
        "isd.self_s": total("isd.isd_solve", col="self"),
        "isd.generate_s": total("isd.generate_instance"),
        "isd.loops": c["loops"],
        "isd.candidates": c["candidates"],
        "isd.hit_ratio": ratio(c["hits"], c["candidates"]),
        "trace.wall_s": traced_wall_s,
    }
