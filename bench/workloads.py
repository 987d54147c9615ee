"""The two benchmark workloads and their correctness gates.

Each workload turns the workload seed and the run length into a fixed task
list (``make``), runs one task through the public leeisd API (``run``) and
checks its output (``check``).  The run length only sizes the list, at a
nominal rate measured once on the reference machine, so that two versions
of the code given the same arguments run exactly the same tasks however
fast they are.  Library entry points are looked up through their modules at
call time, so that a traced run sees every call.  README.md gives the
reason for each workload.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction

import leeisd.estimator as estimator
import leeisd.isd as isd
from leeisd.estimator import CodeParams, InfeasibleParameterError
from leeisd.isd import IsdParams
from leeisd.weights import WeightFunction

# Extended hardest-instance rows (lee metric, q -> (R, alpha_hat)) and the
# tolerances of tests/test_acceptance.py, copied unchanged; selfcheck.py
# asserts that the two copies agree.
EXTENDED_CLASSICAL = {43: (0.454, 0.146), 163: (0.442, 0.152), 331: (0.438, 0.154)}
EXTENDED_QUANTUM = {43: (0.472, 0.079), 163: (0.464, 0.083), 331: (0.464, 0.084)}
AH_TOL = 0.005

EXTENDED = {"classical": EXTENDED_CLASSICAL, "quantum": EXTENDED_QUANTUM}


def derive_seed(*parts) -> int:
    """Stable 32-bit seed from the workload seed and labels.

    crc32 rather than hash(): str hashes are salted per process.
    """
    return zlib.crc32(":".join(str(p) for p in parts).encode())


def rotate(rows: list, seed: int) -> list:
    k = seed % len(rows)
    return rows[k:] + rows[:k]


@dataclass
class Outcome:
    """Checked result of one task.

    ok: the output passed its check.  wrong: an output was returned and
    failed its check (a solution that does not verify, an exponent outside
    the acceptance tolerance); a solve that exhausts its loop budget is not
    ok but not wrong either.
    """

    ok: bool
    wrong: bool = False
    loops: int = 0
    candidates: int = 0
    alpha_err: float | None = None


# -- estimator workloads ------------------------------------------------------


@dataclass(frozen=True)
class Row:
    q: int
    model: str
    rate: float
    alpha_hat: float
    wf: WeightFunction


def _row(q: int, model: str, ref: tuple[float, float]) -> Row:
    wf = WeightFunction.lee(q)
    wf.weight_classes()
    return Row(q, model, ref[0], ref[1], wf)


def repeats(seconds: float, nominal_s: float) -> int:
    """How many times a fixed row list of nominal_s seconds fits the run."""
    return max(1, round(seconds / nominal_s))


class EstimateLargeQ:
    """Both candidate weights of each extended reference row, at its rate."""

    name = "estimate_large_q"
    NOMINAL_S = 15.0

    def make(self, seed: int, smoke: bool, seconds: float) -> list[Row]:
        rows = [
            _row(q, m, ref)
            for m in ("classical", "quantum")
            for q, ref in EXTENDED[m].items()
        ]
        if smoke:
            return rows[3:4]
        return rotate(rows, seed) * repeats(seconds, self.NOMINAL_S)

    def run(self, row: Row) -> float | None:
        best = None
        for omega in estimator.local_maxima_weights(row.wf, row.rate):
            try:
                f = estimator.optimize_point(
                    CodeParams(row.wf, row.rate, omega), row.model, "wagner"
                )
            except InfeasibleParameterError:
                continue
            if best is None or f.total_q > best:
                best = f.total_q
        return best

    def check(self, row: Row, alpha_hat: float | None) -> Outcome:
        if alpha_hat is None:
            return Outcome(ok=False, wrong=True)
        err = abs(alpha_hat - row.alpha_hat)
        return Outcome(ok=err <= AH_TOL, wrong=err > AH_TOL, alpha_err=err)


# -- solve workload -----------------------------------------------------------


@dataclass(frozen=True)
class SolveTask:
    label: str
    inst: isd.SdInstance
    params: IsdParams


class SolveMergeTree:
    """Dumer and both merge trees (a=2) on planted q=3 instances, n=32..36.

    Lee and hamming instances alternate, and the configs cycle, one per
    task.  The list holds TASKS_PER_S instances per second of run length,
    rounded to whole rounds of every config on both metrics.
    """

    name = "solve_merge_tree"
    CONFIGS = (  # (variant, n, k, w, ell, p, a)
        ("dumer", 36, 18, 8, 4, 3, 1),
        ("wagner1", 32, 16, 8, 4, 4, 2),
        ("wagner2", 32, 16, 9, 4, 3, 2),
    )
    TASKS_PER_S = 28.0
    SMOKE_TASKS = 6
    Q = 3

    def make(self, seed: int, smoke: bool, seconds: float) -> list[SolveTask]:
        tables = {m: getattr(WeightFunction, m)(self.Q) for m in ("lee", "hamming")}
        tasks = []
        block = 2 * len(self.CONFIGS)
        count = self.SMOKE_TASKS if smoke else block * max(
            1, round(seconds * self.TASKS_PER_S / block)
        )
        for i in range(count):
            variant, n, k, w, ell, p, a = self.CONFIGS[(i // 2) % len(self.CONFIGS)]
            metric = ("lee", "hamming")[i % 2]
            rng = random.Random(derive_seed(self.name, seed, i))
            inst = isd.generate_instance(self.Q, n, k, w, tables[metric], rng)
            params = IsdParams(
                variant=variant,
                ell=ell,
                p=Fraction(p),
                a=a,
                rng_seed=derive_seed(self.name, seed, i, "solve"),
            )
            tasks.append(SolveTask(f"{variant}/{metric}/n{n}", inst, params))
        return tasks

    def run(self, task: SolveTask):
        return isd.isd_solve(task.inst, task.params)

    def check(self, task: SolveTask, rep) -> Outcome:
        counts = dict(loops=rep.outer_loops, candidates=rep.tested_candidates)
        if not rep.found:
            return Outcome(ok=False, **counts)
        ok = isd.verify_solution(task.inst, rep.solution)
        return Outcome(ok=ok, wrong=not ok, **counts)


WORKLOADS = {
    wl.name: wl
    for wl in (EstimateLargeQ(), SolveMergeTree())
}
