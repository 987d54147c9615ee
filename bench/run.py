#!/usr/bin/env python3
"""Run one leeisd benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports leeisd from its src/
directory.  --seed and --seconds fix the task list: --seconds sizes it at
a nominal rate, so the same arguments give the same tasks however fast the
code is.  One thread runs the list once as a closed loop: the next task
starts when the previous one returns.  Every output is checked; the last
stdout line is one JSON object with correct/attempted/failed and the
metrics (end-to-end metrics with --trace 0, per-layer metrics from a
traced run of the same list with --trace 1).
Exit status: 0 when every output checked out, 1 when some output was
wrong, 2 on a usage error or when the checkout has no leeisd sources.
"""

import os

# Single-threaded baseline: pin every thread knob before numpy loads.
THREAD_VARS = (
    "ISD_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# A set-up imports leeisd from cached bytecode, as an installed package
# would, whatever PYTHONDONTWRITEBYTECODE says; the cache lives under OUT.
sys.pycache_prefix = str(OUT / "pycache")
sys.dont_write_bytecode = False
# setup_s is the median of this many set-ups in one process: one before the
# run, the others spread evenly between its tasks.
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
EXTRA_UNITS = {
    "task_tail_s": "s",
    "loops_per_s": "1/s",
    "candidates_per_s": "1/s",
    "alpha_err_max": "alpha_q",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny task list")
    return ap.parse_args(argv)


def git_state() -> dict:
    def git(*args):
        try:
            res = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "git_dirty": bool(status) if sha else None}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(load_at_start: float) -> dict:
    import numpy

    return {
        **git_state(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_at_start": load_at_start,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def set_up(args, tracer=None):
    """Import leeisd afresh and build the task list; return its time too.

    Modules of leeisd (and the workload module that imports them) are
    dropped from sys.modules first, so every call re-executes them; numpy
    stays loaded.  The garbage of an earlier set-up is collected before the
    clock starts.  With a tracer, its wrappers go in before the inputs are
    made.
    """
    for mod in [m for m in sys.modules if m.split(".")[0] in ("leeisd", "workloads")]:
        del sys.modules[mod]
    gc.collect()
    t0 = time.perf_counter()
    import workloads

    if tracer is not None:
        import tracer as tracing

        tracing.install(tracer)
    wl = workloads.WORKLOADS.get(args.workload)
    tasks = None if wl is None else wl.make(args.seed, args.smoke, args.seconds)
    return time.perf_counter() - t0, wl, tasks


def tail(times: list[float]):
    """Highest listed percentile with at least ten tasks beyond it."""
    n = len(times)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, sorted(times)[math.ceil(pct / 100.0 * n) - 1]
    return None, None


def run_tasks(wl, tasks, tracer=None, between=None, parts=1):
    """Closed loop over the task list; checks run afterwards, untimed.

    The list runs in ``parts`` consecutive parts, and ``between()`` runs
    between two parts, outside the timed wall.  Returns the time of the
    whole list, each task's time and the outcomes.
    """
    results, times, wall = [], [], 0.0
    ends = [round(i * len(tasks) / parts) for i in range(parts + 1)]
    for part in range(parts):
        if part and between is not None:
            between()
        p0 = time.perf_counter()
        for task_id in range(ends[part], ends[part + 1]):
            if tracer is not None:
                tracer.task_id = task_id
            t0 = time.perf_counter()
            results.append(wl.run(tasks[task_id]))
            times.append(time.perf_counter() - t0)
        wall += time.perf_counter() - p0
    if tracer is not None:
        tracer.task_id = -1
        tracer.on = False  # the checks record nothing
    outcomes = [wl.check(t, r) for t, r in zip(tasks, results)]
    return wall, times, outcomes


def end_to_end(setup, wall, times, outcomes):
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "task_p50_s": statistics.median(times),
        "ok_ratio": sum(o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"tasks": len(times)}
    pct, value = tail(times)
    if pct is not None:
        extra.update(task_tail_s=value, task_tail_pct=pct)
    if any(o.loops for o in outcomes):
        extra["loops_per_s"] = sum(o.loops for o in outcomes) / wall
        extra["candidates_per_s"] = sum(o.candidates for o in outcomes) / wall
    errs = [o.alpha_err for o in outcomes if o.alpha_err is not None]
    if errs:
        extra["alpha_err_max"] = max(errs)
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leeisd" / "__init__.py").is_file():
        print(f"error: no leeisd sources under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()[0]
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    seconds, wl, tasks = set_up(args, tracer)
    setup = [seconds]
    if wl is None:
        import workloads

        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import leeisd

    if not Path(leeisd.__file__).resolve().is_relative_to(SRC):
        print(f"error: leeisd imported from {leeisd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if tracer is None:
        # The later set-ups sample the machine at the same times as the
        # tasks; what they build is dropped, and the run keeps the first list.
        wall, times, outcomes = run_tasks(
            wl, tasks, between=lambda: setup.append(set_up(args)[0]), parts=SETUP_REPEATS
        )
    else:
        wall, times, outcomes = run_tasks(wl, tasks, tracer)
    if tracer is not None:
        tracer.restore()
    return report(args, environment(load_at_start), setup, wall, times, outcomes, tracer)


def report(args, env, setup, wall, times, outcomes, tracer) -> int:
    """Store the run's record under bench/out, print it, end with the JSON line."""
    metrics, extra = end_to_end(setup, wall, times, outcomes)
    wrong = sum(o.wrong for o in outcomes)
    failed = sum(not o.ok for o in outcomes)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "workload_metrics": extra, "wrong": wrong, "failed": failed,
        "task_times": times,
    }
    if tracer is None:
        units = END_TO_END_UNITS
        shown = metrics
        record.update(end_to_end=metrics, setup_samples=setup)
    else:
        import tracer as tracing

        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        shown = tracing.layer_metrics(tracer, wall)
        record.update(per_layer=shown, spans=len(tracer.t0))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.save(OUT / f"{stem}-spans.npz")

    print("env " + json.dumps(env))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{extra['tasks']} tasks, {failed} failed ({wrong} wrong output)")
    for k, v in shown.items():
        print(f"  {k:<32} {v:>14.6g} {units[k]}")
    if tracer is None:
        for k, unit in EXTRA_UNITS.items():
            if k in extra:
                note = f" (p{extra['task_tail_pct']:g})" if k == "task_tail_s" else ""
                print(f"  {k:<32} {extra[k]:>14.6g} {unit}{note}")
    else:
        print(f"  {len(tracer.t0)} spans written to {OUT.name}/{stem}-spans.npz")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
