#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize its spread.

    python3 bench/summarize.py [--seeds 1-10] [--trace-seeds 1,2] [--out FILE]

For every workload of BENCHMARK.json and every seed it runs bench/run.py
once untraced, one run at a time, and reports each end-to-end metric's
median, quartiles and spread: (q3 - q1) / median with the quartiles of
statistics.quantiles(n=4).  A spread above a third of the metric's bound
is flagged.  Each --trace-seeds entry that is also in --seeds is run once
more, traced, right after its untraced run; these runs give the per-layer
medians and the tracing overhead, traced wall_s against untraced wall_s
of the same seed.  Claims about a change are to be re-checked on a
held-out seed range (for example --seeds 9001-9010) not used while the
change was written.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["run_s"] = elapsed
    out["environment"] = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return out


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "values": values, "median": mid, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / mid if mid else 0.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    trace_seeds = seed_list(args.trace_seeds) if args.trace_seeds else []
    if not set(trace_seeds) <= set(seeds):
        raise SystemExit("--trace-seeds must be a subset of --seeds")
    summary = {"seeds": seeds, "trace_seeds": trace_seeds, "workloads": {}}
    steady = True
    for wl in (w["name"] for w in spec["workloads"]):
        runs, traced = {}, {}
        for s in seeds:
            runs[s] = run_once(spec, wl, s, 0)
            if s in trace_seeds:
                traced[s] = run_once(spec, wl, s, 1)
        entry = {
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "run_s_max": max(r["run_s"] for r in [*runs.values(), *traced.values()]),
            "end_to_end": {},
        }
        print(f"{wl}: {len(runs)} runs, {entry['attempted']} tasks, "
              f"{entry['failed']} failed, longest run {entry['run_s_max']:.1f} s")
        for name, bound in bounds.items():
            st = spread([r["metrics"][name]["value"] for r in runs.values()])
            st["bound"] = bound
            entry["end_to_end"][name] = st
            flag = ""
            if st["spread"] > bound / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"  {name:<14} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                  f"q3 {st['q3']:<12.6g} spread {st['spread']:.4f} (bound {bound}){flag}")
        if traced:
            entry["per_layer_median"] = {
                k: statistics.median(r["metrics"][k]["value"] for r in traced.values())
                for k in traced[trace_seeds[0]]["metrics"]
            }
            ratios = [
                t["metrics"]["trace.wall_s"]["value"] / runs[s]["metrics"]["wall_s"]["value"]
                for s, t in traced.items()
            ]
            entry["trace_overhead"] = statistics.median(ratios) - 1.0
            print(f"  tracing overhead: {entry['trace_overhead']:+.1%} (median over "
                  f"{len(ratios)} seeds of traced wall_s / untraced wall_s)")
        summary["workloads"][wl] = entry
        summary.setdefault("environment", runs[seeds[0]]["environment"])
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "not steady: some spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
