#!/usr/bin/env python3
"""Self-check of the benchmark on smoke-sized workloads.

    python3 bench/selfcheck.py

For every workload in BENCHMARK.json it runs bench/run.py --smoke once
untraced and twice traced with the same seed, and checks that each run
exits 0 with correct output, that every end-to-end and per-layer metric of
BENCHMARK.json is printed with its unit, and that the exact counts below
repeat bit for bit across the two traced runs.  It also checks that the
reference rows and the tolerance copied into workloads.py still equal those of
tests/test_acceptance.py.  Takes about two minutes; exits 1 on any failure.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
EXACT_COUNTS = (
    "isd.loops",
    "isd.candidates",
    "fieldlin.elim_calls",
    "cmsd.eval_calls",
    "weights.entropy_points",
)
REFERENCE_NAMES = ("EXTENDED_CLASSICAL", "EXTENDED_QUANTUM", "AH_TOL")


def constants(path: Path, names) -> dict:
    """Literal module-level assignments, read without importing the module."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                values = (
                    node.value.elts
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    else [node.value]
                )
                for t, v in zip(elts, values):
                    if isinstance(t, ast.Name) and t.id in names:
                        found[t.id] = ast.literal_eval(v)
    return found


def run(spec: dict, workload: str, trace: int) -> tuple[dict | None, str]:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(SEED), "--trace", str(trace), "--smoke",
    ]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        return None, f"{' '.join(cmd)} exited {res.returncode}: {res.stderr.strip()[-500:]}"
    return json.loads(res.stdout.strip().splitlines()[-1]), ""


def check_metrics(out: dict, wanted: list[dict], label: str) -> list[str]:
    errors = []
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None:
            errors.append(f"{label}: metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got['unit']!r}, expected {m['unit']!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []

    ours = constants(BENCH / "workloads.py", REFERENCE_NAMES)
    theirs = constants(ROOT / "tests" / "test_acceptance.py", REFERENCE_NAMES)
    for name in REFERENCE_NAMES:
        if name not in ours or ours.get(name) != theirs.get(name):
            errors.append(f"{name} differs from tests/test_acceptance.py")

    for wl in (w["name"] for w in spec["workloads"]):
        runs = [run(spec, wl, trace) for trace in (0, 1, 1)]
        for out, err in runs:
            if out is None:
                errors.append(err)
            elif not out["correct"] or out["failed"]:
                errors.append(f"{wl}: {out['failed']} of {out['attempted']} smoke tasks failed")
        (plain, _), (a, _), (b, _) = runs
        if plain is not None:
            errors += check_metrics(plain, spec["end_to_end"], f"{wl} untraced")
        if a is not None and b is not None:
            errors += check_metrics(a, spec["per_layer"], f"{wl} traced")
            for name in EXACT_COUNTS:
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                if va != vb:
                    errors.append(f"{wl}: {name} differs across runs with seed {SEED}: {va} vs {vb}")
            counts = ", ".join(f"{n}={a['metrics'][n]['value']}" for n in EXACT_COUNTS)
            print(f"{wl}: {counts}")

    for e in errors:
        print("FAIL " + e)
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
