"""Command-line interface.

Subcommands: sphere (surface-area queries), gen / solve (instances),
estimate (exponent at a fixed rate and weight), hardest (worst-case rate
and weight search), sweep (weight-grid exponent curves as CSV), and
selftest (quick end-to-end checks).

Exit codes: 0 success, 2 usage or input error (including an infeasible
estimate, a solve whose lists outgrow --cap, a gen or solve whose H
would pass isd.MAX_H_ENTRIES entries, a sweep of more than MAX_SWEEP_POINTS weights,
or an exact count too large to pack), 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys

import numpy as np

from . import estimator
from .estimator import CodeParams, HardestResult, WorkFactors
from .isd import VARIANTS, IsdParams, SdInstance, generate_instance, isd_solve, verify_solution
from .merge import DEFAULT_LIST_CAP
from .weights import WeightFunction, normalized_weight, sphere_count_exact, sphere_exponent

CSV_FIELDS = (
    "q",
    "weight",
    "R",
    "omega",
    "omega_normalized",
    "model",
    "algorithm",
    "a",
    "L",
    "P",
    "alpha_q",
    "alpha_bin",
)


# the most weights one sweep may hold: a 2,000-point lee(5) sweep takes about
# 21 s and 65 MB of peak RSS, and both grow about linearly with the points
MAX_SWEEP_POINTS = 10_000


class UsageError(Exception):
    pass


def _load_weight(q: int, spec: str) -> WeightFunction:
    if spec in ("lee", "hamming"):
        return WeightFunction.from_spec(q, spec)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return WeightFunction.from_spec(q, json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read weight table {spec!r}: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad weight table {spec!r}: {exc}") from exc


def _emit(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _factors_doc(fac: WorkFactors) -> dict:
    return {
        "a": fac.point.a,
        "L": fac.point.L,
        "P": fac.point.P,
        "pi1": fac.pi1,
        "zeta": fac.zeta,
        "tau": fac.tau,
        "y": fac.y,
        "u": fac.u,
        "x": fac.x,
        "s_omega0": fac.s_omega0,
        "alpha_q": fac.total_q,
        "alpha_bin": fac.total_bin,
    }


def _csv_row(wf: WeightFunction, rate: float, model: str, alg: str, omega: float, fac) -> dict:
    row = {
        "q": wf.q,
        "weight": wf.name,
        "R": _fmt(rate),
        "omega": _fmt(omega),
        "omega_normalized": _fmt(normalized_weight(wf, omega)),
        "model": model,
        "algorithm": alg,
        "a": "",
        "L": "",
        "P": "",
        "alpha_q": "",
        "alpha_bin": "",
    }
    if fac is not None:
        row.update(
            {
                "a": fac.point.a,
                "L": _fmt(fac.point.L),
                "P": _fmt(fac.point.P),
                "alpha_q": _fmt(fac.total_q),
                "alpha_bin": _fmt(fac.total_bin),
            }
        )
    return row


def _write_csv(rows: list[dict], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands --------------------------------------------------------------


def cmd_sphere(args) -> int:
    wf = _load_weight(args.q, args.weight)
    doc: dict = {"q": args.q, "weight": wf.name}
    if args.omega is not None:
        prof = sphere_exponent(wf, args.omega)
        doc.update(
            {
                "omega": args.omega,
                "omega_normalized": normalized_weight(wf, args.omega),
                "s": prof.s,
                "beta": prof.beta if math.isfinite(prof.beta) else str(prof.beta),
                "lambda": [float(x) for x in prof.lam],
            }
        )
    if args.exact:
        if args.n is None or args.w is None:
            raise UsageError("--exact requires --n and --w")
        count = sphere_count_exact(wf, args.n, args.w)
        doc.update(
            {
                "n": args.n,
                "w": args.w,
                "count": str(count),
                "log_q_count_over_n": (
                    math.log(count, wf.q) / args.n if count > 0 and args.n > 0 else None
                ),
            }
        )
    if args.omega is None and not args.exact:
        raise UsageError("need --omega and/or --exact with --n --w")
    _emit(doc, args.out)
    return 0


def cmd_gen(args) -> int:
    wf = _load_weight(args.q, args.weight)
    rng = random.Random(args.seed)
    inst = generate_instance(args.q, args.n, args.k, args.w, wf, rng)
    _emit(inst.to_dict(), args.out)
    return 0


def cmd_solve(args) -> int:
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        inst = SdInstance.from_dict(doc)
    except OSError as exc:
        raise UsageError(f"cannot read instance: {exc}") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"malformed instance JSON: {exc}") from exc
    params = IsdParams(
        variant=args.alg,
        ell=args.ell,
        p=args.p,
        a=args.a,
        list_size_cap=args.cap,
        max_outer_loops=args.max_loops,
        rng_seed=args.seed,
    )
    report = isd_solve(inst, params)
    doc = report.to_dict()
    if report.found:
        doc["verified"] = verify_solution(inst, report.solution)
    _emit(doc, args.out)
    return 0 if report.found else 3


def cmd_estimate(args) -> int:
    wf = _load_weight(args.q, args.weight)
    cp = CodeParams(wf, args.R, args.omega)
    fac = estimator.optimize_point(cp, args.model, args.alg, args.a_max)
    doc = {
        "q": args.q,
        "weight": wf.name,
        "R": args.R,
        "omega": args.omega,
        "omega_normalized": normalized_weight(wf, args.omega),
        "model": args.model,
        "algorithm": args.alg,
    }
    doc.update(_factors_doc(fac))
    _emit(doc, args.out)
    return 0


def cmd_hardest(args) -> int:
    wf = _load_weight(args.q, args.weight)
    res: HardestResult = estimator.hardest_instance(wf, args.model, args.alg, args.a_max)
    doc = {
        "q": args.q,
        "weight": wf.name,
        "model": args.model,
        "algorithm": args.alg,
        "R": res.rate,
        "omega": res.omega,
        "omega_normalized": normalized_weight(wf, res.omega),
        "alpha": res.alpha,
        "alpha_hat": res.alpha_hat,
    }
    doc.update({"point": _factors_doc(res.factors)})
    if args.out:
        row = _csv_row(wf, res.rate, args.model, args.alg, res.omega, res.factors)
        _write_csv([row], args.out)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    if not 1 <= args.points <= MAX_SWEEP_POINTS:
        raise UsageError(f"--points must lie in [1, {MAX_SWEEP_POINTS}], not {args.points}")
    wf = _load_weight(args.q, args.weight)
    omegas = np.linspace(0.0, float(wf.max_weight), args.points)
    columns = [c for c in estimator.SWEEP_COLUMNS if args.model in ("all", c[0])]
    rows = estimator.sweep(wf, args.R, omegas, columns=columns, a_max=args.a_max)
    _write_csv(
        [_csv_row(wf, args.R, r.model, r.algorithm, r.omega, r.factors) for r in rows], args.out
    )
    return 0


def cmd_selftest(args) -> int:
    del args
    from . import selftest

    return selftest.run()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="leeisd",
        description="syndrome decoding over prime fields: solvers and exponent estimates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_weight(p):
        p.add_argument("--q", type=int, required=True, help="prime alphabet size")
        p.add_argument(
            "--weight",
            default="lee",
            help="lee | hamming | path to a custom table JSON",
        )

    p = sub.add_parser("sphere", help="sphere surface area and entropy exponent")
    add_weight(p)
    p.add_argument("--omega", type=float, help="mean weight per coordinate")
    p.add_argument("--n", type=int, help="vector length for --exact")
    p.add_argument("--w", help="total weight for --exact (integer or a/b)")
    p.add_argument("--exact", action="store_true", help="also print the exact count")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("gen", help="generate a planted instance")
    add_weight(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", required=True, help="target weight (integer or a/b)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write instance JSON here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance JSON file")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--alg", default="prange", choices=VARIANTS)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--p", default="0", help="bottom-part weight budget (integer or a/b)")
    p.add_argument("--a", type=int, default=1, help="merge-tree levels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-loops", type=int, default=10_000)
    p.add_argument("--cap", type=int, default=DEFAULT_LIST_CAP, help="list size cap")
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("estimate", help="exponent at fixed rate and weight")
    add_weight(p)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--model", default="classical", choices=estimator.MODELS)
    p.add_argument("--alg", default="wagner", choices=estimator.ALGORITHMS)
    p.add_argument("--a-max", type=int, default=10)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("hardest", help="search the hardest rate and weight")
    add_weight(p)
    p.add_argument("--model", default="classical", choices=estimator.MODELS)
    p.add_argument("--alg", default="wagner", choices=estimator.ALGORITHMS)
    p.add_argument("--a-max", type=int, default=10)
    p.add_argument("--out", help="also write a one-row CSV here")
    p.set_defaults(func=cmd_hardest)

    p = sub.add_parser("sweep", help="exponent curves over a weight grid (CSV)")
    add_weight(p)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--model", default="all", choices=("all",) + estimator.MODELS)
    p.add_argument(
        "--points",
        type=int,
        default=41,
        help=f"grid size over [0, max weight], at most {MAX_SWEEP_POINTS}",
    )
    p.add_argument("--a-max", type=int, default=10)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="run the bundled desk-scale checks")
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
