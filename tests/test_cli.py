import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

from leeisd import estimator
from leeisd.cli import MAX_SWEEP_POINTS, main
from leeisd.isd import MAX_H_ENTRIES, SdInstance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sphere_omega_uniform(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--q", "5", "--weight", "lee", "--omega", "1.2")
    doc = json.loads(out)
    assert code == 0
    assert doc["s"] == pytest.approx(1.0, abs=1e-9)
    assert doc["lambda"] == pytest.approx([0.2] * 5, abs=1e-9)


def test_sphere_exact_count(capsys):
    code, out, _ = run_cli(
        capsys, "sphere", "--q", "5", "--weight", "lee", "--n", "2", "--w", "2", "--exact"
    )
    assert code == 0
    assert json.loads(out)["count"] == "8"


def test_sphere_hamming_closed_form(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--q", "3", "--weight", "hamming", "--omega", "0.5")
    assert code == 0
    assert json.loads(out)["s"] == pytest.approx(0.946395, abs=1e-5)


def test_sphere_usage_error(capsys):
    code, _, err = run_cli(capsys, "sphere", "--q", "5", "--weight", "lee")
    assert code == 2 and "error" in err


def test_gen_then_solve_prange(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "--q", "3", "--n", "16", "--k", "8", "--w", "4",
        "--weight", "hamming", "--seed", "5", "--out", str(inst),
    )
    assert code == 0
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "solve", str(inst), "--alg", "prange", "--seed", "1", "--out", str(report)
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["found"] is True and doc["verified"] is True


def test_solve_weight_zero(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(
        capsys,
        "gen", "--q", "3", "--n", "10", "--k", "5", "--w", "0",
        "--weight", "lee", "--seed", "0", "--out", str(inst),
    )
    code, out, _ = run_cli(capsys, "solve", str(inst), "--alg", "prange")
    doc = json.loads(out)
    assert code == 0
    assert doc["solution"] == [0] * 10
    assert doc["outer_loops"] == 1


def test_solve_wagner1_multiple_seeds(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(
        capsys,
        "gen", "--q", "3", "--n", "24", "--k", "8", "--w", "6",
        "--weight", "lee", "--seed", "9", "--out", str(inst),
    )
    found = 0
    for seed in range(10):
        code, out, _ = run_cli(
            capsys,
            "solve", str(inst), "--alg", "wagner1", "--ell", "4", "--p", "4",
            "--a", "2", "--seed", str(seed),
        )
        doc = json.loads(out)
        if code == 0:
            assert doc["verified"] is True
            found += 1
    assert found >= 9


def test_solve_budget_exhausted_exit_3(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(
        capsys,
        "gen", "--q", "3", "--n", "10", "--k", "5", "--w", "1",
        "--weight", "lee", "--seed", "1", "--out", str(inst),
    )
    doc = json.loads(inst.read_text())
    doc["w"] = 0  # weight-0 target with a nonzero syndrome is unsolvable
    del doc["e"]
    inst.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, "solve", str(inst), "--alg", "prange", "--max-loops", "5")
    assert code == 3


def test_solve_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2


def test_library_errors_exit_2_with_one_line(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(
        capsys,
        "gen", "--q", "3", "--n", "24", "--k", "8", "--w", "6",
        "--weight", "lee", "--seed", "7", "--out", str(inst),
    )
    # a base list of 160 entries against a cap of 10: MergeOverflowError
    code, _, err = run_cli(
        capsys, "solve", str(inst), "--alg", "dumer", "--ell", "4", "--p", "3", "--cap", "10"
    )
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    # a one-symbol lee block cannot carry weight 2: CmsdInfeasibleError
    small = tmp_path / "small.json"
    run_cli(
        capsys,
        "gen", "--q", "3", "--n", "10", "--k", "3", "--w", "8",
        "--weight", "lee", "--seed", "1", "--out", str(small),
    )
    code, _, err = run_cli(
        capsys, "solve", str(small), "--alg", "wagner1", "--ell", "1", "--p", "6", "--a", "2"
    )
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    # a budget that is not a multiple of the table unit: rejected before any loop
    code, _, err = run_cli(
        capsys, "solve", str(small), "--alg", "dumer", "--ell", "4", "--p", "1/2"
    )
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    # no feasible prange point at this weight: InfeasibleParameterError
    code, _, err = run_cli(
        capsys, "estimate", "--q", "3", "--R", "0.5", "--omega", "0.9", "--alg", "prange"
    )
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    # no level count to optimize over: a ValueError naming the option
    code, _, err = run_cli(
        capsys, "estimate", "--q", "3", "--R", "0.4", "--omega", "0.8", "--a-max", "0"
    )
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "a_max" in err
    # an empty weight grid, which would also leave --R unchecked
    code, _, err = run_cli(capsys, "sweep", "--q", "3", "--R", "1.5", "--points", "0")
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "--points" in err
    # an exact count whose packed integer would take 75 MB: rejected before packing
    code, _, err = run_cli(
        capsys, "sphere", "--q", "5", "--omega", "0.5", "--exact", "--n", "100000000", "--w", "1"
    )
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "over the limit" in err
    # a table entry that overflows to infinity in JSON, and a zero denominator
    table = tmp_path / "inf.json"
    table.write_text('{"q": 3, "table": [0, 1e400, 1]}')
    code, _, err = run_cli(
        capsys, "sphere", "--q", "3", "--weight", str(table), "--omega", "0.5"
    )
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    code, _, err = run_cli(capsys, "sphere", "--q", "3", "--exact", "--n", "4", "--w", "1/0")
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    # a top weight 10^307 times the smallest gap: rejected on load, with no warning
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"q": 5, "table": [0, 1, 1, 1, 10**307]}))
    for cmd in (("sphere",), ("estimate", "--R", "0.5")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, *cmd, "--q", "5", "--weight", str(wide), "--omega", "1")
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "smallest weight gap" in err
    # k > n: rejected before any draw (it used to loop forever)
    code, _, err = run_cli(capsys, "gen", "--q", "3", "--n", "10", "--k", "12", "--w", "2")
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "0 < k < n" in err


def test_sweep_points_over_the_maximum_exit_2_before_allocating(capsys):
    nothing = AssertionError("allocated a grid")
    with (
        mock.patch("leeisd.cli.np.linspace", side_effect=nothing),
        mock.patch("leeisd.cli._load_weight", side_effect=nothing),
        mock.patch.object(estimator, "sweep", side_effect=nothing),
    ):
        for points in ("100000000000", str(MAX_SWEEP_POINTS + 1)):
            code, _, err = run_cli(capsys, "sweep", "--q", "5", "--R", "0.5", "--points", points)
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
            assert f"--points must lie in [1, {MAX_SWEEP_POINTS}]" in err


def test_gen_over_the_entry_bound_exit_2_before_allocating(capsys):
    # (n - k) * n = 5 * 10^9 entries once asked numpy for 37 GiB and exited 1
    nothing = AssertionError("drew an instance")
    n = 4096
    k = n - MAX_H_ENTRIES // n  # (n - k) * n is the bound itself
    with (
        mock.patch("leeisd.isd.sphere_count_exact", side_effect=nothing),
        mock.patch("leeisd.isd.random_full_rank_matrix", side_effect=nothing),
    ):
        for big_n, big_k in ((100000, 50000), (n + 1, k + 1)):
            code, _, err = run_cli(
                capsys, "gen", "--q", "5", "--n", str(big_n), "--k", str(big_k), "--w", "3"
            )
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
            assert f"entries, more than {MAX_H_ENTRIES}" in err
        with pytest.raises(AssertionError, match="drew an instance"):
            main(["gen", "--q", "5", "--n", str(n), "--k", str(k), "--w", "3"])


def test_solve_over_the_entry_bound_or_misshapen_exit_2_before_converting(tmp_path, capsys):
    # a 1,500 x 3,000 lee(3) instance once ran 90 s in the entry converters
    nothing = AssertionError("converted an entry")
    n = 4096
    k = n - MAX_H_ENTRIES // n  # (n - k) * n is the bound itself
    small = {"q": 3, "n": 8, "k": 4, "w": 2, "weight": "lee", "H": [[0] * 8] * 4, "s": [0] * 4}
    cases = (
        ({"n": 3000, "k": 1500}, f"entries, more than {MAX_H_ENTRIES}"),
        ({"n": n + 1, "k": k + 1}, f"entries, more than {MAX_H_ENTRIES}"),
        ({"H": [[0] * 8] * 3}, "H must be a list of 4 lists of 8 entries"),
        ({"H": [[0] * 8] * 3 + [[0] * 9]}, "H must be a list of 4 lists of 8 entries"),
        ({"H": [0] * 4}, "H must be a list of 4 lists of 8 entries"),
        ({"s": [0] * 5}, "s must be a list of 4 entries"),
        ({"e": [0] * 7}, "e must be a list of 8 entries"),
    )
    path = tmp_path / "inst.json"
    with (
        mock.patch("leeisd.isd._int_entries", side_effect=nothing),
        mock.patch("leeisd.isd.rank", side_effect=nothing),
    ):
        for change, msg in cases:
            path.write_text(json.dumps({**small, **change}))
            code, _, err = run_cli(capsys, "solve", str(path), "--alg", "prange")
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, change
            assert msg in err, change
        # at the bound the checks pass and the entries are converted; the rows
        # share one list, so the document itself stays small
        doc = {**small, "n": n, "k": k, "H": [[0] * n] * (n - k), "s": [0] * (n - k)}
        with pytest.raises(AssertionError, match="converted an entry"):
            SdInstance.from_dict(doc)


def test_non_integer_instance_json_exit_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(
        capsys,
        "gen", "--q", "3", "--n", "16", "--k", "8", "--w", "2",
        "--weight", "lee", "--seed", "3", "--out", str(inst),
    )
    good = inst.read_text()
    for key, bad in (("k", 8.9), ("H", 0.5)):
        doc = json.loads(good)
        if key == "H":
            doc["H"][0][0] = bad
        else:
            doc[key] = bad
        inst.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "solve", str(inst), "--alg", "prange")
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, key
        assert "must be an integer" in err
    # a weight table for q = 3.7 is not read as q = 3
    table = tmp_path / "w.json"
    table.write_text('{"q": 3.7, "table": [0, 1, 1]}')
    code, _, err = run_cli(capsys, "sphere", "--q", "3", "--weight", str(table), "--omega", "0.5")
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_library_errors_are_value_errors():
    from leeisd.cmsd import CmsdInfeasibleError
    from leeisd.estimator import InfeasibleParameterError
    from leeisd.merge import MergeOverflowError

    for exc in (CmsdInfeasibleError, InfeasibleParameterError, MergeOverflowError):
        assert issubclass(exc, ValueError), exc


def test_corrupt_weight_table_rejected(tmp_path, capsys):
    table = tmp_path / "w.json"
    table.write_text(json.dumps({"q": 5, "table": [1, 1, 2, 2, 1]}))
    code, _, err = run_cli(
        capsys, "sphere", "--q", "5", "--weight", str(table), "--omega", "1.0"
    )
    assert code == 2 and "error" in err
    # an all-zero table has no positive weight: rejected up front, not a traceback
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"q": 3, "table": [0, 0, 0]}))
    for cmd, *rest in (
        ("sphere", "--omega", "0"),
        ("estimate", "--R", "0.5", "--omega", "0"),
        ("sweep", "--R", "0.5", "--points", "3"),
    ):
        code, _, err = run_cli(capsys, cmd, "--q", "3", "--weight", str(zero), *rest)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, cmd


def test_custom_weight_table_accepted(tmp_path, capsys):
    table = tmp_path / "w.json"
    table.write_text(json.dumps({"q": 7, "table": [0, 1, 2, 3, 3, 2, 1], "name": "lee7"}))
    code, out, _ = run_cli(
        capsys, "sphere", "--q", "7", "--weight", str(table), "--omega", "0.0"
    )
    assert code == 0 and json.loads(out)["s"] == 0.0


def test_estimate_zero_weight(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate", "--q", "3", "--weight", "lee", "--R", "0.5", "--omega", "0",
    )
    assert code == 0
    assert json.loads(out)["alpha_bin"] == 0.0


def test_estimate_reference_point(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate", "--q", "3", "--weight", "lee", "--R", "0.370", "--omega", "1.0",
        "--model", "classical", "--alg", "wagner",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["alpha_bin"] == pytest.approx(0.269, abs=0.01)
    assert doc["alpha_q"] == pytest.approx(doc["alpha_bin"] / 1.5849625007211562, abs=1e-9)


def test_sweep_csv_roundtrip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "sweep", "--q", "3", "--weight", "lee", "--R", "0.5",
            "--points", "5", "--a-max", "3", "--out", str(path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 4
    # one model keeps its own columns of the full sweep, row for row
    for model, ncols in (("classical", 3), ("quantum", 1)):
        path = tmp_path / f"{model}.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--q", "3", "--weight", "lee", "--R", "0.5", "--points", "5",
            "--a-max", "3", "--model", model, "--out", str(path),
        )
        assert code == 0
        with open(path) as fh:
            sub = list(csv.DictReader(fh))
        assert len(sub) == 5 * ncols
        assert sub == [row for row in rows if row["model"] == model]
    for row in rows:
        assert row["q"] == "3" and row["weight"] == "lee"
        if row["omega"] == "0.000000":
            assert row["alpha_q"] == "0.000000"
        if row["alpha_q"]:
            got = float(row["alpha_bin"])
            assert got == pytest.approx(float(row["alpha_q"]) * 1.5849625007211562, abs=1e-5)


def test_hardest_writes_csv(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code, stdout, _ = run_cli(
        capsys,
        "hardest", "--q", "3", "--weight", "lee", "--model", "classical",
        "--a-max", "3", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["alpha_hat"] == pytest.approx(0.170, abs=0.005)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["alpha_q"]) == pytest.approx(doc["alpha_hat"], abs=1e-5)


def test_cap_below_one_exit_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(
        capsys,
        "gen", "--q", "3", "--n", "20", "--k", "10", "--w", "4",
        "--weight", "hamming", "--seed", "2", "--out", str(inst),
    )
    for alg in ("dumer", "wagner2"):
        code, _, err = run_cli(
            capsys, "solve", str(inst), "--alg", alg, "--ell", "2", "--p", "2", "--cap", "0"
        )
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, alg
        assert "list_size_cap" in err


def test_unknown_flags_exit_2(capsys):
    assert main(["estimate", "--q", "3"]) == 2  # missing required flags
    assert main(["bogus"]) == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "leeisd.cli", "sphere", "--q", "5", "--weight", "lee",
         "--omega", "2.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["s"] == pytest.approx(0.43068, abs=1e-4)


def test_python_dash_m_runs_the_cli():
    # `python -m leeisd` is the same command line, with its exit status
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "leeisd", "selftest"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all 7 checks passed"
    bad = subprocess.run([sys.executable, "-m", "leeisd", "bogus"], capture_output=True, env=env)
    assert bad.returncode == 2


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert out.splitlines()[-1] == "all 7 checks passed"
