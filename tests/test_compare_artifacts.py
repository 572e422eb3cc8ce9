import importlib.util
import json
from pathlib import Path

from dampedwave.cli import main as dampedwave_main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"
spec = importlib.util.spec_from_file_location("compare_artifacts", SCRIPT)
compare_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_artifacts)


def write_tree(root, report, series="t,l2_u\n0,1\n"):
    (root / "run").mkdir(parents=True)
    (root / "run" / "series.csv").write_text(series)
    (root / "run" / "report.json").write_text(json.dumps(report))
    (root / "sweep.csv").write_text("p,amplitude\n2,0.01\n")


def test_compare_artifacts_on_two_tiny_trees(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    done = {"status": "completed"}
    write_tree(old, {"outcome": done, "timestamp": "a", "timings": {"run_s": 1.0}})
    write_tree(new, {"outcome": done, "timestamp": "b", "timings": {"run_s": 2.0}})
    # reports that differ only in timestamp and timings are equal
    assert compare_artifacts.main([str(old), str(new)]) == 0
    assert "0 difference(s)" in capsys.readouterr().out

    (new / "run" / "series.csv").write_text("t,l2_u\n0,1.0000000000000002\n")
    (new / "run" / "report.json").write_text(json.dumps({"outcome": {"status": "blew_up"}}))
    (new / "extra.csv").write_text("")
    (new / "sweep.csv").unlink()
    assert compare_artifacts.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"only in {old}: sweep.csv",
        f"only in {new}: extra.csv",
        "differs: run/report.json (keys outcome.status)",
        "differs: run/series.csv",
        "4 difference(s)",
    ]
    assert compare_artifacts.main([str(old), str(tmp_path / "missing")]) == 2


def test_compare_artifacts_names_the_nested_values_that_differ(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    audit = {"points": 513, "min_residual": 0.5, "passed": True}
    write_tree(old, {"audits": {"weight_residual": audit, "energy": {"violation": 0.0}}})
    changed = {**audit, "min_residual": 0.25}
    write_tree(new, {"audits": {"weight_residual": changed}, "outcome": None})
    assert compare_artifacts.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: run/report.json (keys audits.energy, audits.weight_residual.min_residual, "
        "outcome)",
        "1 difference(s)",
    ]


def test_simulate_artifacts_do_not_depend_on_the_seed(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem.dim = 1\nproblem.p = 4.0\nweight.lambda = 2.0\nweight.A = 4.0\n"
        "grid.L = 40.0\ngrid.M = 128\nsolver.dt = 0.05\nsolver.t_end = 5.0\n"
        "data.amplitude = 0.01\ndata.width = 2.0\n"
    )
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        argv = ["simulate", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
        assert dampedwave_main([*argv, "--snapshots", "1.0"]) == 0
    assert compare_artifacts.main([str(tmp_path / "seed1"), str(tmp_path / "seed2")]) == 0
    assert "0 difference(s)" in capsys.readouterr().out
