import importlib.util
import json
from pathlib import Path

from dampedwave.cli import main as dampedwave_main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"
spec = importlib.util.spec_from_file_location("compare_artifacts", SCRIPT)
compare_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_artifacts)

TREES = SCRIPT.with_name("artifact_trees.py")
spec = importlib.util.spec_from_file_location("artifact_trees", TREES)
artifact_trees = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_trees)

SMALL = (
    "problem.dim = 1\nproblem.p = 4.0\nweight.lambda = 2.0\nweight.A = 4.0\n"
    "grid.L = 40.0\ngrid.M = 128\nsolver.dt = 0.05\nsolver.t_end = 5.0\n"
    "data.amplitude = 0.01\ndata.width = 2.0\n"
)


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
    cfg.write_text(SMALL)
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        argv = ["simulate", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
        assert dampedwave_main([*argv, "--snapshots", "1.0"]) == 0
    assert compare_artifacts.main([str(tmp_path / "seed1"), str(tmp_path / "seed2")]) == 0
    assert "0 difference(s)" in capsys.readouterr().out


def test_artifact_trees_writes_each_call_into_its_own_tree(monkeypatch, tmp_path, capsys):
    # the calls' list holds the benchmark workloads and five shipped-config
    # calls; one small simulate stands in for them here
    names = [call.name for call in artifact_trees.CALLS]
    assert names[:4] == ["fujita_1d", "linear_decay_2d", "audit_3d", "sweep_1d"]
    assert len(names) == len(set(names)) == 9
    call = artifact_trees.Workload("small", "simulate", SMALL, ("--snapshots", "1.0"), why="")
    monkeypatch.setattr(artifact_trees, "CALLS", [call])
    for side in ("old", "new"):
        assert artifact_trees.main([str(tmp_path / side)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "small: exit 0"
    tree = tmp_path / "old"
    assert (tree / "small.cfg").read_text() == SMALL
    written = {f.name for f in (tree / "small").iterdir()}
    assert {"report.json", "series.csv", "snapshots"} <= written
    assert compare_artifacts.main([str(tree), str(tmp_path / "new")]) == 0


def test_artifact_trees_exponent_table_reads_the_calls_config():
    small = artifact_trees.Workload("small", "simulate", SMALL, (), why="")
    table = artifact_trees._exponents_table(small)
    assert table.startswith("p_fujita = 3\n") and "\nlambda = 2\n" in table
    below = SMALL.replace("problem.p = 4.0", "problem.p = 2.0")
    table = artifact_trees._exponents_table(artifact_trees.Workload("below", "", below, (), ""))
    assert table.splitlines()[-1].startswith("error: ")
