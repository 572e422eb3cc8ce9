import importlib.util
import json
from pathlib import Path

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
        "differs: run/report.json (keys outcome)",
        "differs: run/series.csv",
        "4 difference(s)",
    ]
    assert compare_artifacts.main([str(old), str(tmp_path / "missing")]) == 2
