"""Tests of the benchmark's own accounting: timing summaries, failure
counting against the stored references, cell-steps throughput, the
tracer's span bookkeeping, and BENCHMARK.json agreeing with the code."""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from check import compare_tree  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import metrics_of  # noqa: E402
from stats import Tally, calibrated, summarize  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import SpanIndex, Tracer  # noqa: E402
from workloads import WORKLOADS, cell_steps_per_s, time_levels  # noqa: E402

REFERENCE = BENCH / "reference"


def materialize(ref_dir: Path, out_dir: Path) -> None:
    """Build a program-shaped output tree from a stored reference."""
    for ref_report in ref_dir.rglob("report.json"):
        reduced = json.loads(ref_report.read_text())
        run = out_dir / ref_report.parent.relative_to(ref_dir)
        run.mkdir(parents=True, exist_ok=True)
        p, amplitude = reduced["point"]
        report = {
            "timestamp": "now",
            "timings": {"total_s": 1.0},
            "config": {"values": {"problem.p": repr(p), "data.amplitude": repr(amplitude)}},
            "outcome": reduced["outcome"],
            "audits": reduced["audits"],
        }
        (run / "report.json").write_text(json.dumps(report))
        shutil.copyfile(ref_report.parent / "series.csv", run / "series.csv")
        if reduced["snapshot_files"]:
            (run / "snapshots").mkdir()
            for i in range(reduced["snapshot_files"]):
                (run / "snapshots" / f"snap_{i:06d}.dwsn").write_bytes(b"")
    if (ref_dir / "sweep.csv").exists():
        shutil.copyfile(ref_dir / "sweep.csv", out_dir / "sweep.csv")


# -- percentiles and sample counts ------------------------------------------


def test_summarize_small_sample_reports_max():
    s = summarize([3.0, 1.0, 2.0, 5.0])
    assert s == {"median": 2.5, "upper": 5.0, "upper_pct": 100.0, "n": 4}


def test_summarize_keeps_ten_samples_beyond_upper():
    values = [float(v) for v in range(1, 31)]
    s = summarize(values)
    assert s["n"] == 30
    assert s["median"] == 15.5
    assert s["upper"] == 20.0
    assert sum(v > s["upper"] for v in values) == 10
    assert s["upper_pct"] == pytest.approx(200.0 / 3.0)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_calibration_scales_by_median_kernel_time():
    # a machine running the kernel at 0.05 s is twice as slow as the
    # 0.025 s reference, so its times halve
    assert calibrated([1.0, 3.0], [0.04, 0.05, 0.09], 0.025) == [0.5, 1.5]


# -- fail_ratio accounting ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_matches_itself(tmp_path, name):
    materialize(REFERENCE / name, tmp_path / "out")
    assert compare_tree(tmp_path / "out", REFERENCE / name) == []


def test_corrupted_reference_counts_as_failure(tmp_path):
    out = tmp_path / "out"
    materialize(REFERENCE / "fujita_1d", out)
    corrupt = tmp_path / "ref"
    shutil.copytree(REFERENCE / "fujita_1d", corrupt)
    lines = (corrupt / "series.csv").read_text().splitlines()
    row = lines[10].split(",")
    row[1] = repr(float(row[1]) * (1.0 + 1e-6))
    lines[10] = ",".join(row)
    (corrupt / "series.csv").write_text("\n".join(lines) + "\n")

    tally = Tally()
    tally.record(compare_tree(out, REFERENCE / "fujita_1d"))
    tally.record(compare_tree(out, corrupt))
    assert (tally.attempted, tally.failed, tally.fail_ratio) == (2, 1, 0.5)


def test_blowup_time_must_match_exactly(tmp_path):
    out = tmp_path / "out"
    materialize(REFERENCE / "sweep_1d", out)
    report_path = next(
        p for p in out.rglob("report.json")
        if json.loads(p.read_text())["outcome"]["status"] == "blew_up"
    )
    report = json.loads(report_path.read_text())
    report["outcome"]["blowup_time"] *= 1.0 + 1e-15
    report_path.write_text(json.dumps(report))
    problems = compare_tree(out, REFERENCE / "sweep_1d")
    assert any("blowup_time" in p for p in problems)


def test_seeded_audit_checked_by_passed_flag(tmp_path):
    out = tmp_path / "out"
    materialize(REFERENCE / "fujita_1d", out)
    report = json.loads((out / "report.json").read_text())
    report["audits"]["weight_residual"]["min_residual"] = 123.0
    (out / "report.json").write_text(json.dumps(report))
    assert compare_tree(out, REFERENCE / "fujita_1d") == []
    report["audits"]["weight_residual"]["passed"] = False
    (out / "report.json").write_text(json.dumps(report))
    assert compare_tree(out, REFERENCE / "fujita_1d") != []


# -- cell_steps_per_s -----------------------------------------------------------


def _fake_report(run_dir: Path, outcome: dict) -> None:
    run_dir.mkdir(parents=True)
    (run_dir / "report.json").write_text(json.dumps({"outcome": outcome}))


def test_cell_steps_from_solver_steps(tmp_path):
    _fake_report(tmp_path / "run", {"t_final": 200.0, "records": 801})
    levels = time_levels(WORKLOADS["fujita_1d"], tmp_path)
    assert levels == 4000
    assert cell_steps_per_s(WORKLOADS["fujita_1d"].grid_points, levels, 2.0) == 1024 * 4000 / 2.0


def test_cell_steps_from_evaluated_times(tmp_path):
    _fake_report(tmp_path / "run", {"t_final": 100.0, "records": 101})
    workload = WORKLOADS["linear_decay_2d"]
    assert time_levels(workload, tmp_path) == 101
    assert workload.grid_points == 256**2


def test_cell_steps_sum_over_sweep_points(tmp_path):
    _fake_report(tmp_path / "a", {"t_final": 20.0})
    _fake_report(tmp_path / "b", {"t_final": 0.15})
    assert time_levels(WORKLOADS["sweep_1d"], tmp_path) == 2000 + 15
    with pytest.raises(ValueError):
        cell_steps_per_s(512, 2015, 0.0)


# -- tracer ------------------------------------------------------------------------


def test_tracer_wraps_restores_and_reports_absent(tmp_path, monkeypatch):
    from dampedwave import experiments, solver
    from dampedwave.spectral import Grid

    removed = ("dampedwave.propagator", "no_such_function")
    monkeypatch.setitem(tracer_module.TARGETS, "propagator", (removed,))
    advance = solver.Stepper.advance
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        assert solver.Stepper.advance is not advance
        assert experiments.run is solver.run  # alias rebound with its module
        Grid(dim=1, half_width=10.0, points=16).freq_sq()
    finally:
        tracer.uninstall()
    assert solver.Stepper.advance is advance
    assert "propagator.no_such_function" in tracer.absent
    spans = SpanIndex(tracer.take())
    assert spans.count("spectral.Grid.freq_sq") == 1
    assert spans.count("numpy.fft.fftn") == 0


def test_self_time_subtracts_worker_coverage():
    main = [("experiments.sweep", 0.0, 10.0, -1, 0)]
    worker_a = [("experiments.simulate", 1.0, 6.0, -1, 0), ("solver.run", 2.0, 5.0, 0, 0)]
    worker_b = [("experiments.simulate", 4.0, 9.0, -1, 0)]
    spans = SpanIndex([main, worker_a, worker_b])
    assert spans.self_time("experiments") == pytest.approx(2.0 + 2.0 + 5.0)
    assert spans.count("experiments.simulate") == 2
    assert spans.inner_total(("experiments.simulate",), ("solver.run",)) == pytest.approx(7.0)


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    run = {
        "trace": 0,
        "wall_s": {"median": 1.0},
        "setup_s": {"median": 0.2},
        "peak_rss_mb": 50.0,
        "cell_steps_per_s": {"median": 4e6},
    }
    reported = metrics_of(run)
    assert [m["name"] for m in spec["end_to_end"]] == list(reported)
    assert all(m["unit"] == reported[m["name"]]["unit"] for m in spec["end_to_end"])
