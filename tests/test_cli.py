import json

import numpy as np
import pytest

from dampedwave.cli import main
from dampedwave.snapshots import read_snapshot
from dampedwave.timeseries import TimeSeries

SMALL = """
problem.dim = 1
problem.p = 4.0
weight.lambda = 2.0
weight.A = 4.0
grid.L = 40.0
grid.M = 128
solver.dt = 0.05
solver.t_end = 5.0
data.amplitude = 0.01
data.width = 2.0
"""

BLOWUP = """
problem.dim = 1
problem.p = 2.0
weight.lambda = 2.0
weight.A = 4.0
grid.L = 20.0
grid.M = 128
solver.dt = 0.01
solver.t_end = 4.0
data.amplitude = 5.0
data.width = 2.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def load_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def strip_volatile(report):
    clean = dict(report)
    clean.pop("timestamp", None)
    clean.pop("timings", None)
    return clean


def test_simulate_produces_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = load_report(out)
    assert set(report) >= {"config", "exponents", "audits", "outcome", "timings", "timestamp"}
    assert report["outcome"]["status"] == "completed"
    assert report["exponents"]["lambda_min"] == 1.75
    assert report["config"]["hash"]
    assert report["audits"]["weight_residual"]["passed"]
    series = TimeSeries.from_csv(out / "series.csv")
    assert len(series) > 5


def test_simulate_snapshots_round_trip(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--snapshots", "1.0"]
    ) == 0
    snaps = sorted((out / "snapshots").glob("*.dwsn"))
    assert len(snaps) == 6
    state, meta = read_snapshot(snaps[0])
    assert meta.p == 4.0
    assert state.t == 0.0


@pytest.mark.parametrize("verb", ["simulate", "energy-audit"])
@pytest.mark.parametrize("every", ["0", "-0.5"])
def test_nonpositive_snapshot_spacing_exits_2(tmp_path, verb, every):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", str(cfg), "--out", str(out), "--snapshots", every])
    assert exc.value.code == 2
    assert not out.exists()


def test_missing_key_exits_2(tmp_path, capsys):
    bad = "\n".join(l for l in SMALL.splitlines() if "problem.p" not in l)
    cfg = write_cfg(tmp_path, bad)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "problem.p" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == 2


def test_blowup_run_exit_codes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOWUP)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = load_report(out)
    assert report["outcome"]["status"] == "blew_up"
    assert report["outcome"]["blowup_time"] is not None
    # the same run is a failure when the caller demanded global existence
    assert (
        main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "out2"),
                "--expect-global",
            ]
        )
        == 1
    )
    # subcritical p also prints a prominent warning
    assert "warning" in capsys.readouterr().err


def test_report_determinism(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert strip_volatile(load_report(out1)) == strip_volatile(load_report(out2))
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_linear_decay_report(tmp_path):
    text = SMALL.replace("solver.t_end = 5.0", "solver.t_end = 40.0")
    text = text.replace("grid.L = 40.0", "grid.L = 80.0")
    text = text.replace("grid.M = 128", "grid.M = 256")
    text += "fit.t_min = 5.0\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["linear-decay", "--config", str(cfg), "--out", str(out)]) == 0
    report = load_report(out)
    fits = report["audits"]["decay_fits"]
    assert set(fits) == {"l2_u", "l2_grad_u", "l2_ut"}
    assert fits["l2_u"]["expected"] == -0.25
    assert abs(fits["l2_u"]["deviation"]) < 0.1


def test_energy_audit_verb(tmp_path):
    text = SMALL.replace("solver.t_end = 5.0", "solver.t_end = 15.0")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["energy-audit", "--config", str(cfg), "--out", str(out)]) == 0
    report = load_report(out)
    assert report["audits"]["energy"]["violation"] <= 1e-4
    assert report["audits"]["source_bound"]["applicable"]


def test_ckn_check_verb(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["ckn-check", "--config", str(cfg), "--out", str(out)]) == 0
    cases = load_report(out)["audits"]["ckn"]
    assert cases["plain_lp1"]["admissible"]
    assert cases["weighted_lp1"]["admissible"]
    assert cases["weighted_lp1"]["scale_spread"] < 1e-6
    assert np.isfinite(cases["weighted_lp1"]["max_ratio"])


def test_sweep_grid(tmp_path):
    text = BLOWUP.replace("solver.t_end = 4.0", "solver.t_end = 3.0")
    text += "sweep.p = 2.0, 4.0\nsweep.amplitude = 0.01, 5.0\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "p,amplitude,status,blowup_time,x_norm"
    assert len(lines) == 5  # header + 2x2 grid
    rows = [line.split(",") for line in lines[1:]]
    by_point = {(float(r[0]), float(r[1])): r[2] for r in rows}
    # small-amplitude supercritical point completes; large-amplitude
    # points blow up on both sides of the critical power
    assert by_point[(4.0, 0.01)] == "completed"
    assert by_point[(4.0, 5.0)] == "blew_up"
    assert by_point[(2.0, 5.0)] == "blew_up"
    # per-point artifacts exist
    assert (out / "run_p4_amp0.01" / "report.json").exists()


def test_sweep_single_point_matches_simulate(tmp_path):
    text = SMALL + "sweep.p = 4.0\nsweep.amplitude = 0.01\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    point_report = load_report(out / "run_p4_amp0.01")
    # the embedded run is a plain simulate of the same parameters
    plain_cfg = write_cfg(tmp_path, SMALL, name="plain.cfg")
    assert main(["simulate", "--config", str(plain_cfg), "--out", str(tmp_path / "p")]) == 0
    plain_report = load_report(tmp_path / "p")
    assert point_report["outcome"]["x_norm"] == plain_report["outcome"]["x_norm"]


def test_sweep_continues_past_point_failures(tmp_path):
    # p = 1.0 is invalid and fails at the point level; the other points
    # still run and the failure lands in the aggregate
    text = SMALL + "sweep.p = 1.0, 4.0\nsweep.amplitude = 0.01\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    statuses = {line.split(",")[2].split(":")[0] for line in lines[1:]}
    assert "error" in statuses and "completed" in statuses


def test_sweep_without_lists_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "sweep.p" in capsys.readouterr().err


def test_exponents_verb(capsys):
    assert main(["exponents", "--dim", "1", "--p", "4.0", "--lambda", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "p_fujita = 3" in out
    assert "lambda_min = 1.75" in out
    assert "theta_weighted = 0.5" in out
    assert "budget_l2p = -1.75" in out


def test_exponents_verb_rejects_critical_power(capsys):
    assert main(["exponents", "--dim", "1", "--p", "3.0"]) == 2
