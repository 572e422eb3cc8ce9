import json
from pathlib import Path

import numpy as np
import pytest

from dampedwave import diagnostics, experiments, weights
from dampedwave.cli import main
from dampedwave.config import ConfigError, load_setup
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


FUJITA = Path(__file__).resolve().parents[1] / "configs" / "fujita_n1_p4.cfg"
SUBFUJITA = FUJITA.with_name("subfujita_blowup.cfg")


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


@pytest.mark.parametrize("key, value", [
    ("solver.t_end", "inf"),
    ("grid.L", "inf"),
    ("weight.A", "nan"),
    ("weight.A", "inf"),
    ("solver.blowup_threshold", "inf"),
    ("problem.p", "inf"),
    ("data.width", "-1"),
    ("data.width", "0"),
    ("data.width", "nan"),
    ("data.u1_width", "0"),
    ("data.amplitude", "nan"),
    ("data.u1_amplitude", "inf"),
    ("data.center", "inf"),
    ("data.center", "1e300"),
    ("data.center", "20.0"),
    ("fit.t_min", "nan"),
])
def test_non_finite_setting_exits_2_before_any_step(tmp_path, capsys, key, value):
    lines = [l for l in SUBFUJITA.read_text().splitlines() if not l.startswith(key + " ")]
    cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, name, key, value", [
    ("sweep", "sweep_phase_n1", "data.width", "-1"),
    ("linear-decay", "linear_decay_n1", "fit.t_min", "nan"),
])
def test_data_setting_is_refused_before_sweep_and_linear_decay(tmp_path, capsys, verb, name, key, value):
    shipped = FUJITA.with_name(f"{name}.cfg").read_text().splitlines()
    lines = [l for l in shipped if not l.startswith(key + " ")]
    cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]))
    out = tmp_path / "o"
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: key {key!r}")
    assert not out.exists()


def test_report_that_is_not_json_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(
        experiments, "slack_audit", lambda *args: weights.SlackAudit(1, float("nan"))
    )
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="not JSON compliant"):
        experiments.simulate(load_setup(write_cfg(tmp_path, SMALL)), out)
    assert not (out / "report.json").exists()


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


def test_energy_audit_refuses_too_few_steps(tmp_path, capsys):
    # 20 steps give at most 21 snapshots, fewer than the 50 the audits
    # need: the verb stops before stepping instead of writing a report
    # without them
    text = FUJITA.read_text().replace("solver.dt = 0.05", "solver.dt = 0.5")
    text = text.replace("solver.t_end = 200.0", "solver.t_end = 10.0")
    cfg = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match="at least 49 steps"):
        experiments.energy_audit_experiment(load_setup(cfg), tmp_path / "direct")
    out = tmp_path / "out"
    assert main(["energy-audit", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    # 49 steps are enough for the 50 snapshots
    text = text.replace("solver.t_end = 10.0", "solver.t_end = 24.5")
    report = experiments.energy_audit_experiment(load_setup(write_cfg(tmp_path, text)), out)
    assert report["audits"]["energy"]["snapshots"] == 50


def test_energy_audit_measures_each_state_once(monkeypatch, tmp_path):
    # all 401 snapshots of energy-audit fujita_n1_p4 fall on its 801
    # records: each of the 801 states has its weighted energy computed
    # once, in calls that each measure a stack of states
    calls = []
    original = weights.spectral_energy

    def counted(*args):
        energies = original(*args)
        calls.append(np.size(energies))
        return energies

    for module in (weights, diagnostics):
        monkeypatch.setattr(module, "spectral_energy", counted)
    report = experiments.energy_audit_experiment(load_setup(FUJITA), tmp_path)
    assert report["outcome"]["records"] == 801
    assert report["audits"]["energy"]["snapshots"] == 401
    assert sum(calls) == 801


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


SWEEP_GRID = BLOWUP.replace("solver.t_end = 4.0", "solver.t_end = 3.0")


@pytest.fixture(scope="module")
def grid_sweep(tmp_path_factory):
    """A 2x2 sweep with two blow-up points, run once for the module."""
    root = tmp_path_factory.mktemp("grid_sweep")
    cfg = write_cfg(root, SWEEP_GRID + "sweep.p = 2.0, 4.0\nsweep.amplitude = 0.01, 5.0\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(root / "out")]) == 0
    return root / "out"


@pytest.mark.parametrize(
    "p, amplitude",
    [(2.0, 0.01), (2.0, 5.0), (4.0, 0.01), (4.0, 5.0)],
    ids=["p2-amp0.01", "p2-amp5", "p4-amp0.01", "p4-amp5"],
)
def test_sweep_single_point_matches_simulate(grid_sweep, tmp_path, p, amplitude):
    # every point of the ensemble is a plain simulate of the same parameters
    point = grid_sweep / f"run_p{p:g}_amp{amplitude:g}"
    text = SWEEP_GRID.replace("problem.p = 2.0", f"problem.p = {p!r}").replace(
        "data.amplitude = 5.0", f"data.amplitude = {amplitude!r}"
    )
    plain_cfg = write_cfg(tmp_path, text, name="plain.cfg")
    assert main(["simulate", "--config", str(plain_cfg), "--out", str(tmp_path / "p")]) == 0
    assert (point / "series.csv").read_bytes() == (tmp_path / "p" / "series.csv").read_bytes()
    point_report = load_report(point)
    # the whole report: the point's config is simulate's, key for key
    assert strip_volatile(point_report) == strip_volatile(load_report(tmp_path / "p"))
    assert point_report["config"]["values"]["problem.p"] == repr(p)
    timings = point_report["timings"]
    assert 0.0 < timings["run_s"] <= timings["total_s"]


def test_sweep_runs_one_residual_audit(monkeypatch, tmp_path):
    # the weight-slack audit reads only the grid, weight and t_end, which
    # every point shares: one evaluation serves every point, and each
    # report carries it
    calls = []
    original = experiments.slack_audit

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, "slack_audit", counted)
    cfg = write_cfg(tmp_path, SMALL + "sweep.p = 2.0, 4.0\nsweep.amplitude = 0.01, 0.02\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    setup = load_setup(cfg)
    assert calls == [(5.0, setup.grid, setup.weight)]
    expected = original(5.0, setup.grid, setup.weight).to_dict()
    assert expected["points"] == setup.grid.radius_levels().size and expected["passed"]
    points = sorted(path for path in out.iterdir() if path.is_dir())
    assert len(points) == 4
    for point in points:
        assert load_report(point)["audits"]["weight_residual"] == expected


@pytest.mark.parametrize(
    "bad_point, message",
    [
        # p = 1.0 is invalid and fails when the point's config is built
        ("sweep.p = 1.0, 4.0\nsweep.amplitude = 0.01\n", "p must be > 1"),
        # the source of p = 4, amplitude 1e100 overflows at the initial data
        ("sweep.p = 4.0\nsweep.amplitude = 1e100, 0.01\n", "overflows"),
    ],
    ids=["invalid_p", "initial_overflow"],
)
def test_sweep_continues_past_point_failures(tmp_path, bad_point, message):
    # the other points still run and the failure lands in the aggregate
    text = SMALL + bad_point
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    statuses = [line.split(",")[2] for line in lines[1:]]
    assert {status.split(":")[0] for status in statuses} == {"error", "completed"}
    assert any(message in status for status in statuses)


def test_sweep_points_with_equal_short_names_get_distinct_directories(tmp_path):
    # %g maps both powers to "2"; the colliding points fall back to %.17g
    # names, so neither overwrites the other's artifacts
    text = SMALL + "sweep.p = 2.0, 2.0000001, 4.0\nsweep.amplitude = 0.01\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    names = {path.name for path in out.iterdir() if path.is_dir()}
    close = f"run_p{2.0000001:.17g}_amp0.01"
    assert close != "run_p2_amp0.01"
    assert names == {"run_p2_amp0.01", close, "run_p4_amp0.01"}
    for name, p in (("run_p2_amp0.01", 2.0), (close, 2.0000001)):
        assert load_report(out / name)["config"]["values"]["problem.p"] == repr(p)


@pytest.mark.parametrize(
    "lists, key",
    [
        ("sweep.p = 4.0, 4.0\nsweep.amplitude = 0.01\n", "sweep.p"),
        ("sweep.p = 4.0\nsweep.amplitude = 0.01, 0.02, 1e-2\n", "sweep.amplitude"),
    ],
    ids=["p", "amplitude"],
)
def test_sweep_with_a_repeated_value_exits_2(tmp_path, capsys, lists, key):
    # two equal points would write one directory under both names, so
    # the config is refused before anything is written
    cfg = write_cfg(tmp_path, SMALL + lists)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(key) in err and "repeated" in err
    assert not out.exists()


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


@pytest.mark.parametrize("args", [
    ["--p", "3.0"],
    ["--p", "4", "--lambda", "1.0"],
    ["--p", "4", "--lambda", "inf"],
    ["--p", "4", "--lambda", "nan"],
])
def test_exponents_verb_prints_no_table_on_error(args, capsys):
    assert main(["exponents", "--dim", "1", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_exponents_verb_rejects_critical_power(capsys):
    assert main(["exponents", "--dim", "1", "--p", "3.0"]) == 2


@pytest.mark.parametrize("dim", ["1", "2"])
def test_exponents_verb_rejects_an_infinite_power(dim, capsys):
    # the admissible range is (p_F, inf] for dim <= 2, but no weight
    # power threshold is computed for an infinite p
    assert main(["exponents", "--dim", dim, "--p", "inf"]) == 2
    captured = capsys.readouterr()
    assert "lambda_min" not in captured.out and "lambda =" not in captured.out
    assert captured.err.startswith("error: p=inf outside the admissible range")


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_exponents_verb_rejects_a_dimension_below_one(dim, capsys):
    assert main(["exponents", "--dim", dim, "--p", "3.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "dimension" in captured.err
    assert "Traceback" not in captured.err
