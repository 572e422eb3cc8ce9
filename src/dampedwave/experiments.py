"""Experiment orchestration: runs, artifacts, reports, sweeps.

Each experiment is deterministic given its config; artifacts are a
series CSV, a JSON report and optional binary snapshots, all inside the
chosen output directory.  The report embeds the config hash, the library
version and every audit result; the only fields that vary between
identical invocations are the timestamp and the wall-clock timings.
"""

from __future__ import annotations

import datetime
import json
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunSetup, load_setup_text
from .exponents import (
    ckn_plain_interpolation,
    ckn_weighted_source,
    interpolation_exponents,
)
from .inequalities import gaussian_width_family, ratio_sweep
from .initial_data import gaussian_field, modulated_gaussian_field, zero_field
from .propagator import decay_profile
from .solver import run, run_ensemble
from .timeseries import TimeSeries, decay_fit
from .weights import (
    MIN_AUDIT_SNAPSHOTS,
    decay_norm,
    energy_audit,
    slack_audit,
    source_bound_audit,
)


def build_data(setup: RunSetup):
    """Initial (u, u_t) pair from the data spec."""
    spec = setup.data
    builders = {
        "gaussian": gaussian_field,
        "modulated_gaussian": modulated_gaussian_field,
    }
    make = builders[spec.kind]
    u0 = make(setup.grid, spec.amplitude, spec.width, spec.center)
    if spec.u1_amplitude == 0.0:
        u1 = zero_field(setup.grid)
    else:
        u1 = make(setup.grid, spec.u1_amplitude, spec.u1_width, spec.center)
    return u0, u1


def exponent_report(setup: RunSetup) -> dict:
    problem = setup.problem
    report: dict = {
        "dim": problem.dim,
        "p": problem.p,
        "lambda": problem.weight_power,
    }
    try:
        exps = interpolation_exponents(problem)
    except ValueError as exc:
        report["valid"] = False
        report["note"] = str(exc)
        return report
    report["valid"] = True
    report.update(asdict(exps))
    if np.isinf(exps.p_max):
        report["p_max"] = None
    return report


def _report(setup: RunSetup, out_dir: Path, audits: dict, outcome: dict, timings: dict) -> dict:
    """Assemble an experiment's report and write it to ``out_dir/report.json``,
    making the directory if need be.  A report that is not strict JSON
    raises before the file is opened."""
    report = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {
            "hash": setup.hash,
            "version": __version__,
            "values": dict(sorted(setup.raw.items())),
            "warnings": list(setup.warnings),
        },
        "exponents": exponent_report(setup),
        "audits": audits,
        "outcome": outcome,
        "timings": timings,
    }
    text = json.dumps(report, indent=2, allow_nan=False, sort_keys=True) + "\n"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(text, encoding="utf-8")
    return report


def _write_run(
    setup: RunSetup, out_dir: Path, audits: dict, status: str, blowup_time: float | None,
    series: TimeSeries, t_final: float, timings: dict, t0: float,
) -> dict:
    """Write a run's ``report.json``, its outcome built from ``status``,
    ``blowup_time``, ``series`` and ``t_final`` and its ``timings`` ended
    by ``total_s``, the time since ``t0``; then write its ``series.csv``
    and return the report."""
    outcome = {
        "status": status,
        "blowup_time": blowup_time,
        "t_final": t_final,
        "records": len(series),
        "x_norm": decay_norm(series) if series.finite_rows()["t"].size else None,
    }
    timings["total_s"] = time.perf_counter() - t0
    report = _report(setup, out_dir, audits, outcome, timings)
    series.to_csv(out_dir / "series.csv")
    return report


def simulate(setup: RunSetup, out_dir, snapshot_every: float | None = None) -> dict:
    """Full semilinear run with artifacts and audits.

    Snapshots (when requested) are written to ``out_dir/snapshots`` as
    the run takes them, and their rows feed the energy and source-bound
    audits; the slack of the run's own weight on its grid at t_end
    (:func:`~dampedwave.weights.slack_audit`) is audited regardless.
    """
    out_dir = Path(out_dir)
    t0 = time.perf_counter()
    data = build_data(setup)
    snap_dir = None if snapshot_every is None else out_dir / "snapshots"
    outcome = run(setup.solver, data, snapshot_every=snapshot_every, snapshot_dir=snap_dir)
    run_s = time.perf_counter() - t0
    slack = slack_audit(setup.solver.t_end, setup.grid, setup.weight)
    audits, rows, p = {"weight_residual": slack.to_dict()}, outcome.snapshots, setup.problem.p
    if len(rows) >= MIN_AUDIT_SNAPSHOTS:
        audits["energy"] = energy_audit(rows, p).to_dict()
        audits["source_bound"] = source_bound_audit(rows, outcome.series, p).to_dict()
    return _write_run(
        setup, out_dir, audits, outcome.status.value, outcome.blowup_time, outcome.series,
        outcome.final_state.t, {"run_s": run_s}, t0,
    )


def linear_decay(setup: RunSetup, out_dir) -> dict:
    """Exact linear flow on the configured data plus log-log rate fits.

    Expected slopes follow the L^1 -> L^2 decay estimates of the linear
    flow: -N/4 for u, -N/4 - 1/2 for the gradient, -N/4 - 1 for u_t.
    """
    out_dir = Path(out_dir)
    t0 = time.perf_counter()
    data = build_data(setup)
    spacing = setup.solver.dt * setup.solver.record_every
    times = np.arange(0.0, setup.solver.t_end + 0.5 * spacing, spacing)
    series = decay_profile(data, times, weight=setup.weight)

    quarter = 0.25 * setup.problem.dim
    expected = {
        "l2_u": -quarter,
        "l2_grad_u": -(quarter + 0.5),
        "l2_ut": -(quarter + 1.0),
    }
    fits = {}
    for column, target in expected.items():
        slope, stderr = decay_fit(series, column, setup.fit_t_min)
        fits[column] = {
            "slope": slope,
            "stderr": stderr,
            "expected": target,
            "deviation": slope - target,
        }
    return _write_run(
        setup, out_dir, {"decay_fits": fits}, "completed", None, series, float(times[-1]), {}, t0
    )


def energy_audit_experiment(setup: RunSetup, out_dir, snapshot_every: float | None = None) -> dict:
    """Semilinear run with snapshots dense enough for the trajectory
    audits: every ``snapshot_every`` time units (default 0.5), tightened
    so that the run keeps at least MIN_AUDIT_SNAPSHOTS of them.  A run
    takes at most one snapshot per step, so a config with fewer than
    MIN_AUDIT_SNAPSHOTS - 1 steps is a ConfigError, raised before any
    step."""
    solver = setup.solver
    if round(solver.t_end / solver.dt) + 1 < MIN_AUDIT_SNAPSHOTS:
        raise ConfigError(
            f"energy-audit needs at least {MIN_AUDIT_SNAPSHOTS - 1} steps for its "
            f"{MIN_AUDIT_SNAPSHOTS} snapshots; t_end/dt = {solver.t_end / solver.dt:g}",
            key="solver.t_end",
        )
    if snapshot_every is None:
        snapshot_every = 0.5
    span = solver.t_end / (MIN_AUDIT_SNAPSHOTS - 1)
    return simulate(setup, out_dir, snapshot_every=min(snapshot_every, span))


def ckn_check(setup: RunSetup, out_dir) -> dict:
    """Admissibility plus width-family ratio sweeps for the interpolation
    inequalities behind the configured problem."""
    t0 = time.perf_counter()
    family = gaussian_width_family()
    cases = {}
    problem = setup.problem
    instantiations = {
        "plain_lp1": lambda: ckn_plain_interpolation(problem.dim, problem.p + 1.0),
        "weighted_lp1": lambda: ckn_weighted_source(problem),
    }
    for name, build in instantiations.items():
        try:
            params = build()
        except ValueError as exc:
            cases[name] = {"admissible": False, "note": str(exc)}
            continue
        sweep_report = ratio_sweep(family, params)
        spread = max(sweep_report.ratios) / min(sweep_report.ratios) - 1.0
        cases[name] = {
            "admissible": True,
            "params": {**asdict(params), "gamma": params.gamma},
            "max_ratio": sweep_report.max_ratio,
            "scale_spread": spread,
        }
    timings = {"total_s": time.perf_counter() - t0}
    return _report(setup, Path(out_dir), {"ckn": cases}, {"status": "completed"}, timings)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("p", "amplitude", "status", "blowup_time", "x_norm")


def _cell(value) -> str:
    """One ``sweep.csv`` field; an error message's text is kept in its cell and row."""
    if value is None:
        return "nan"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value).replace(",", ";").replace("\n", " ")


def _override(setup: RunSetup, p: float, amplitude: float) -> RunSetup:
    pairs = dict(setup.raw)
    pairs.pop("sweep.p", None)
    pairs.pop("sweep.amplitude", None)
    pairs["problem.p"] = repr(p)
    pairs["data.amplitude"] = repr(amplitude)
    text = "\n".join(f"{k} = {v}" for k, v in sorted(pairs.items()))
    return load_setup_text(text)


def _point_dirs(out_dir: Path, points: list[tuple[float, float]]) -> list[Path]:
    """``run_p{p:g}_amp{amplitude:g}`` per point, or the ``%.17g`` name
    for points whose ``%g`` names collide."""
    short = [f"run_p{p:g}_amp{amplitude:g}" for p, amplitude in points]
    counts = Counter(short)
    return [
        out_dir / (name if counts[name] == 1 else f"run_p{p:.17g}_amp{amplitude:.17g}")
        for name, (p, amplitude) in zip(short, points)
    ]


def sweep(setup: RunSetup, out_dir) -> list[dict]:
    """One run per (p, amplitude) grid point, all stepped together as one
    ensemble in this process (memory is about the number of points times
    one run's fields).  Each point writes the artifacts of
    :func:`simulate` into its own directory.  The weight-slack audit
    reads only the grid, weight and t_end, which every point shares, so
    it runs once and every report carries it.  A point's
    ``timings.run_s`` is the wall time of the shared work (building
    every point's data, stepping them as one ensemble and the one
    audit) and ``total_s`` adds the point's own post-run time.  A point
    that fails (its config, its initial source or its artifacts) gets an
    ``error: ...`` row and the others still run."""
    if not setup.sweep_p or not setup.sweep_amplitude:
        raise ConfigError("sweep needs nonempty value lists", key="sweep.p/sweep.amplitude")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    points = [(p, amplitude) for p in setup.sweep_p for amplitude in setup.sweep_amplitude]

    t0 = time.perf_counter()
    results: list = [None] * len(points)  # each point's outcome dict or exception
    members = []
    for index, (p, amplitude) in enumerate(points):
        try:
            point_setup = _override(setup, p, amplitude)
            members.append((index, point_setup, build_data(point_setup)))
        except Exception as exc:  # per-point failures must not kill the sweep
            results[index] = exc
    cfgs = [point_setup.solver for _, point_setup, _ in members]
    outcomes = run_ensemble(cfgs, [data for _, _, data in members])
    slack = slack_audit(setup.solver.t_end, setup.grid, setup.weight)
    run_s = time.perf_counter() - t0

    point_dirs = _point_dirs(out_dir, points)
    for (index, point_setup, _), outcome in zip(members, outcomes):
        try:
            if isinstance(outcome, Exception):
                raise outcome
            results[index] = _write_run(
                point_setup, point_dirs[index], {"weight_residual": slack.to_dict()},
                outcome.status.value, outcome.blowup_time, outcome.series, outcome.final_state.t,
                {"run_s": run_s}, time.perf_counter() - run_s,
            )["outcome"]
        except Exception as exc:
            results[index] = exc

    rows = []
    for (p, amplitude), result in zip(points, results):
        if isinstance(result, Exception):
            result = {**dict.fromkeys(SWEEP_COLUMNS), "status": f"error: {result}"}
        rows.append({"p": p, "amplitude": amplitude, **{k: result[k] for k in SWEEP_COLUMNS[2:]}})
    with open(out_dir / "sweep.csv", "w", encoding="ascii") as fh:
        for cells in [SWEEP_COLUMNS, *(row.values() for row in rows)]:
            fh.write(",".join(map(_cell, cells)) + "\n")
    return rows
