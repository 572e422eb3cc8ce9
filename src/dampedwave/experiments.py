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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunSetup
from .exponents import (
    ckn_plain_interpolation,
    ckn_weighted_source,
    interpolation_exponents,
)
from .inequalities import gaussian_width_family, ratio_sweep
from .initial_data import gaussian_field, modulated_gaussian_field, zero_field
from .propagator import decay_profile
from .solver import RunOutcome, run
from .timeseries import decay_fit
from .weights import (
    MIN_AUDIT_SNAPSHOTS,
    decay_norm,
    energy_audit,
    residual_audit,
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


def _base_report(setup: RunSetup) -> dict:
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {
            "hash": setup.hash,
            "version": __version__,
            "values": dict(sorted(setup.raw.items())),
            "warnings": list(setup.warnings),
        },
        "exponents": exponent_report(setup),
        "audits": {},
        "outcome": {},
        "timings": {},
    }


def _write_report(report: dict, out_dir: Path) -> Path:
    path = out_dir / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, allow_nan=False, sort_keys=True)
        fh.write("\n")
    return path


def _outcome_dict(outcome: RunOutcome) -> dict:
    rows = outcome.series.finite_rows()
    x_norm = None
    if rows["t"].size:
        x_norm = decay_norm(outcome.series)
    return {
        "status": outcome.status.value,
        "blowup_time": outcome.blowup_time,
        "t_final": outcome.final_state.t,
        "records": len(outcome.series),
        "x_norm": x_norm,
    }


def simulate(
    setup: RunSetup,
    out_dir,
    snapshot_every: float | None = None,
    seed: int = 0,
    audit_samples: int = 200_000,
) -> dict:
    """Full semilinear run with artifacts and audits.

    Snapshots (when requested) are written to ``out_dir/snapshots`` as
    the run takes them, and their rows feed the energy and source-bound
    audits; the weight-slack Monte-Carlo audit runs regardless, seeded
    for reproducibility.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = _base_report(setup)
    t0 = time.perf_counter()

    data = build_data(setup)
    snap_dir = None if snapshot_every is None else out_dir / "snapshots"
    outcome = run(setup.solver, data, snapshot_every=snapshot_every, snapshot_dir=snap_dir)
    run_s = time.perf_counter() - t0

    outcome.series.to_csv(out_dir / "series.csv")

    audits = report["audits"]
    audits["weight_residual"] = residual_audit(samples=audit_samples, seed=seed).to_dict()
    rows = outcome.snapshots
    if len(rows) >= MIN_AUDIT_SNAPSHOTS:
        audits["energy"] = energy_audit(rows, setup.problem.p).to_dict()
        audits["source_bound"] = source_bound_audit(
            rows, outcome.series, setup.problem.p
        ).to_dict()

    report["outcome"] = _outcome_dict(outcome)
    report["timings"] = {
        "run_s": run_s,
        "total_s": time.perf_counter() - t0,
    }
    _write_report(report, out_dir)
    return report


def linear_decay(setup: RunSetup, out_dir) -> dict:
    """Exact linear flow on the configured data plus log-log rate fits.

    Expected slopes follow the L^1 -> L^2 decay estimates of the linear
    flow: -N/4 for u, -N/4 - 1/2 for the gradient, -N/4 - 1 for u_t.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = _base_report(setup)
    t0 = time.perf_counter()

    data = build_data(setup)
    spacing = setup.solver.dt * setup.solver.record_every
    times = np.arange(0.0, setup.solver.t_end + 0.5 * spacing, spacing)
    series = decay_profile(data, times, weight=setup.weight)
    series.to_csv(out_dir / "series.csv")

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
    report["audits"]["decay_fits"] = fits
    report["outcome"] = {
        "status": "completed",
        "blowup_time": None,
        "t_final": float(times[-1]),
        "records": len(series),
        "x_norm": decay_norm(series),
    }
    report["timings"] = {"total_s": time.perf_counter() - t0}
    _write_report(report, out_dir)
    return report


def energy_audit_experiment(
    setup: RunSetup, out_dir, snapshot_every: float | None = None, seed: int = 0
) -> dict:
    """Semilinear run with snapshots dense enough for the trajectory
    audits: every ``snapshot_every`` time units (default 0.5), tightened
    so that the run keeps at least MIN_AUDIT_SNAPSHOTS of them."""
    if snapshot_every is None:
        snapshot_every = 0.5
    span = setup.solver.t_end / (MIN_AUDIT_SNAPSHOTS - 1)
    return simulate(
        setup,
        out_dir,
        snapshot_every=min(snapshot_every, span),
        seed=seed,
        audit_samples=1_000_000,
    )


def ckn_check(setup: RunSetup, out_dir) -> dict:
    """Admissibility plus width-family ratio sweeps for the interpolation
    inequalities behind the configured problem."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = _base_report(setup)
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
    report["audits"]["ckn"] = cases
    report["outcome"] = {"status": "completed"}
    report["timings"] = {"total_s": time.perf_counter() - t0}
    _write_report(report, out_dir)
    return report


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _sweep_point(args):
    setup, p, amplitude, point_dir = args
    try:
        point_setup = _override(setup, p, amplitude)
        report = simulate(point_setup, point_dir, audit_samples=10_000)
        outcome = report["outcome"]
        return {
            "p": p,
            "amplitude": amplitude,
            "status": outcome["status"],
            "blowup_time": outcome["blowup_time"],
            "x_norm": outcome["x_norm"],
        }
    except Exception as exc:  # per-point failures must not kill the sweep
        return {
            "p": p,
            "amplitude": amplitude,
            "status": f"error: {exc}",
            "blowup_time": None,
            "x_norm": None,
        }


def _override(setup: RunSetup, p: float, amplitude: float) -> RunSetup:
    from .config import load_setup_text

    pairs = dict(setup.raw)
    pairs.pop("sweep.p", None)
    pairs.pop("sweep.amplitude", None)
    pairs["problem.p"] = repr(p)
    pairs["data.amplitude"] = repr(amplitude)
    text = "\n".join(f"{k} = {v}" for k, v in sorted(pairs.items()))
    return load_setup_text(text)


def sweep(setup: RunSetup, out_dir, workers: int | None = None) -> list[dict]:
    """One run per (p, amplitude) grid point, executed in parallel with
    isolated state; the aggregate CSV is written by this process only."""
    if not setup.sweep_p or not setup.sweep_amplitude:
        raise ValueError("sweep needs nonempty sweep.p and sweep.amplitude lists")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = []
    for p in setup.sweep_p:
        for amplitude in setup.sweep_amplitude:
            point_dir = out_dir / f"run_p{p:g}_amp{amplitude:g}"
            tasks.append((setup, p, amplitude, point_dir))

    if workers is None:
        workers = min(len(tasks), 4)
    if workers <= 1:
        rows = [_sweep_point(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))

    with open(out_dir / "sweep.csv", "w", encoding="ascii") as fh:
        fh.write("p,amplitude,status,blowup_time,x_norm\n")
        for row in rows:
            blowup = row["blowup_time"]
            x_norm = row["x_norm"]
            # error messages may carry commas or newlines; keep the row flat
            status = str(row["status"]).replace(",", ";").replace("\n", " ")
            fh.write(
                "%.17g,%.17g,%s,%s,%s\n"
                % (
                    row["p"],
                    row["amplitude"],
                    status,
                    "nan" if blowup is None else "%.17g" % blowup,
                    "nan" if x_norm is None else "%.17g" % x_norm,
                )
            )
    return rows
