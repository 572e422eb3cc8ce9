"""Per-layer metrics of one traced call, from its spans and artifacts.

The layers are the modules of ``src/dampedwave``; README.md says which
end-to-end metric each layer metric should move, on which workload.
``exponents``, ``inequalities`` and ``cli`` are not traced: exponents
run once per report in microseconds, inequalities only serve
``ckn-check``, and the CLI is a thin dispatcher.
"""

from __future__ import annotations

import csv
from pathlib import Path

from tracer import TARGETS, SpanIndex
from workloads import reports

FFTS = ("numpy.fft.fftn", "numpy.fft.ifftn", "numpy.fft.rfftn", "numpy.fft.irfftn")
MULTIPLIERS = ("spectral.greens_multiplier", "spectral.greens_multiplier_dt")
GRID_ARRAYS = (
    "spectral.Grid.freq_sq",
    "spectral.Grid.radius_sq",
    "spectral.Grid.boundary_mask",
    "spectral.Grid.coords",
)
ADVANCE = "solver.Stepper.advance"
RUN_OWNERS = ("experiments.simulate", "experiments.linear_decay")
RUN_PARTS = ("solver.run", "propagator.decay_profile", "experiments.build_data")

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "solver.steps": ("count", "lower"),
    "solver.step_us": ("us", "lower"),
    "solver.source_calls": ("count", "lower"),
    "solver.source_s": ("s", "lower"),
    "solver.run_s": ("s", "lower"),
    "solver.blowups": ("count", "lower"),
    "spectral.fft_calls": ("count", "lower"),
    "spectral.fft_s": ("s", "lower"),
    "spectral.fft_points": ("count", "lower"),
    "spectral.ffts_per_step": ("ratio", "lower"),
    "spectral.multiplier_calls": ("count", "lower"),
    "spectral.multiplier_s": ("s", "lower"),
    "spectral.grid_array_calls": ("count", "lower"),
    "spectral.grid_array_s": ("s", "lower"),
    "spectral.boundary_checks": ("count", "lower"),
    "spectral.boundary_s": ("s", "lower"),
    "propagator.evolve_calls": ("count", "lower"),
    "propagator.evolve_s": ("s", "lower"),
    "propagator.decay_profile_s": ("s", "lower"),
    "diagnostics.records": ("count", "lower"),
    "diagnostics.measure_us": ("us", "lower"),
    "weights.residual_audit_s": ("s", "lower"),
    "weights.energy_audit_s": ("s", "lower"),
    "weights.source_bound_audit_s": ("s", "lower"),
    "weights.weighted_energy_calls": ("count", "lower"),
    "snapshots.writes": ("count", "lower"),
    "snapshots.write_s": ("s", "lower"),
    "snapshots.bytes": ("B", "lower"),
    "timeseries.csv_s": ("s", "lower"),
    "timeseries.csv_bytes": ("B", "lower"),
    "timeseries.fit_s": ("s", "lower"),
    "config.loads": ("count", "lower"),
    "config.load_s": ("s", "lower"),
    "initial_data.build_s": ("s", "lower"),
    "experiments.post_s": ("s", "lower"),
    "experiments.sweep_points": ("count", "higher"),
    "experiments.point_failures": ("count", "lower"),
    "experiments.sweep_efficiency": ("ratio", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in TARGETS},
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.absent_targets": ("count", "lower"),
}


def _per(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def span_metrics(spans: SpanIndex) -> dict[str, float]:
    steps = spans.count(ADVANCE)
    records = spans.count("diagnostics.measure")
    fft_calls = spans.count(*FFTS)
    out = {
        "solver.steps": steps,
        "solver.step_us": _per(spans.total(ADVANCE), steps, 1e6),
        "solver.source_calls": spans.count("solver.Stepper.source_coeffs"),
        "solver.source_s": spans.total("solver.Stepper.source_coeffs"),
        "solver.run_s": spans.total("solver.run"),
        "spectral.fft_calls": fft_calls,
        "spectral.fft_s": spans.total(*FFTS),
        "spectral.fft_points": spans.points(*FFTS),
        "spectral.ffts_per_step": _per(fft_calls, steps, 1.0),
        "spectral.multiplier_calls": spans.count(*MULTIPLIERS),
        "spectral.multiplier_s": spans.total(*MULTIPLIERS),
        "spectral.grid_array_calls": spans.count(*GRID_ARRAYS),
        "spectral.grid_array_s": spans.total(*GRID_ARRAYS),
        "spectral.boundary_checks": spans.count("spectral.boundary_contaminated"),
        "spectral.boundary_s": spans.total("spectral.boundary_contaminated"),
        "propagator.evolve_calls": spans.count("propagator.evolve_coeffs", "propagator.linear_evolve"),
        "propagator.evolve_s": spans.total("propagator.evolve_coeffs", "propagator.linear_evolve"),
        "propagator.decay_profile_s": spans.total("propagator.decay_profile"),
        "diagnostics.records": records,
        "diagnostics.measure_us": _per(spans.total("diagnostics.measure"), records, 1e6),
        "weights.residual_audit_s": spans.total("weights.residual_audit"),
        "weights.energy_audit_s": spans.total("weights.energy_audit"),
        "weights.source_bound_audit_s": spans.total("weights.source_bound_audit"),
        "weights.weighted_energy_calls": spans.count("weights.weighted_energy"),
        "snapshots.writes": spans.count("snapshots.write_snapshot"),
        "snapshots.write_s": spans.total("snapshots.write_snapshot"),
        "timeseries.csv_s": spans.total("timeseries.TimeSeries.to_csv"),
        "timeseries.fit_s": spans.total("timeseries.decay_fit"),
        "config.loads": spans.count("config.load_setup", "config.load_setup_text"),
        "config.load_s": spans.total("config.load_setup", "config.load_setup_text"),
        "initial_data.build_s": spans.total(
            "initial_data.gaussian_field",
            "initial_data.modulated_gaussian_field",
            "initial_data.zero_field",
        ),
        # the verb's own time: artifacts, audits and report, i.e. the
        # run-owning experiment minus its data build and solver/propagator
        "experiments.post_s": spans.inner_total(RUN_OWNERS, RUN_PARTS),
        "trace.spans": len(spans.spans),
    }
    for layer in TARGETS:
        out[f"{layer}.self_s"] = spans.self_time(layer)
    return out


def artifact_metrics(out_dir: Path, wall_s: float, workers: int) -> dict[str, float]:
    """Layer metrics read from a call's output tree; sweep efficiency is
    the summed per-point report ``total_s`` over workers x call wall."""
    out_dir = Path(out_dir)
    runs = reports(out_dir)
    metrics = {
        "solver.blowups": sum(r["outcome"].get("status") == "blew_up" for r in runs),
        "snapshots.bytes": sum(p.stat().st_size for p in out_dir.rglob("*.dwsn")),
        "timeseries.csv_bytes": sum(p.stat().st_size for p in out_dir.rglob("series.csv")),
        "experiments.sweep_points": 0,
        "experiments.point_failures": 0,
        "experiments.sweep_efficiency": 0.0,
    }
    sweep_csv = out_dir / "sweep.csv"
    if sweep_csv.exists():
        with open(sweep_csv, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        busy = sum(r.get("timings", {}).get("total_s", 0.0) for r in runs)
        metrics["experiments.sweep_points"] = len(rows)
        metrics["experiments.point_failures"] = sum(r["status"].startswith("error") for r in rows)
        metrics["experiments.sweep_efficiency"] = busy / (workers * wall_s)
    return metrics
