#!/usr/bin/env python3
"""In-process cost of one semilinear step and of one diagnostic record.

Times ``solver.Stepper.advance`` (one member), ``diagnostics.measure`` of
one state, and ``measure`` of a full record block (the
``diagnostics.RECORD_BLOCK_POINTS // grid points`` states a run measures in
one call, or one state where a run measures each record at once) on
three grids: 1-D 1024 points (the shipped ``fujita_n1_p4``), 2-D 256^2
(the grid of ``linear_decay_n2``) and 3-D 48^3 (perfbench's audit_3d
grid).  Each is called WARMUP times untimed and then ``--repeats`` times,
each call timed alone; the median of those calls is reported in
microseconds (per record for the block).  BLAS/OpenMP pools are pinned
to one thread before numpy is imported (numpy's FFTs run on one thread
regardless).  ``run_peak_mib`` is the tracemalloc peak of a short
``solver.run`` on each grid (one member, 10 steps, one snapshot), taken
on the second of two runs so that the grid's cached arrays are not
counted: memory regressions of the run loop show here.  ``snapshot_run``
gives the wall and process CPU time in milliseconds of a 10-step
one-member run on the 3-D grid that takes a snapshot and a record every
step (the second of two runs): its records and snapshots are jobs for a
worker thread while the loop steps, so CPU above wall shows the overlap.
``audit_run`` gives the same for a 20-step run on that grid at the
cadence of perfbench's audit_3d (a record every 5 steps, a snapshot every
5/49 time units), a check of that workload without its calibration.
``decay_run`` gives the same for the second of two ``decay_profile``
calls on the 2-D grid at 101 times with the data of ``linear_decay_n2``:
each time is measured on a job thread while the next one is evolved.
``fujita_run`` gives the same for the second of two ``solver.run`` calls
of the shipped ``fujita_n1_p4`` config (4,000 steps of 1-D 1024 points,
its data from ``experiments.build_data``): the workload of perfbench's
fujita_1d end to end, without its calibration.  ``sweep_run`` gives the
same for the second of two ``experiments.sweep`` calls of the shipped
``sweep_phase_n1`` config (8 points stepped as one ensemble, 4 of which
blow up and leave it): perfbench's sweep_1d without its calibration.
``jobs_us`` is the median microseconds of ``submit`` of a no-op job
followed by ``wait`` on a started ``diagnostics.JobThread``, over
``--repeats`` calls: the hand-off that each record, snapshot and
``decay_profile`` time pays where its measuring is a job on a thread.

Usage:
    step_timing.py [--repeats N]

Prints one JSON line: ``{"repeats", "numpy", "advance_us": {grid: us},
"measure_us": {grid: us}, "block_rows": {grid: rows},
"block_record_us": {grid: us}, "run_peak_mib": {grid: MiB},
"snapshot_run": {"wall_ms", "cpu_ms"}, "audit_run": {"wall_ms", "cpu_ms"},
"decay_run": {"wall_ms", "cpu_ms"}, "fujita_run": {"wall_ms", "cpu_ms"},
"sweep_run": {"wall_ms", "cpu_ms"}, "jobs_us"}``.
The package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from dampedwave.config import load_setup
from dampedwave.diagnostics import RECORD_BLOCK_POINTS, JobThread, measure
from dampedwave.experiments import build_data, sweep
from dampedwave.initial_data import gaussian_field, zero_field
from dampedwave.propagator import decay_profile
from dampedwave.solver import SolverConfig, Stepper, run
from dampedwave.spectral import Grid
from dampedwave.weights import Scratch, WeightParams, weight_on_grid, weight_value

WARMUP = 3

# name: (grid, p, weight, dt); the data is a Gaussian of amplitude 0.01
# and width 2, small enough that no run of these steps grows large
CASES = {
    "1d_1024": (Grid(1, 160.0, 1024), 4.0, WeightParams(4.0, 2.0), 0.05),
    "2d_256": (Grid(2, 200.0, 256), 3.0, WeightParams(3.0, 1.5), 0.1),
    "3d_48": (Grid(3, 24.0, 48), 2.5, WeightParams(2.0, 1.65), 0.05),
}


def _median_us(samples: list[float]) -> float:
    return 1e6 * statistics.median(samples[WARMUP:])


def time_grid(grid: Grid, p: float, weight: WeightParams, dt: float, repeats: int):
    """Median microseconds of one ``Stepper.advance``, of one ``measure``
    and of one record in a full block on ``grid``, and the block's rows."""
    cfg = SolverConfig(p=p, grid=grid, weight=weight, dt=dt, t_end=dt)
    stepper = Stepper([cfg])
    state, _ = stepper.start([(gaussian_field(grid, 0.01, 2.0), zero_field(grid))])
    step_s = []
    for _ in range(WARMUP + repeats):
        start = time.perf_counter()
        state = stepper.advance(state[0], state[1], state[3])
        step_s.append(time.perf_counter() - start)

    u_coeffs, ut_coeffs, _, _, peaks, _ = state
    psi = weight_on_grid(weight_value, dt, grid, weight)
    scratch = Scratch.for_grid(grid)
    measure_s = []
    for _ in range(WARMUP + repeats):
        start = time.perf_counter()
        measure(grid, dt, u_coeffs[0], ut_coeffs[0], psi, peaks[0], scratch)
        measure_s.append(time.perf_counter() - start)

    rows = RECORD_BLOCK_POINTS // grid.size
    rows = rows if rows >= 2 else 1
    times = dt * np.arange(1, rows + 1)
    block = [np.repeat(a, rows, axis=0) for a in (u_coeffs, ut_coeffs, peaks)]
    psi_rows = weight_on_grid(weight_value, times[:, None], grid, weight)
    scratch = Scratch.for_grid(grid, (rows,))
    block_s = []
    for _ in range(WARMUP + repeats):
        start = time.perf_counter()
        measure(grid, times, *block[:2], psi_rows, block[2], scratch)
        block_s.append((time.perf_counter() - start) / rows)
    return _median_us(step_s), _median_us(measure_s), rows, _median_us(block_s)


def run_peak_mib(grid: Grid, p: float, weight: WeightParams, dt: float) -> float:
    """Traced peak in MiB of the second of two 10-step runs on ``grid``
    that take one snapshot, at t = 0."""
    cfg = SolverConfig(p=p, grid=grid, weight=weight, dt=dt, t_end=10 * dt)
    data = (gaussian_field(grid, 0.01, 2.0), zero_field(grid))
    with tempfile.TemporaryDirectory() as snapshot_dir:
        run(cfg, data, snapshot_every=20 * dt, snapshot_dir=snapshot_dir)
        tracemalloc.start()
        try:
            run(cfg, data, snapshot_every=20 * dt, snapshot_dir=snapshot_dir)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak / 2**20


def _timed_ms(call) -> dict:
    """Wall and process CPU milliseconds of the second of two calls."""
    for _ in range(2):
        wall, cpu = time.perf_counter(), time.process_time()
        call()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return {"wall_ms": round(1e3 * wall, 1), "cpu_ms": round(1e3 * cpu, 1)}


def run_ms(
    grid: Grid, p: float, weight: WeightParams, dt: float,
    steps: int, record_every: int, snapshot_every: float,
) -> dict:
    """Wall and process CPU milliseconds of the second of two runs of
    ``steps`` steps on ``grid`` with a record every ``record_every`` steps
    and a snapshot every ``snapshot_every`` time units."""
    cfg = SolverConfig(
        p=p, grid=grid, weight=weight, dt=dt, t_end=steps * dt, record_every=record_every
    )
    data = (gaussian_field(grid, 0.01, 2.0), zero_field(grid))
    with tempfile.TemporaryDirectory() as snapshot_dir:
        return _timed_ms(
            lambda: run(cfg, data, snapshot_every=snapshot_every, snapshot_dir=snapshot_dir)
        )


def fujita_run_ms() -> dict:
    """Wall and process CPU milliseconds of the second of two runs of the
    ``fujita_n1_p4`` config."""
    setup = load_setup(ROOT / "configs" / "fujita_n1_p4.cfg")
    data = build_data(setup)
    return _timed_ms(lambda: run(setup.solver, data))


def sweep_run_ms() -> dict:
    """Wall and process CPU milliseconds of the second of two sweeps of
    the ``sweep_phase_n1`` config."""
    setup = load_setup(ROOT / "configs" / "sweep_phase_n1.cfg")
    with tempfile.TemporaryDirectory() as out_dir:
        return _timed_ms(lambda: sweep(setup, out_dir))


def decay_run_ms(grid: Grid, weight: WeightParams) -> dict:
    """Wall and process CPU milliseconds of the second of two
    ``decay_profile`` calls on ``grid`` at the times 0, 1, ..., 100."""
    data = (gaussian_field(grid, 1.0, 3.25), zero_field(grid))
    times = np.linspace(0.0, 100.0, 101)
    return _timed_ms(lambda: decay_profile(data, times, weight))


def jobs_us(repeats: int) -> float:
    """Median microseconds of ``submit`` of a no-op job and ``wait`` on a
    ``JobThread`` whose thread the untimed first calls started."""
    jobs, samples = JobThread(), []
    try:
        for _ in range(WARMUP + repeats):
            start = time.perf_counter()
            jobs.submit(lambda: None)
            jobs.wait()
            samples.append(time.perf_counter() - start)
    finally:
        jobs.close()
    return _median_us(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200, help="timed calls per grid")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    keys = ("advance_us", "measure_us", "block_rows", "block_record_us", "run_peak_mib")
    result = {"repeats": args.repeats, "numpy": np.__version__, **{key: {} for key in keys}}
    for name, case in CASES.items():
        values = (*time_grid(*case, args.repeats), run_peak_mib(*case))
        for key, value in zip(keys, values):
            result[key][name] = value if key == "block_rows" else round(value, 1)
    case = CASES["3d_48"]
    result["snapshot_run"] = run_ms(*case, steps=10, record_every=1, snapshot_every=case[3])
    result["audit_run"] = run_ms(*case, steps=20, record_every=5, snapshot_every=5.0 / 49)
    grid, _, weight, _ = CASES["2d_256"]
    result["decay_run"] = decay_run_ms(grid, weight)
    result["fujita_run"] = fujita_run_ms()
    result["sweep_run"] = sweep_run_ms()
    result["jobs_us"] = round(jobs_us(args.repeats), 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
