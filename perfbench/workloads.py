"""The benchmark's workloads: one CLI verb on one generated config each.

Every workload is a single process running one experiment at a time in
a closed loop (the next call starts when the previous one returned).
The config texts live here, not in the repository's ``configs/``, so a
change to a shipped config cannot silently change what is measured; the
three that mirror shipped configs carry the same key/value pairs and
therefore the same config hash.

The ``--seed`` of a benchmark run is passed to the CLI's ``--seed``.  It
seeds the Monte-Carlo weight-residual audit of ``simulate`` and
``energy-audit``; ``linear-decay`` and ``sweep`` accept it and ignore it.
Every other input is the same for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

FUJITA_N1_P4 = """\
problem.dim = 1
problem.p = 4.0
weight.lambda = 2.0
weight.A = 4.0
grid.L = 160.0
grid.M = 1024
solver.dt = 0.05
solver.t_end = 200.0
solver.record_every = 5
data.amplitude = 0.01
data.width = 2.0
"""

LINEAR_DECAY_N2 = """\
problem.dim = 2
problem.p = 3.0
weight.lambda = 1.5
weight.A = 3.0
grid.L = 200.0
grid.M = 256
solver.dt = 0.1
solver.t_end = 100.0
solver.record_every = 10
data.amplitude = 1.0
data.width = 3.25
fit.t_min = 10.0
"""

# Chosen for the 3-D audit workload:
# - p = 2.5 keeps dealiasing off (it switches on at p >= 3).  With the
#   2/3 mask the Gibbs tails of the truncated source reach about 1e-7 of
#   the peak at the box edge and trip the 1e-8 boundary monitor, so the
#   run would end boundary_contaminated instead of completed.
# - width = 3 grid spacings (L = 24, M = 48 gives spacing 1) keeps the
#   data spectrally resolved.
# - t_end = 5 at the energy-audit cadence gives exactly the 50 snapshots
#   the trajectory audits require.
# - M = 48 rather than 64: one 64^3 step costs about 80 ms, and 48^3 keeps
#   one call near 5 s, so a measured run holds several calls.
# - The run finishes with status completed.
AUDIT_N3 = """\
problem.dim = 3
problem.p = 2.5
weight.lambda = 1.65
weight.A = 2.0
grid.L = 24.0
grid.M = 48
solver.dt = 0.05
solver.t_end = 5.0
solver.record_every = 5
data.amplitude = 0.05
data.width = 3.0
"""

SWEEP_PHASE_N1 = """\
problem.dim = 1
problem.p = 4.0
weight.lambda = 2.0
weight.A = 4.0
grid.L = 40.0
grid.M = 512
solver.dt = 0.01
solver.t_end = 20.0
solver.record_every = 20
data.amplitude = 0.01
data.width = 2.0
sweep.p = 2.0, 2.5, 3.5, 4.0
sweep.amplitude = 0.01, 5.0
"""

# Sweep workers stay at the core count of the 2-core reference machine.
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    config: str
    extra: tuple[str, ...]
    why: str
    processes: int = 1  # processes computing at once during a call

    def argv(self, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        return [
            self.verb,
            "--config",
            str(config_path),
            "--out",
            str(out_dir),
            "--seed",
            str(seed),
            *self.extra,
        ]

    def config_value(self, key: str) -> str:
        for line in self.config.splitlines():
            name, _, value = line.partition("=")
            if name.strip() == key:
                return value.strip()
        raise KeyError(key)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (int(self.config_value("grid.M")),) * int(self.config_value("problem.dim"))

    @property
    def grid_points(self) -> int:
        return math.prod(self.grid_shape)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fujita_1d",
            "simulate",
            FUJITA_N1_P4,
            (),
            "1-D M=1024, 4000 steps, 801 records: small arrays, per-call "
            "overhead; the step loop dominates and no snapshots are taken",
        ),
        Workload(
            "linear_decay_2d",
            "linear-decay",
            LINEAR_DECAY_N2,
            (),
            "2-D 256^2 exact linear flow at 101 times: multipliers and measure "
            "dominate and no Stepper is built, so step-loop changes must not move it",
        ),
        Workload(
            "audit_3d",
            "energy-audit",
            AUDIT_N3,
            (),
            "3-D 48^3 run with 50 in-memory snapshots, snapshot IO and the "
            "trajectory audits: the FFT-bound regime and the memory workload",
        ),
        Workload(
            "sweep_1d",
            "sweep",
            SWEEP_PHASE_N1,
            ("--workers", str(SWEEP_WORKERS)),
            "8-point (p, amplitude) sweep on 2 pool workers, 4 points blow up: "
            "the only workload running the pool, config re-parse and blow-up path",
            processes=SWEEP_WORKERS,
        ),
    )
}


def reports(out_dir: Path) -> list[dict]:
    """Every report.json under an output tree (one per run, one per sweep
    point)."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(out_dir).rglob("report.json"))
    ]


def time_levels(workload: Workload, out_dir: Path) -> int:
    """Time levels computed by one call, read from its reports.

    For the stepping verbs these are the solver steps actually taken,
    round(t_final/dt) summed over every report; for linear-decay they are
    the evaluated output times (the report's record count).
    """
    levels = 0
    dt = float(workload.config_value("solver.dt"))
    for report in reports(out_dir):
        outcome = report["outcome"]
        if workload.verb == "linear-decay":
            levels += int(outcome["records"])
        else:
            levels += int(round(outcome["t_final"] / dt))
    return levels


def cell_steps_per_s(grid_points: int, levels: int, wall_s: float) -> float:
    """Grid points times time levels computed, per second of wall time."""
    if not wall_s > 0.0:
        raise ValueError(f"wall time must be positive, got {wall_s}")
    return grid_points * levels / wall_s
