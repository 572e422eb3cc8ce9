"""Semilinear time stepping through the exact linear flow.

The mild-solution form of the problem is a variation-of-constants
identity, so the stepper uses the exact linear group for the homogeneous
part and a trapezoid rule in the interaction picture for the source
integral over one step:

    f_n   = |u_n|^p
    (u', ut') = exact linear step applied to (u_n, ut_n + dt/2 * f_n)
    f*    = |u'|^p                        (predictor at t + dt)
    u_{n+1}  = u'
    ut_{n+1} = ut' + dt/2 * f*

Because the Green's multiplier vanishes at lag zero, the trapezoid
endpoint at t+dt contributes to u_t only.  The scheme is second order;
the test suite verifies the convergence factor empirically rather than
assuming it.  :func:`run` is the only stepping entry point: it keeps
the spectral state (real-FFT coefficients) between steps and applies
the linear group through ``propagator.evolve_coeffs`` with multipliers
built once per run.

The predictor f* = |u_{n+1}|^p is exactly the next step's f_n, so the
source is evaluated once per step: :func:`run` computes f_0 before the
loop, and :meth:`Stepper.advance` returns f* for the loop to pass into
the next step.

A step blows up when the sup norm of u_{n+1} is non-finite or crosses
the configured threshold, or when the source f* overflows (it is checked
before it is transformed).  The reported blow-up time is the midpoint of
the bracketing step, since divergence of the norms is the only available
characterization of the maximal existence time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import measure
from .exponents import ProblemParams
from .propagator import LinearState, evolve_coeffs, state_from_coeffs
from .snapshots import write_snapshot
from .spectral import Grid, RealField, boundary_contaminated, greens_multipliers
from .timeseries import TimeSeries
from .weights import SnapshotIntegrals, WeightParams, snapshot_integrals


class Nonlinearity(str, enum.Enum):
    """Source shape: the sign-definite |u|^p of the problem, the signed
    |u|^(p-1)*u variant (exploration only), or disabled."""

    SOURCE = "source"
    SIGNED = "signed"
    NONE = "none"


class RunStatus(str, enum.Enum):
    COMPLETED = "completed"
    BLEW_UP = "blew_up"
    BOUNDARY_CONTAMINATED = "boundary_contaminated"


@dataclass(frozen=True)
class SolverConfig:
    problem: ProblemParams
    grid: Grid
    weight: WeightParams
    dt: float
    t_end: float
    blowup_threshold: float = 1e6
    dealias: bool | None = None  # None = on for p >= 3
    record_every: int = 10
    nonlinearity: Nonlinearity = Nonlinearity.SOURCE

    def __post_init__(self) -> None:
        if not 0.0 < self.dt <= 0.5:
            raise ValueError(f"dt must lie in (0, 0.5], got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end {self.t_end} is shorter than one step")
        if abs(round(self.t_end / self.dt) * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end {self.t_end} is not a whole number of steps dt {self.dt}"
            )
        if not self.blowup_threshold > 1.0:
            raise ValueError("blowup_threshold must exceed 1")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")

    @property
    def dealias_active(self) -> bool:
        if self.dealias is not None:
            return self.dealias
        return self.problem.p >= 3.0


@dataclass
class RunOutcome:
    status: RunStatus
    final_state: LinearState
    series: TimeSeries
    blowup_time: float | None = None
    snapshots: list[SnapshotIntegrals] = field(default_factory=list)

    def __post_init__(self) -> None:
        has_time = self.blowup_time is not None
        if has_time != (self.status is RunStatus.BLEW_UP):
            raise ValueError("blowup_time must be present exactly for blow-up runs")


def source_term(u_values: np.ndarray, p: float, signed: bool = False) -> np.ndarray:
    """Pointwise |u|^p (or |u|^(p-1)*u for the signed variant).

    Non-integer powers go through exp(p*log|u|) inside numpy, with the
    u = 0 limit equal to 0.  Overflow produces infinities which the
    caller treats as a blow-up candidate.
    """
    if not p > 1.0:
        raise ValueError(f"p must be > 1, got {p}")
    with np.errstate(over="ignore", invalid="ignore"):
        if signed:
            return np.abs(u_values) ** (p - 1.0) * u_values
        return np.abs(u_values) ** p


class Stepper:
    """Precomputed multipliers for one (grid, dt) pair."""

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        grid = cfg.grid
        self.xi_sq = grid.freq_sq()
        self.g, self.gdt = greens_multipliers(cfg.dt, self.xi_sq)
        # 2/3 rule: heuristic for non-polynomial powers, but it removes
        # the worst of the aliasing from the pointwise source.
        self.dealias_mask = grid.dealias_mask() if cfg.dealias_active else None

    def source_coeffs(self, u_values: np.ndarray) -> np.ndarray | None:
        """Real-FFT coefficients of the source at ``u_values``, dealiased
        when configured; None when the source is switched off or has a
        non-finite entry, which is then not transformed."""
        kind = self.cfg.nonlinearity
        if kind is Nonlinearity.NONE:
            return None
        f = source_term(u_values, self.cfg.problem.p, signed=kind is Nonlinearity.SIGNED)
        if not np.all(np.isfinite(f)):
            return None
        f_hat = self.cfg.grid.forward(f)
        if self.dealias_mask is not None:
            f_hat = np.where(self.dealias_mask, f_hat, 0.0)
        return f_hat

    def advance(
        self, u_coeffs: np.ndarray, ut_coeffs: np.ndarray, f_hat: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None] | None:
        """One step from (u_n, ut_n) with f_n = ``f_hat``; returns the new
        (u_coeffs, ut_coeffs, u_values) and f*, the source at the new u,
        which is the next step's f_n (None when there is no source).
        Returns None when f* is non-finite: the step has blown up."""
        half_dt = 0.5 * self.cfg.dt
        if f_hat is not None:
            ut_coeffs = ut_coeffs + half_dt * f_hat
        u_new, ut_new = evolve_coeffs(u_coeffs, ut_coeffs, self.g, self.gdt, self.xi_sq)
        u_values_new = self.cfg.grid.inverse(u_new)
        f_star = None
        if f_hat is not None:
            f_star = self.source_coeffs(u_values_new)
            if f_star is None:
                return None
            ut_new = ut_new + half_dt * f_star
        return u_new, ut_new, u_values_new, f_star


def run(
    cfg: SolverConfig,
    data: tuple[RealField, RealField],
    snapshot_every: float | None = None,
    snapshot_dir: str | Path | None = None,
) -> RunOutcome:
    """Step from t = 0 until t_end or blow-up.

    The run covers t_end/dt steps of the fixed step size (the config
    rejects a t_end that is not a whole number of steps).
    Records a diagnostic row every ``record_every`` steps (plus the final
    one).  With ``snapshot_every`` (a positive time spacing) and
    ``snapshot_dir`` (both or neither), each snapshot is written to
    ``snapshot_dir/snap_{i:06d}.dwsn`` when it is taken, and only its
    :class:`~dampedwave.weights.SnapshotIntegrals` row is kept.  After
    a blow-up the final state is the end of the blow-up step when its u
    is finite, else the start of that step.  The step loop itself is
    serial; distinct runs share nothing and may execute concurrently.
    """
    u0, u1 = data
    if u0.grid != cfg.grid or u1.grid != cfg.grid:
        raise ValueError("data fields do not live on the configured grid")
    if (snapshot_every is None) != (snapshot_dir is None):
        raise ValueError("snapshot_every and snapshot_dir must be given together")
    if snapshot_every is not None and not snapshot_every > 0.0:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
    if snapshot_dir is not None:
        Path(snapshot_dir).mkdir(parents=True, exist_ok=True)
    grid = cfg.grid
    p = cfg.problem.p
    stepper = Stepper(cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))

    u_coeffs = grid.forward(u0.values)
    ut_coeffs = grid.forward(u1.values)
    u_values = u0.values.copy()
    f_hat = stepper.source_coeffs(u_values)
    if f_hat is None and cfg.nonlinearity is not Nonlinearity.NONE:
        raise ValueError("the source overflows at the initial data")

    series = TimeSeries()
    snapshots: list[SnapshotIntegrals] = []
    next_snapshot = 0.0 if snapshot_every is not None else np.inf
    contaminated = False
    blowup_time = None
    final_state: LinearState | None = None

    for n in range(n_steps + 1):
        t = n * cfg.dt
        record_due = (n % cfg.record_every == 0) or n == n_steps
        if record_due:
            series.append(measure(grid, t, u_coeffs, ut_coeffs, cfg.weight, u_values))
            if not contaminated and boundary_contaminated(u_values, grid):
                contaminated = True
        if t >= next_snapshot - 1e-12:
            ut_values = grid.inverse(ut_coeffs)
            path = Path(snapshot_dir, f"snap_{len(snapshots):06d}.dwsn")
            write_snapshot(path, grid, t, u_values, ut_values, p, cfg.weight)
            snapshots.append(
                snapshot_integrals(grid, t, u_coeffs, u_values, ut_values, cfg.weight, p)
            )
            next_snapshot += snapshot_every
        if n == n_steps:
            break

        step = stepper.advance(u_coeffs, ut_coeffs, f_hat)
        # one reduction decides the step: NaN fails the comparison
        peak = np.inf if step is None else np.max(np.abs(step[2]))
        if not peak <= cfg.blowup_threshold:
            blowup_time = t + 0.5 * cfg.dt
            if np.isfinite(peak):
                final_state = LinearState(
                    t=t + cfg.dt,
                    u=RealField(grid, step[2]),
                    ut=RealField(grid, grid.inverse(step[1])),
                )
            series.append_blowup_marker(blowup_time)
            break
        u_coeffs, ut_coeffs, u_values, f_hat = step

    if final_state is None:
        final_state = state_from_coeffs(grid, t, u_coeffs, ut_coeffs)

    if blowup_time is not None:
        status = RunStatus.BLEW_UP
    elif contaminated:
        status = RunStatus.BOUNDARY_CONTAMINATED
    else:
        status = RunStatus.COMPLETED
    return RunOutcome(
        status=status,
        final_state=final_state,
        series=series,
        blowup_time=blowup_time,
        snapshots=snapshots,
    )
