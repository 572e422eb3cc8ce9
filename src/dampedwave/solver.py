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
the spectral state between steps and applies the linear group through
``propagator.evolve_coeffs`` with multipliers built once per run.

Blow-up is detected when the sup norm crosses the configured threshold
or any value turns non-finite; the reported blow-up time is the midpoint
of the bracketing step, since divergence of the norms is the only
available characterization of the maximal existence time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import measure
from .exponents import ProblemParams
from .propagator import LinearState, evolve_coeffs, state_from_coeffs
from .spectral import Grid, RealField, boundary_contaminated, greens_multiplier, greens_multiplier_dt
from .timeseries import TimeSeries
from .weights import WeightParams


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
    snapshots: list[LinearState] = field(default_factory=list)

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
        dt = cfg.dt
        self.g = greens_multiplier(dt, self.xi_sq)
        self.gdt = greens_multiplier_dt(dt, self.xi_sq)
        if cfg.dealias_active:
            # 2/3 rule: zero the top third of modes per axis.  Heuristic
            # for non-polynomial powers, but it removes the worst of the
            # aliasing from the pointwise source.
            keep = np.abs(np.fft.fftfreq(grid.points) * grid.points) <= grid.points / 3.0
            mask = np.ones(grid.shape, dtype=bool)
            for axis in range(grid.dim):
                mask &= grid.along(keep, axis)
            self.dealias_mask = mask
        else:
            self.dealias_mask = None

    def source_coeffs(self, u_values: np.ndarray) -> np.ndarray | None:
        kind = self.cfg.nonlinearity
        if kind is Nonlinearity.NONE:
            return None
        f = source_term(u_values, self.cfg.problem.p, signed=kind is Nonlinearity.SIGNED)
        f_hat = np.fft.fftn(f)
        if self.dealias_mask is not None:
            f_hat = np.where(self.dealias_mask, f_hat, 0.0)
        return f_hat

    def advance(
        self, u_coeffs: np.ndarray, ut_coeffs: np.ndarray, u_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One step; returns the new (u_coeffs, ut_coeffs, u_values)."""
        half_dt = 0.5 * self.cfg.dt
        f_hat = self.source_coeffs(u_values)
        if f_hat is not None:
            ut_coeffs = ut_coeffs + half_dt * f_hat
        u_new, ut_new = evolve_coeffs(u_coeffs, ut_coeffs, self.g, self.gdt, self.xi_sq)
        u_values_new = np.fft.ifftn(u_new).real
        if f_hat is not None and np.all(np.isfinite(u_values_new)):
            f_star = self.source_coeffs(u_values_new)
            ut_new = ut_new + half_dt * f_star
        return u_new, ut_new, u_values_new


def run(
    cfg: SolverConfig,
    data: tuple[RealField, RealField],
    snapshot_every: float | None = None,
) -> RunOutcome:
    """Step from t = 0 until t_end or blow-up.

    The run covers t_end/dt steps of the fixed step size (the config
    rejects a t_end that is not a whole number of steps).
    Records a diagnostic row every ``record_every`` steps (plus the final
    one) and, when ``snapshot_every`` is given, stores full states at
    that time spacing for the trajectory audits.  The step loop itself is
    serial; distinct runs share nothing and may execute concurrently.
    """
    u0, u1 = data
    if u0.grid != cfg.grid or u1.grid != cfg.grid:
        raise ValueError("data fields do not live on the configured grid")
    grid = cfg.grid
    stepper = Stepper(cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))

    u_coeffs = np.fft.fftn(u0.values)
    ut_coeffs = np.fft.fftn(u1.values)
    u_values = u0.values.copy()

    series = TimeSeries()
    snapshots: list[LinearState] = []
    next_snapshot = 0.0 if snapshot_every is not None else np.inf
    contaminated = False
    blowup_time = None
    # the coefficient arrays are rebound each step, never mutated, so
    # the latest record keeps plain references until the loop ends
    last_record: tuple[float, np.ndarray, np.ndarray] | None = None
    final_state: LinearState | None = None

    for n in range(n_steps + 1):
        t = n * cfg.dt
        record_due = (n % cfg.record_every == 0) or n == n_steps
        if record_due:
            series.append(measure(grid, t, u_coeffs, ut_coeffs, cfg.weight, u_values=u_values))
            if not contaminated and boundary_contaminated(u_values, grid):
                contaminated = True
            last_record = (t, u_coeffs, ut_coeffs)
        if snapshot_every is not None and t >= next_snapshot - 1e-12:
            snapshots.append(state_from_coeffs(grid, t, u_coeffs, ut_coeffs))
            next_snapshot += snapshot_every
        if n == n_steps:
            break

        u_coeffs_new, ut_coeffs_new, u_values_new = stepper.advance(
            u_coeffs, ut_coeffs, u_values
        )
        finite = bool(np.all(np.isfinite(u_values_new)))
        if not finite or np.max(np.abs(u_values_new)) > cfg.blowup_threshold:
            blowup_time = t + 0.5 * cfg.dt
            if finite:
                final_state = LinearState(
                    t=t + cfg.dt,
                    u=RealField(grid, u_values_new),
                    ut=RealField(grid, np.fft.ifftn(ut_coeffs_new).real),
                )
            series.append_blowup_marker(blowup_time)
            break
        u_coeffs, ut_coeffs, u_values = u_coeffs_new, ut_coeffs_new, u_values_new

    if final_state is None:
        if last_record is None:  # unreachable: n = 0 always records
            raise RuntimeError("run recorded no state")
        final_state = state_from_coeffs(grid, *last_record)

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
