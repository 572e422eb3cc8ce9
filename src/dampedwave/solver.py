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
the test suite verifies the convergence factor empirically.
:func:`run_ensemble` holds the only step loop.  It stacks the members'
real-FFT coefficients along a leading axis, applies the linear group
through ``propagator.evolve_coeffs`` with the multipliers of
``propagator.multipliers`` for dt, and evaluates each member's source
with its own scalar exponent, so every member's numbers are bit for bit
those of its own run.  :func:`run` is the one-member case.  A
:class:`SolverConfig` holds p; the dimension is its grid's and the
weight power its weight's.

The predictor f* = |u_{n+1}|^p is exactly the next step's f_n, so the
source is evaluated, and scaled by dt/2, once per step:
:meth:`Stepper.start` computes the kick dt/2 * f_0 with the initial
stacks, and :meth:`Stepper.advance` returns dt/2 * f* as the next kick.
A step writes into five coefficient arrays (u into two in turn, u_t and
the kick into a ring of three), never into the state it starts from,
and the 2/3 rule zeroes one slab per axis.  A :class:`Stepper` and its
arrays serve one member set: when members leave, the loop copies the
survivors' rows and builds a Stepper for them, as it does the recorder.

A step blows up for a member when the sup norm of its u_{n+1} is
non-finite or crosses the configured threshold, or when its source f*
overflows (it is checked before it is transformed).  The reported
blow-up time is the midpoint of the bracketing step, since divergence of
the norms is the only available characterization of the maximal
existence time.

Record states are measured in blocks of up to
``diagnostics.RECORD_BLOCK_POINTS`` grid points, one stacked call per
operation (:class:`_Recorder`); the rows are those of measuring every
state alone.  Where a block would not hold two record times, each record
and snapshot is a job for a ``diagnostics.JobThread`` while the loop
steps on: the loop copies the state into arrays the job owns, and the
job does all of the measuring, weighting and snapshot writing, with the
same rows and files.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .diagnostics import JobThread, block_rows, measure
from .propagator import LinearState, evolve_coeffs, multipliers, state_from_coeffs
from .snapshots import write_snapshot
from .spectral import Grid, RealField, boundary_contaminated, gather
from .timeseries import COLUMNS, TimeSeries
from .weights import (
    Scratch,
    SnapshotIntegrals,
    WeightParams,
    member_powers,
    snapshot_integrals,
    spectral_energy,
    weight_on_grid,
    weight_value,
)


class Nonlinearity(str, enum.Enum):
    """Source shape: the sign-definite |u|^p of the problem, or disabled."""

    SOURCE = "source"
    NONE = "none"


class RunStatus(str, enum.Enum):
    COMPLETED = "completed"
    BLEW_UP = "blew_up"
    BOUNDARY_CONTAMINATED = "boundary_contaminated"


@dataclass(frozen=True)
class SolverConfig:
    p: float
    grid: Grid
    weight: WeightParams
    dt: float
    t_end: float
    blowup_threshold: float = 1e6
    dealias: bool | None = None  # None = on for p >= 3
    record_every: int = 10
    nonlinearity: Nonlinearity = Nonlinearity.SOURCE

    def __post_init__(self) -> None:
        if not 1.0 < self.p < np.inf:
            raise ValueError(f"p must be > 1 and finite, got {self.p}")
        if not 0.0 < self.dt <= 0.5:
            raise ValueError(f"dt must lie in (0, 0.5], got {self.dt}")
        if not self.dt <= self.t_end < np.inf:
            raise ValueError(f"t_end {self.t_end} is not a finite time of one step or more")
        if abs(round(self.t_end / self.dt) * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end {self.t_end} is not a whole number of steps dt {self.dt}"
            )
        if not 1.0 < self.blowup_threshold < np.inf:
            raise ValueError("blowup_threshold must be finite and exceed 1")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")

    @property
    def dealias_active(self) -> bool:
        if self.dealias is not None:
            return self.dealias
        return self.p >= 3.0


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


class Stepper:
    """One member set's step: the multipliers ``lag`` of dt, the members'
    powers, the slabs of modes the 2/3 rule discards in the dealiased
    members' rows, and the arrays its steps write (with a leading member
    axis), all made once here.

    A step writes u into ``u[1]``, u_t into ``ring[1]`` (the kicked u_t,
    evolved in place) and the next kick into ``ring[2]``, its work space
    until then, and then moves each list on by one, so it writes none of
    the arrays it starts from (a blow-up step's start is its final
    state).  The u values and |u| (then the source) go into ``u_values``
    and ``field``."""

    def __init__(self, cfgs: list[SolverConfig]):
        self.cfg = cfgs[0]
        grid = self.grid = self.cfg.grid
        self.axes, self.half_dt = grid.axes, 0.5 * self.cfg.dt
        self.lag = multipliers(grid, self.cfg.dt)
        powers = self.powers = [cfg.p for cfg in cfgs]
        dealiased = self.dealiased = [cfg.dealias_active for cfg in cfgs]
        # every member's |u|^p stays below 1e300 while every peak is at
        # most this; NaN and larger peaks get the full check
        self.overflow_limit = 1e300 ** (1.0 / max(powers))
        # 2/3 rule: it keeps |k| <= M/3 on every axis, so it discards one
        # slab of indices per axis in the dealiased rows; heuristic for
        # non-polynomial powers, but it removes the worst of the aliasing
        # from the pointwise source.
        rows = slice(None) if all(dealiased) else np.flatnonzero(dealiased)
        cut = slice(grid.points // 3 + 1, grid.points - grid.points // 3)
        dims = range(grid.dim) if any(dealiased) else ()
        self.slabs = [(rows, *(slice(None),) * axis, cut) for axis in dims]
        coeffs, values = (len(cfgs), *grid.half_shape), (len(cfgs), *grid.shape)
        self.u = [np.empty(coeffs, complex) for _ in range(2)]
        self.ring = [np.empty(coeffs, complex) for _ in range(3)]
        self.u_values, self.field = np.empty(values), np.empty(values)

    def start(self, datas: list[tuple[RealField, RealField]]) -> tuple[tuple, np.ndarray | None]:
        """Initial (u_coeffs, ut_coeffs, u_values, kick, peaks), written
        into the step arrays, with the kick dt/2 * f_0 (None without a
        source), and the overflow mask of :meth:`source_coeffs`."""
        grid = self.grid
        u_coeffs, (ut_coeffs, kick, _) = self.u[0], self.ring
        u_values = np.stack([u0.values for u0, _ in datas], out=self.u_values)
        grid.forward(u_values, out=u_coeffs)
        grid.forward(np.stack([u1.values for _, u1 in datas], out=self.field), out=ut_coeffs)
        peaks = np.maximum.reduce(np.abs(u_values, out=self.field), axis=self.axes)
        kick, overflow = self.source_coeffs(u_values, self.field, kick)
        if kick is not None:
            np.multiply(self.half_dt, kick, out=kick)
        return (u_coeffs, ut_coeffs, u_values, kick, peaks), overflow

    def source_coeffs(
        self,
        u_values: np.ndarray,
        field: np.ndarray | None = None,
        out: np.ndarray | None = None,
        peak: float = np.inf,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Real-FFT coefficients of each member's source at the stacked
        ``u_values`` (dealiased where configured; None when the source is
        switched off) and the mask of members whose source has a
        non-finite entry (None if there is none).  Those rows are zeroed,
        so an overflowed source is never transformed.  ``field``, when
        given, holds |u_values| and receives the source values; the
        coefficients go into ``out`` when given.
        ``peak`` is max |u_values| when the caller holds it: at or below
        :attr:`overflow_limit` the source is finite, so it is neither
        scanned nor evaluated under ``np.errstate``."""
        if self.cfg.nonlinearity is Nonlinearity.NONE:
            return None, None
        f = np.abs(u_values) if field is None else field
        overflow = None
        if peak <= self.overflow_limit:
            member_powers(f, self.powers)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                member_powers(f, self.powers)
            finite = np.isfinite(f)
            if not finite.all():
                overflow = ~finite.all(axis=self.axes)
                f[overflow] = 0.0
        f_hat = self.grid.forward(f, out=out)
        for slab in self.slabs:
            f_hat[slab] = 0.0
        return f_hat, overflow

    def advance(
        self, u_coeffs: np.ndarray, ut_coeffs: np.ndarray, kick: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, float]:
        """One step from (u_n, ut_n) with the kick dt/2 * f_n; returns the
        new (u_coeffs, ut_coeffs, u_values), the next kick dt/2 * f* (f*
        is the source at the new u, the next step's f_n), each member's
        max |u_{n+1}| and the largest of them, inf where f* is non-finite:
        the step has blown up there.  The arrays are the stepper's own:
        the next step overwrites the u values and the kick, the step
        after next the u and u_t coefficients."""
        u_new, (_, ut_new, work) = self.u[1], self.ring
        # the kicked u_t is evolved in place
        kicked = ut_coeffs if kick is None else np.add(kick, ut_coeffs, out=ut_new)
        evolve_coeffs(u_coeffs, kicked, self.lag, out=(u_new, ut_new, work))
        u_values_new = self.grid.inverse(u_new, self.u_values, work)
        peaks = np.maximum.reduce(np.abs(u_values_new, out=self.field), axis=self.axes)
        peak = np.maximum.reduce(peaks)
        # the source starts from |u| in field, and the inverse is done
        # with work, so the next kick may take its place
        kick, overflow = self.source_coeffs(u_values_new, self.field, work, peak)
        if overflow is not None:
            peaks[overflow] = peak = np.inf
        if kick is not None:
            ut_new += np.multiply(self.half_dt, kick, out=kick)
        self.u.reverse()
        self.ring.append(self.ring.pop(0))
        return u_new, ut_new, u_values_new, kick, peaks, peak


@dataclass
class _Member:
    """One ensemble member's records while the loop steps it."""

    index: int
    cfg: SolverConfig
    snapshot_dir: Path | None
    series: TimeSeries = field(default_factory=TimeSeries)
    snapshots: list[SnapshotIntegrals] = field(default_factory=list)
    contaminated: bool = False

    def outcome(self, final: LinearState, blowup_time: float | None = None) -> RunOutcome:
        if blowup_time is not None:
            self.series.append_blowup_marker(blowup_time)
            status = RunStatus.BLEW_UP
        elif self.contaminated:
            status = RunStatus.BOUNDARY_CONTAMINATED
        else:
            status = RunStatus.COMPLETED
        return RunOutcome(status, final, self.series, blowup_time, self.snapshots)


class _Recorder:
    """Measures the members' record states into their series and takes
    their snapshots.

    At a record time the loop copies the members' coefficients, peaks and
    boundary-shell values into the next row of arrays the recorder owns:
    a block of ``diagnostics.block_rows`` rows where that holds two or
    more record times of the members, else one row.  A full block, and
    the rows left at :meth:`flush` or before a snapshot, is measured by
    one job.  A snapshot is one job on row 0 that also gets u's values,
    in ``scratch.field``.  Each state is measured once, each series gets
    its rows in time order, and the weight is evaluated once per time for
    all members.  A recorder serves one member list: the loop flushes it
    and makes another when members leave.

    Jobs run on a ``diagnostics.JobThread``: inline with a block, else on
    its worker thread while the loop steps.  The loop thread only waits
    for the previous job, gathers the shell from the live u values and
    copies; the job does the rest (the u_t inverse, the weights, norms,
    files, integrals and energies) and reads nothing but the recorder's
    arrays, which are all made here, so the loop may overwrite its own at
    once.  Jobs run in time order, :meth:`flush` waits for the last one,
    and the loop closes ``jobs`` when it drops the recorder.
    """

    def __init__(self, cfg: SolverConfig, members: list[_Member]):
        grid = self.grid = cfg.grid
        self.weight, self.members = cfg.weight, members
        # the weight's cached grid arrays are built here, before the arrays
        # below, so that their build's temporaries do not come on top
        grid.radius_index()
        self.shell = grid.boundary_index()
        self.capacity = block_rows(grid.size * len(members))
        lead = (max(self.capacity, 1), len(members))
        self.scratch = Scratch.for_grid(grid, lead)
        self.psi = np.empty((lead[0], *grid.shape))
        self.times, self.peaks = np.empty(lead[0]), np.empty(lead)
        self.u_coeffs = np.empty(lead + grid.half_shape, dtype=complex)
        self.ut_coeffs = np.empty_like(self.u_coeffs)
        self.edges = np.empty(lead + self.shell.shape)
        self.filled = 0
        self.jobs = JobThread(inline=bool(self.capacity))

    def record(self, t, u_coeffs, ut_coeffs, u_values, peaks) -> None:
        """Copy the members' (stacked) states at t into the next row, and
        measure the rows once they are full."""
        self._copy(t, u_coeffs, ut_coeffs, u_values, peaks)
        if self.filled == len(self.times):
            self._post()

    def flush(self) -> None:
        """Measure the filled rows and wait for every job."""
        self._post()
        self.jobs.wait()

    def snapshot(self, t, u_coeffs, ut_coeffs, u_values, peaks, recorded) -> None:
        """Write and reduce the members' states at t in one job, after the
        rows before t.  The job measures the record when ``recorded``
        (else the energies) and puts the energies in the rows."""
        self._post()
        self._copy(t, u_coeffs, ut_coeffs, u_values, peaks)
        np.copyto(self.scratch.field[0], u_values)
        self.filled = 0
        self.jobs.submit(lambda: self._snapshot(t, recorded))

    def _snapshot(self, t, recorded) -> None:
        """The snapshot job on row 0.  Each array is written over once it
        is read for the last time: the u values by the integrals'
        products after the files, and the work arrays by the energies."""
        grid, s = self.grid, self.scratch._make(a[0] for a in self.scratch)
        ut_values = grid.inverse(self.ut_coeffs[0], s.ut_values, s.coeffs)
        psi = weight_on_grid(weight_value, t, grid, self.weight, out=self.psi[0])
        for m, u, ut in zip(self.members, s.field, ut_values):
            path = m.snapshot_dir / f"snap_{len(m.snapshots):06d}.dwsn"
            write_snapshot(path, grid, t, u, ut, m.cfg.p, self.weight)
        powers = [m.cfg.p for m in self.members]
        rows = snapshot_integrals(grid, t, s.field, psi, self.weight, powers, s)
        if recorded:
            self._measure(
                self.times[:1], self.u_coeffs[:1], self.ut_coeffs[:1], self.peaks[:1],
                self.edges[:1], ut_values[None], psi[None],
            )
            energies = [m.series.rows[-1][COLUMNS.index("weighted_energy")] for m in self.members]
        else:
            energies = spectral_energy(grid, self.u_coeffs[0], ut_values, psi, s).tolist()
        for m, row, energy in zip(self.members, rows, energies):
            m.snapshots.append(row._replace(energy=energy))

    def _copy(self, t, u_coeffs, ut_coeffs, u_values, peaks) -> None:
        """Copy the members' states at t and the shell values of their u
        into the next row, first waiting for the job that reads the rows."""
        row = self.filled
        if not row:
            self.jobs.wait()
        self.times[row] = t
        self.u_coeffs[row], self.ut_coeffs[row] = u_coeffs, ut_coeffs
        self.peaks[row] = peaks
        gather(u_values.reshape(len(u_values), -1), self.shell, out=self.edges[row])
        self.filled += 1

    def _post(self) -> None:
        """Measure the filled rows in a job."""
        rows, self.filled = self.filled, 0
        if rows:
            self.jobs.submit(lambda: self._measure(
                self.times[:rows], self.u_coeffs[:rows], self.ut_coeffs[:rows],
                self.peaks[:rows], self.edges[:rows],
            ))

    def _measure(self, times, u_coeffs, ut_coeffs, peaks, edges, ut_values=None, psi=None) -> None:
        """Measure states stacked as (record time, member), with the
        weight ``psi`` at ``times`` when given, and append their rows."""
        grid, rows, column = self.grid, len(times), times[:, None]
        if psi is None:
            psi = weight_on_grid(weight_value, column, grid, self.weight, out=self.psi[:rows])
        scratch = self.scratch._make(a[:rows] for a in self.scratch)
        records = measure(
            grid, column, u_coeffs, ut_coeffs, psi[:, None], peaks, scratch, ut_values
        )
        leaks = boundary_contaminated(edges, peaks).ravel().tolist()
        for m, record, leak in zip(itertools.cycle(self.members), records, leaks):
            m.series.append(record)
            m.contaminated = m.contaminated or leak


def run_ensemble(
    cfgs: list[SolverConfig],
    datas: list[tuple[RealField, RealField]],
    snapshot_every: float | None = None,
    snapshot_dirs: list[str | Path] | None = None,
) -> list[RunOutcome | ValueError]:
    """Step every member from t = 0 for t_end/dt steps or until it blows up.

    Members share grid, dt, t_end, record_every, blowup_threshold, weight
    and nonlinearity, and may differ in p and dealias.  Each records a
    row every ``record_every`` steps and at the end.  With
    ``snapshot_every`` (a positive spacing) and ``snapshot_dirs`` (one per
    member; both or neither), each snapshot is written to
    ``snap_{i:06d}.dwsn`` as it is taken and only its
    :class:`~dampedwave.weights.SnapshotIntegrals` row is kept.  A member
    leaves the stacked arrays after its blow-up step; its final state is the
    end of that step if u is finite there, else its start.  A member whose
    source overflows at its initial data gets that ValueError in place of
    its outcome.
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    grid = cfg.grid
    for other, (u0, u1) in zip(cfgs, datas, strict=True):
        if replace(other, p=cfg.p, dealias=cfg.dealias) != cfg:
            raise ValueError("ensemble members may differ only in p and dealias")
        if u0.grid != grid or u1.grid != grid:
            raise ValueError("data fields do not live on the configured grid")
    if (snapshot_every is None) != (snapshot_dirs is None):
        raise ValueError("snapshot_every and snapshot_dir must be given together")
    if snapshot_every is not None and not snapshot_every > 0.0:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
    dirs = [None] * len(cfgs) if snapshot_dirs is None else [Path(d) for d in snapshot_dirs]
    members = []
    for index, (member_cfg, path) in enumerate(zip(cfgs, dirs, strict=True)):
        if path is not None:
            path.mkdir(parents=True, exist_ok=True)
        members.append(_Member(index, member_cfg, path))
    stepper = Stepper(cfgs)
    n_steps = int(round(cfg.t_end / cfg.dt))

    step, leaving = stepper.start(datas)
    outcomes: list = [None] * len(cfgs)
    if leaving is not None:
        for row in np.flatnonzero(leaving):
            outcomes[row] = ValueError("the source overflows at the initial data")
    u_coeffs, ut_coeffs, u_values, kick, peaks = step
    recorder = None
    dt, record_every, threshold = cfg.dt, cfg.record_every, cfg.blowup_threshold
    next_snapshot = 0.0 if snapshot_every is not None else np.inf
    try:
        for n in range(n_steps + 1):
            # members overflowed at t = 0 or blown up on the last step leave
            # here; each set of arrays is dropped before the next is made
            if leaving is not None:
                if leaving.all():
                    return outcomes
                members = [m for m, left in zip(members, leaving) if not left]
                if recorder is not None:
                    recorder.jobs.close()
                    recorder = None
                step = [None if stack is None else stack[~leaving] for stack in step]
                u_coeffs, ut_coeffs, u_values, kick, peaks = step
                stepper = None
                stepper = Stepper([m.cfg for m in members])
                leaving = None
            if recorder is None:
                recorder = _Recorder(cfg, members)
            t = n * dt
            recorded = n % record_every == 0 or n == n_steps
            if t >= next_snapshot - 1e-12:
                recorder.snapshot(t, u_coeffs, ut_coeffs, u_values, peaks, recorded)
                next_snapshot += snapshot_every
            elif recorded:
                recorder.record(t, u_coeffs, ut_coeffs, u_values, peaks)
            if n == n_steps:
                break

            *step, peak = stepper.advance(u_coeffs, ut_coeffs, kick)
            # the largest peak decides the step: NaN fails the comparison
            if not peak <= threshold:
                recorder.flush()
                leaving = ~(step[-1] <= threshold)
                for row in np.flatnonzero(leaving):
                    if np.isfinite(step[-1][row]):
                        final = state_from_coeffs(grid, t + dt, step[0][row], step[1][row])
                    else:
                        final = state_from_coeffs(grid, t, u_coeffs[row], ut_coeffs[row])
                    outcomes[members[row].index] = members[row].outcome(final, t + 0.5 * dt)
            u_coeffs, ut_coeffs, u_values, kick, peaks = step
        recorder.flush()
    finally:
        if recorder is not None:
            recorder.jobs.close()
    del recorder  # its arrays are not needed for the final states
    for row, m in enumerate(members):
        final = state_from_coeffs(grid, t, u_coeffs[row], ut_coeffs[row])
        outcomes[m.index] = m.outcome(final)
    return outcomes


def run(
    cfg: SolverConfig,
    data: tuple[RealField, RealField],
    snapshot_every: float | None = None,
    snapshot_dir: str | Path | None = None,
) -> RunOutcome:
    """One run: the one-member case of :func:`run_ensemble`.  Raises
    ValueError when the source overflows at the initial data."""
    snapshot_dirs = None if snapshot_dir is None else [snapshot_dir]
    (outcome,) = run_ensemble([cfg], [data], snapshot_every, snapshot_dirs)
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome
