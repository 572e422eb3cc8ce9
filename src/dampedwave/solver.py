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
assuming it.  :func:`run_ensemble` holds the only step loop.  It stacks
the members' real-FFT coefficients along a leading axis, applies the
linear group through ``propagator.evolve_coeffs`` with multipliers built
once, and evaluates each member's source with its own scalar exponent,
so every member's numbers are bit for bit those of its own run.
:func:`run` is the one-member case.

The predictor f* = |u_{n+1}|^p is exactly the next step's f_n, so the
source is evaluated once per step: :meth:`Stepper.start` computes f_0
with the initial stacks, and :meth:`Stepper.advance` returns f* for the
loop to pass into the next step.

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
and snapshot is measured on a ``diagnostics.JobThread`` while the loop
takes the next step, with the same rows.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .diagnostics import JobThread, block_rows, measure
from .exponents import ProblemParams
from .propagator import LinearState, evolve_coeffs, state_from_coeffs
from .snapshots import write_snapshot
from .spectral import Grid, RealField, boundary_contaminated, gather, greens_multipliers
from .timeseries import TimeSeries
from .weights import (
    Scratch,
    SnapshotIntegrals,
    WeightParams,
    snapshot_integrals,
    spectral_energy,
    weight_dt,
    weight_on_grid,
    weight_value,
)


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


def source_term(
    u_values: np.ndarray, p: float, signed: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """Pointwise |u|^p (or |u|^(p-1)*u for the signed variant), written
    into ``out`` when given.

    Non-integer powers go through exp(p*log|u|) inside numpy, with the
    u = 0 limit equal to 0.  Overflow produces infinities which the
    caller treats as a blow-up candidate; a caller that may overflow
    silences numpy's floating-point warnings around the call.
    """
    if not p > 1.0:
        raise ValueError(f"p must be > 1, got {p}")
    return _raise_abs(np.abs(u_values, out=out), u_values, p, signed)


def _raise_abs(f: np.ndarray, u_values: np.ndarray, p: float, signed: bool) -> np.ndarray:
    """:func:`source_term` from |u_values| in ``f``, written in place."""
    if signed:
        f **= p - 1.0
        f *= u_values
    else:
        f **= p
    return f


class _StepArrays:
    """What :meth:`Stepper.advance` writes, for one member count: two
    pairs of (u_coeffs, ut_coeffs), filled in turn because a step reads
    the previous step's pair (and a blow-up step's start is its final
    state), the new u values and source coefficients (which hold the
    kicked u_t until f* replaces them), and work space.  Made once, so
    that no step faults in fresh pages."""

    def __init__(self, members: int, grid: Grid):
        coeffs, values = (members, *grid.half_shape), (members, *grid.shape)
        self.pairs = [(np.empty(coeffs, complex), np.empty(coeffs, complex)) for _ in range(2)]
        self.u_values, self.field = np.empty(values), np.empty(values)
        self.f_hat, self.work = np.empty(coeffs, complex), np.empty(coeffs, complex)

    def next_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The pair the previous step did not write."""
        self.pairs.reverse()
        return self.pairs[0]


class Stepper:
    """Multipliers for one (grid, dt) pair shared by every member of an
    ensemble (g, g' and the stiffness xi_sq*g), the members' powers and
    their stacked dealias mask with its complement, the modes it
    discards.  The arrays it steps carry a leading member axis; it
    writes each step into a :class:`_StepArrays` made for the current
    member count."""

    def __init__(self, cfgs: list[SolverConfig]):
        self.cfg = cfgs[0]
        grid = self.cfg.grid
        self.xi_sq = grid.freq_sq()
        index = grid.freq_index()
        g, gdt = greens_multipliers(self.cfg.dt, grid.freq_levels())
        self.g, self.gdt = g[index], gdt[index]
        self.stiffness = self.xi_sq * self.g
        self.powers = [cfg.problem.p for cfg in cfgs]
        self.one_power = len(set(self.powers)) == 1
        # every member's |u|^p (or |u|^(p-1)*u) stays below 1e300 while
        # every peak is at most this; NaN and larger peaks get the full check
        self.overflow_limit = 1e300 ** (1.0 / max(self.powers))
        # 2/3 rule: heuristic for non-polynomial powers, but it removes
        # the worst of the aliasing from the pointwise source.
        self.dealias_mask = self.discard = None
        if any(cfg.dealias_active for cfg in cfgs):
            keep_all = np.ones(grid.half_shape, dtype=bool)
            masks = [grid.dealias_mask() if cfg.dealias_active else keep_all for cfg in cfgs]
            self.dealias_mask = np.stack(masks)
            self.discard = ~self.dealias_mask
        self.arrays: _StepArrays | None = None

    def retain(self, keep: np.ndarray, *stacks: np.ndarray | None) -> list:
        """Drop the members whose ``keep`` entry is False, here and from
        ``stacks`` (None passes through)."""
        self.powers = [p for p, kept in zip(self.powers, keep) if kept]
        self.one_power = len(set(self.powers)) == 1
        if self.dealias_mask is not None:
            self.dealias_mask, self.discard = self.dealias_mask[keep], self.discard[keep]
        self.arrays = None  # made again for the new member count
        return [None if stack is None else stack[keep] for stack in stacks]

    def start(self, datas: list[tuple[RealField, RealField]]) -> tuple[tuple, np.ndarray | None]:
        """Initial (u_coeffs, ut_coeffs, u_values, f_0, peaks), written into
        new step arrays, and the overflow mask of :meth:`source_coeffs`."""
        grid = self.cfg.grid
        a = self.arrays = _StepArrays(len(datas), grid)
        u_coeffs, ut_coeffs = a.pairs[0]
        u_values = np.stack([u0.values for u0, _ in datas], out=a.u_values)
        grid.forward(u_values, out=u_coeffs)
        grid.forward(np.stack([u1.values for _, u1 in datas], out=a.field), out=ut_coeffs)
        peaks = np.abs(u_values, out=a.field).max(axis=grid.axes)
        f_hat, overflow = self.source_coeffs(u_values, a.field, a.f_hat)
        return (u_coeffs, ut_coeffs, u_values, f_hat, peaks), overflow

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
        kind = self.cfg.nonlinearity
        if kind is Nonlinearity.NONE:
            return None, None
        signed = kind is Nonlinearity.SIGNED
        quiet = peak <= self.overflow_limit
        with contextlib.nullcontext() if quiet else np.errstate(over="ignore", invalid="ignore"):
            f = np.abs(u_values) if field is None else field
            if self.one_power:  # one exponent: one evaluation, no copies
                _raise_abs(f, u_values, self.powers[0], signed)
            else:
                for row, p in enumerate(self.powers):
                    # a scalar exponent per member keeps numpy's p = 2 square path
                    _raise_abs(f[row], u_values[row], p, signed)
        overflow = None
        if not quiet:
            finite = np.isfinite(f)
            if not finite.all():
                overflow = ~finite.all(axis=self.cfg.grid.axes)
                f[overflow] = 0.0
        f_hat = self.cfg.grid.forward(f, out=out)
        if self.discard is not None:
            np.copyto(f_hat, 0.0, where=self.discard)
        return f_hat, overflow

    def advance(
        self, u_coeffs: np.ndarray, ut_coeffs: np.ndarray, f_hat: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """One step from (u_n, ut_n) with f_n = ``f_hat``; returns the new
        (u_coeffs, ut_coeffs, u_values), f* (the source at the new u,
        which is the next step's f_n) and each member's max |u_{n+1}|,
        inf where f* is non-finite: the step has blown up there.  The
        arrays are the stepper's own: the next step overwrites the u
        values and f* (its ``f_hat``, which it first fills with the kicked
        u_t), the step after next the coefficients."""
        grid, half_dt = self.cfg.grid, 0.5 * self.cfg.dt
        if self.arrays is None:
            self.arrays = _StepArrays(len(u_coeffs), grid)
        a = self.arrays
        u_new, ut_new = a.next_pair()
        if f_hat is not None:
            ut_coeffs = np.add(ut_coeffs, np.multiply(half_dt, f_hat, out=a.f_hat), out=a.f_hat)
        # evolve_coeffs reads u_sum before it writes work
        u_sum = np.add(u_coeffs, ut_coeffs, out=a.work)
        evolve_coeffs(
            u_coeffs, ut_coeffs, self.g, self.gdt, self.stiffness, u_sum,
            out=(u_new, ut_new, a.work),
        )
        u_values_new = grid.inverse(u_new, a.u_values, a.work)
        peaks = np.abs(u_values_new, out=a.field).max(axis=grid.axes)
        # the source starts from |u| in field; evolve_coeffs has read the
        # kicked u_t, so f* may take its place
        f_star, overflow = self.source_coeffs(u_values_new, a.field, a.f_hat, peaks.max())
        if overflow is not None:
            peaks[overflow] = np.inf
        if f_star is not None:
            ut_new += np.multiply(half_dt, f_star, out=a.work)
        return u_new, ut_new, u_values_new, f_star, peaks


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

    Where ``diagnostics.block_rows`` holds two or more record times of
    the members, :meth:`record` copies each member's coefficients, peak and
    boundary-shell values into the next row of a block, and
    :meth:`flush` measures the filled rows together.  Otherwise, and on
    a snapshot step, the records are measured at once from the live
    arrays, after a flush.  Each state is measured once, each series gets
    its rows in time order, and the weight is evaluated once per time
    for all members.  A recorder serves one member list: the loop flushes
    it and makes another when members leave.

    Without a block, each measured state's coefficient work (norms,
    gradient and u_t inverses, energies) is a job for a
    ``diagnostics.JobThread`` while the loop steps on; work that reads
    u's values (the shell gather; for snapshots the u_t inverse, the
    integrals and the file) stays on the loop.  Jobs run one at a time in
    time order, :meth:`flush` waits for the last one, and the loop closes
    ``jobs`` when it drops the recorder.
    """

    def __init__(self, cfg: SolverConfig, members: list[_Member]):
        grid = self.grid = cfg.grid
        self.weight, self.members = cfg.weight, members
        self.shell = grid.boundary_index()
        self.capacity = block_rows(grid.size * len(members))
        lead = (max(self.capacity, 1), len(members))
        self.scratch = Scratch.for_grid(grid, lead)
        self.psi, self.psi_dt = np.empty((lead[0], *grid.shape)), None
        self.filled = 0
        if self.capacity:
            self.times = np.empty(self.capacity)
            self.u_coeffs = np.empty(lead + grid.half_shape, dtype=complex)
            self.ut_coeffs = np.empty_like(self.u_coeffs)
            self.peaks = np.empty(lead)
            self.edges = np.empty(lead + self.shell.shape)
        self.jobs, self.age = JobThread(inline=bool(self.capacity)), 2

    def record(self, t, u_coeffs, ut_coeffs, u_values, peaks) -> None:
        """The members' (stacked) states at t: one block row, or a job
        that measures the live arrays when there is no block."""
        if not self.capacity:
            edges = self._edges(u_values)[None]
            self._submit(lambda: self._measure(
                np.array([t]), u_coeffs[None], ut_coeffs[None], peaks[None], edges
            ))
            return
        row = self.filled
        self.times[row] = t
        self.u_coeffs[row], self.ut_coeffs[row] = u_coeffs, ut_coeffs
        self.peaks[row] = peaks
        self._edges(u_values, out=self.edges[row])
        self.filled += 1
        if self.filled == self.capacity:
            self.flush()

    def flush(self) -> None:
        """Wait for the job thread and measure the filled block rows."""
        self.jobs.wait()
        rows, self.filled = self.filled, 0
        if rows:
            self._measure(
                self.times[:rows], self.u_coeffs[:rows], self.ut_coeffs[:rows],
                self.peaks[:rows], self.edges[:rows],
            )

    def snapshot(self, t, u_coeffs, ut_coeffs, u_values, peaks, recorded) -> None:
        """Write and reduce the members' states at t, after a flush, so
        the weight is evaluated in time order.  The u_t stack inverted
        into ``scratch.ut_values[0]`` serves the files, the integrals (in
        the idle scratch) and the job, which measures the record when
        ``recorded`` (else the energies) and puts the energies in the rows."""
        grid = self.grid
        self.flush()
        ut_values = grid.inverse(ut_coeffs, self.scratch.ut_values[0], self.scratch.coeffs[0])
        psi = weight_on_grid(weight_value, t, grid, self.weight, out=self.psi[0])
        self.psi_dt = weight_on_grid(weight_dt, t, grid, self.weight, out=self.psi_dt)
        scratch = self.scratch._make(a[0, 0] for a in self.scratch)
        rows = []
        for m, u, ut in zip(self.members, u_values, ut_values):
            p = m.cfg.problem.p
            path = m.snapshot_dir / f"snap_{len(m.snapshots):06d}.dwsn"
            write_snapshot(path, grid, t, u, ut, p, self.weight)
            rows.append(snapshot_integrals(
                grid, t, None, u, ut, psi, self.psi_dt, p, scratch, energy=0.0
            ))
        edges = self._edges(u_values)[None] if recorded else None

        def job() -> None:
            if recorded:
                self._measure(
                    np.array([t]), u_coeffs[None], ut_coeffs[None], peaks[None], edges,
                    ut_values[None], psi[None],
                )
                energies = [m.series.rows[-1]["weighted_energy"] for m in self.members]
            else:
                stack = self.scratch._make(a[0] for a in self.scratch)
                energies = spectral_energy(grid, u_coeffs, ut_values, psi, stack).tolist()
            for m, row, energy in zip(self.members, rows, energies):
                m.snapshots.append(row._replace(energy=energy))

        self._submit(job)

    def before_step(self) -> None:
        """Wait before the second step after a job's time, which
        overwrites the coefficient pair the job reads."""
        self.age += 1
        if self.age == 2:
            self.jobs.wait()

    def _submit(self, job) -> None:
        """Run ``job`` after the previous one: inline with a block, else on
        the job thread."""
        self.jobs.submit(job)
        self.age = 0

    def _edges(self, u_values, out=None) -> np.ndarray:
        """Each member's boundary-shell values (members, shell points),
        into ``out`` when given."""
        return gather(u_values.reshape(len(u_values), -1), self.shell, out=out)

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
    leaves the stacked arrays on its blow-up step; its final state is the
    end of that step if u is finite there, else its start.  A member whose
    source overflows at its initial data gets that ValueError in place of
    its outcome.
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    grid = cfg.grid
    for other, (u0, u1) in zip(cfgs, datas, strict=True):
        shared = replace(other, problem=replace(other.problem, p=cfg.problem.p))
        if replace(shared, dealias=cfg.dealias) != cfg:
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

    step, overflow = stepper.start(datas)
    outcomes: list = [None] * len(cfgs)
    if overflow is not None:
        for row in np.flatnonzero(overflow):
            outcomes[row] = ValueError("the source overflows at the initial data")
        if overflow.all():
            return outcomes
        members = [m for m, failed in zip(members, overflow) if not failed]
        step = stepper.retain(~overflow, *step)
    u_coeffs, ut_coeffs, u_values, f_hat, peaks = step
    recorder = _Recorder(cfg, members)
    next_snapshot = 0.0 if snapshot_every is not None else np.inf
    try:
        for n in range(n_steps + 1):
            t = n * cfg.dt
            recorded = n % cfg.record_every == 0 or n == n_steps
            if t >= next_snapshot - 1e-12:
                recorder.snapshot(t, u_coeffs, ut_coeffs, u_values, peaks, recorded)
                next_snapshot += snapshot_every
            elif recorded:
                recorder.record(t, u_coeffs, ut_coeffs, u_values, peaks)
            if n == n_steps:
                break

            recorder.before_step()
            step = stepper.advance(u_coeffs, ut_coeffs, f_hat)
            peaks = step[-1]
            # the members' peaks decide the step: NaN fails the comparison
            if not peaks.max() <= cfg.blowup_threshold:
                recorder.flush()
                blown = ~(peaks <= cfg.blowup_threshold)
                for row in np.flatnonzero(blown):
                    if np.isfinite(peaks[row]):
                        final = state_from_coeffs(grid, t + cfg.dt, step[0][row], step[1][row])
                    else:
                        final = state_from_coeffs(grid, t, u_coeffs[row], ut_coeffs[row])
                    outcomes[members[row].index] = members[row].outcome(final, t + 0.5 * cfg.dt)
                if blown.all():
                    return outcomes
                members = [m for m, failed in zip(members, blown) if not failed]
                recorder.jobs.close()
                recorder = _Recorder(cfg, members)
                step = stepper.retain(~blown, *step)
            u_coeffs, ut_coeffs, u_values, f_hat, peaks = step
        recorder.flush()
    finally:
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
