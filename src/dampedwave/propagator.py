"""Exact solution operator of the linear damped wave equation.

Acting on the pair (u, u_t) in frequency space, one time step of length
``dt`` is the 2x2 multiplier matrix

    u_new  = (g + g')(dt) * u  +  g(dt) * u_t
    ut_new = -xi_sq * g(dt) * u  +  g'(dt) * u_t

with g the Green's multiplier and g' its time derivative.  The entries
follow from writing the homogeneous solution as g(t)(u0 + u1) + g'(t)u0
and differentiating once more; the second time derivative of g is
eliminated through the equation itself, g'' = -xi_sq*g - g', so no third
multiplier is ever needed.  The map is a one-parameter group in
frequency space, which the tests verify by composition.

:func:`evolve_coeffs` is the only code that applies this matrix; the
exact linear flow here and the semilinear stepper in ``solver`` both
call it with multipliers they evaluated beforehand.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import JobThread, block_rows, measure
from .spectral import Grid, RealField, boundary_contaminated, gather, greens_multipliers
from .timeseries import TimeSeries
from .weights import Scratch, WeightParams, weight_on_grid, weight_value


@dataclass
class LinearState:
    """Pair (u, u_t) at time t, both on the same grid."""

    t: float
    u: RealField
    ut: RealField

    def __post_init__(self) -> None:
        if self.u.grid != self.ut.grid:
            raise ValueError("u and u_t live on different grids")
        if self.t < 0.0:
            raise ValueError(f"time must be nonnegative, got {self.t}")

    @property
    def grid(self) -> Grid:
        return self.u.grid


def state_from_coeffs(
    grid: Grid, t: float, u_coeffs: np.ndarray, ut_coeffs: np.ndarray
) -> LinearState:
    """Physical state at time t from the real-FFT coefficients of
    (u, u_t); non-finite values are rejected by :class:`RealField`."""
    return LinearState(
        t=t,
        u=RealField(grid, grid.inverse(u_coeffs)),
        ut=RealField(grid, grid.inverse(ut_coeffs)),
    )


def evolve_coeffs(
    u_coeffs: np.ndarray,
    ut_coeffs: np.ndarray,
    g: np.ndarray,
    gdt: np.ndarray,
    stiffness: np.ndarray,
    u_sum: np.ndarray | None = None,
    out: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance spectral coefficients of (u, u_t) by the lag dt at which
    ``g, gdt = greens_multipliers(dt, xi_sq)`` were evaluated, with
    ``stiffness`` = xi_sq*g (all three once per lag; the stepper reuses
    them for every step).

    ``u_sum`` is ``u_coeffs + ut_coeffs`` when the caller already holds
    it.  ``out`` = (u_new, ut_new, work) are complex arrays shaped like
    the result that receive the results and the intermediate.  Without
    them every array is fresh; the floats are the same."""
    u_new, ut_new, work = (None,) * 3 if out is None else out
    if u_sum is None:
        u_sum = u_coeffs + ut_coeffs
    u_new = np.multiply(g, u_sum, out=u_new)
    u_new += np.multiply(gdt, u_coeffs, out=work)
    ut_new = np.multiply(gdt, ut_coeffs, out=ut_new)
    ut_new -= np.multiply(stiffness, u_coeffs, out=work)
    return u_new, ut_new


def linear_evolve(state: LinearState, dt: float) -> LinearState:
    """Exact homogeneous evolution of a state by dt."""
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    grid = state.grid
    u_coeffs = grid.forward(state.u.values)
    ut_coeffs = grid.forward(state.ut.values)
    index = grid.freq_index()
    g, gdt = (levels[index] for levels in greens_multipliers(dt, grid.freq_levels()))
    u_new, ut_new = evolve_coeffs(u_coeffs, ut_coeffs, g, gdt, grid.freq_sq() * g)
    return state_from_coeffs(grid, state.t + dt, u_new, ut_new)


def decay_profile(
    data: tuple[RealField, RealField],
    times,
    weight: WeightParams | None = None,
) -> TimeSeries:
    """Diagnostics of the exact linear solution at the given times.

    Each time is evaluated directly from the initial data (no stepping),
    so there is no accumulation of error.  ``weight`` feeds the weighted
    energy column; it defaults to offset 1, power 1.  A warning is
    issued when the boundary shell becomes contaminated.  Every time
    writes into the same arrays, allocated once per call.

    Where ``diagnostics.block_rows`` holds fewer than two times of the
    grid, each time's norms and energy are measured as a job for a
    ``diagnostics.JobThread`` while this thread evolves the next time
    into the other of two slots of arrays; the rows are the same.
    """
    u0, u1 = data
    if u0.grid != u1.grid:
        raise ValueError("data fields live on different grids")
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times.size and (np.any(np.diff(times) <= 0.0) or times[0] < 0.0):
        raise ValueError("times must be nonnegative and strictly increasing")
    if weight is None:
        weight = WeightParams(offset=1.0, power=1.0)

    grid = u0.grid
    xi_sq = grid.freq_sq()
    freq_levels, freq_index = grid.freq_levels(), grid.freq_index()
    u_coeffs = grid.forward(u0.values)
    ut_coeffs = grid.forward(u1.values)
    # g and gdt share one buffer, which holds u's values once
    # evolve_coeffs has read them
    multipliers = np.empty((2, *grid.half_shape))
    g, gdt = multipliers
    u_values = _floats(multipliers, grid.shape)
    stiffness = np.empty(grid.half_shape)
    # a slot holds one time's coefficients of u and u_t and a work array
    # whose floats then hold the weight; a job reads one slot while this
    # thread fills the other
    slots = []
    for _ in range(2):
        u_t, ut_t, work = (np.empty_like(u_coeffs) for _ in range(3))
        slots.append((u_t, ut_t, work, _floats(work, grid.shape)))
    scratch = Scratch.for_grid(grid)
    jobs = JobThread(inline=bool(block_rows(grid.size)))
    shell = grid.boundary_index()
    series = TimeSeries()

    def record(t: float, u_t: np.ndarray, ut_t: np.ndarray, psi: np.ndarray, peak: float) -> None:
        (row,) = measure(grid, t, u_t, ut_t, psi, peak, scratch)
        series.append(row)

    warned = False
    try:
        for k, t in enumerate(times.tolist()):
            # the job that read this slot was waited for at the last submit
            u_t, ut_t, work, psi = slots[k % 2]
            g_levels, gdt_levels = greens_multipliers(t, freq_levels)
            gather(g_levels, freq_index, out=g)
            gather(gdt_levels, freq_index, out=gdt)
            np.multiply(xi_sq, g, out=stiffness)
            u_sum = np.add(u_coeffs, ut_coeffs, out=u_t)
            evolve_coeffs(u_coeffs, ut_coeffs, g, gdt, stiffness, u_sum, out=(u_t, ut_t, work))
            grid.inverse(u_t, u_values, work)
            peak = max(u_values.max(), -u_values.min())
            if not warned and boundary_contaminated(gather(u_values.reshape(-1), shell), peak):
                warnings.warn(
                    f"boundary shell contaminated at t={t}; enlarge the box",
                    stacklevel=2,
                )
                warned = True
            weight_on_grid(weight_value, t, grid, weight, out=psi)
            jobs.submit(functools.partial(record, t, u_t, ut_t, psi, peak))
        jobs.wait()
    finally:
        jobs.close()
    return series


def _floats(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading floats of a contiguous real or complex ``buffer`` as an
    array of ``shape``.  One complex half-spectrum array, or two real
    ones, hold (M + 2) * M^(dim-1) floats: more than a field's M^dim."""
    return buffer.reshape(-1).view(float)[: math.prod(shape)].reshape(shape)
