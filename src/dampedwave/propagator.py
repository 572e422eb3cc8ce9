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

:func:`multipliers` is the only code that builds a lag's (g, g',
xi_sq*g) and :func:`evolve_coeffs` the only code that applies them, for
the exact linear flow here and the semilinear stepper in ``solver``.
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
        if not 0.0 <= self.t < math.inf:
            raise ValueError(f"time must be finite and nonnegative, got {self.t}")

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


def multipliers(grid: Grid, t: float, out: tuple | None = None) -> tuple[np.ndarray, ...]:
    """The lag-t multipliers (g, g', xi_sq*g) on the half-spectrum
    layout: the Green's multipliers evaluated once per |xi|^2 level and
    placed on the grid.  ``out`` = three real half-spectrum arrays
    receive them; without it every array is fresh."""
    g, gdt, stiffness = (None,) * 3 if out is None else out
    index = grid.freq_index()
    g_levels, gdt_levels = greens_multipliers(t, grid.freq_levels())
    g = gather(g_levels, index, out=g)
    gdt = gather(gdt_levels, index, out=gdt)
    return g, gdt, np.multiply(grid.freq_sq(), g, out=stiffness)


def evolve_coeffs(
    u_coeffs: np.ndarray, ut_coeffs: np.ndarray, lag: tuple, out: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Advance spectral coefficients of (u, u_t) by the lag whose
    :func:`multipliers` are ``lag``.

    ``out`` = (u_new, ut_new, work) are complex arrays shaped like the
    result that receive the results and the intermediates; u_new holds
    neither input, and ``ut_coeffs`` may be ``ut_new``.  Without them
    every array is fresh; the floats are the same."""
    g, gdt, stiffness = lag
    u_new, ut_new, work = (None,) * 3 if out is None else out
    u_new = np.add(u_coeffs, ut_coeffs, out=u_new)
    np.multiply(g, u_new, out=u_new)
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
    u_new, ut_new = evolve_coeffs(u_coeffs, ut_coeffs, multipliers(grid, dt))
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
    # the cached |xi|^2 arrays before the buffers: perfbench's calibration reads this heap
    grid.freq_index()
    u_coeffs = grid.forward(u0.values)
    ut_coeffs = grid.forward(u1.values)
    # g and gdt share one buffer, which holds u's values once
    # evolve_coeffs has read them
    g_gdt = np.empty((2, *grid.half_shape))
    lag = (*g_gdt, np.empty(grid.half_shape))
    u_values = _floats(g_gdt, grid.shape)
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
            multipliers(grid, t, out=lag)
            evolve_coeffs(u_coeffs, ut_coeffs, lag, out=(u_t, ut_t, work))
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
