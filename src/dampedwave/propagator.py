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

import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import measure
from .spectral import Grid, RealField, boundary_contaminated, greens_multipliers
from .timeseries import TimeSeries
from .weights import WeightParams


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
    xi_sq: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance spectral coefficients of (u, u_t) by the lag dt at which
    ``g, gdt = greens_multipliers(dt, xi_sq)`` were evaluated (once per
    lag; the stepper reuses one pair for every step)."""
    u_new = g * (u_coeffs + ut_coeffs) + gdt * u_coeffs
    ut_new = gdt * ut_coeffs - xi_sq * g * u_coeffs
    return u_new, ut_new


def linear_evolve(state: LinearState, dt: float) -> LinearState:
    """Exact homogeneous evolution of a state by dt."""
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    grid = state.grid
    u_coeffs = grid.forward(state.u.values)
    ut_coeffs = grid.forward(state.ut.values)
    xi_sq = grid.freq_sq()
    u_new, ut_new = evolve_coeffs(u_coeffs, ut_coeffs, *greens_multipliers(dt, xi_sq), xi_sq)
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
    issued when the boundary shell becomes contaminated.
    """
    u0, u1 = data
    if u0.grid != u1.grid:
        raise ValueError("data fields live on different grids")
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) <= 0.0) or times[0] < 0.0):
        raise ValueError("times must be nonnegative and strictly increasing")
    if weight is None:
        weight = WeightParams(offset=1.0, power=1.0)

    grid = u0.grid
    xi_sq = grid.freq_sq()
    u_coeffs = grid.forward(u0.values)
    ut_coeffs = grid.forward(u1.values)

    series = TimeSeries()
    warned = False
    for t in times.tolist():
        u_t, ut_t = evolve_coeffs(u_coeffs, ut_coeffs, *greens_multipliers(t, xi_sq), xi_sq)
        u_values = grid.inverse(u_t)
        if not warned and boundary_contaminated(u_values, grid):
            warnings.warn(
                f"boundary shell contaminated at t={t}; enlarge the box",
                stacklevel=2,
            )
            warned = True
        series.append(measure(grid, t, u_t, ut_t, weight, u_values))
    return series
