"""Periodic grid management, FFTs, and the damped-wave Fourier multipliers.

The continuum problem lives on R^N; here it is truncated to a periodic
box [-L, L)^dim sampled with M points per axis, so the discrete
frequencies are xi_k = pi*k/L for k in the standard FFT index set.  The
solution operator of u_tt - Lap u + u_t = 0 acts diagonally in frequency
through two scalar multipliers evaluated by :func:`greens_multiplier`
and :func:`greens_multiplier_dt`; both switch between a sinh branch
(|xi| < 1/2), a sin branch (|xi| > 1/2) and a short Taylor series near
the branch point where the closed forms cancel catastrophically.

FFT normalization: forward transform unscaled, inverse divides by
M^dim (the numpy convention).  Physical-space norms carry the h^dim
quadrature weight so they approximate continuum L^p norms.  There are
no transform wrappers: callers apply ``np.fft.fftn``/``ifftn`` to raw
arrays and multiply coefficients by the multipliers directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Width of the Taylor window around the branch point xi_sq = 1/4.
BRANCH_TOL = 1e-8

# Boundary values above this fraction of the field maximum indicate that
# the truncated box is too small for the run.
BOUNDARY_FRACTION = 1e-8


def _built_once(method):
    """Run a Grid array method once per instance and hand out the same
    read-only array afterwards.  The cache sits outside the dataclass
    fields, so equality and hashing ignore it, and pickling drops it."""

    @functools.wraps(method)
    def cached(self) -> np.ndarray:
        arrays = self.__dict__.setdefault("_arrays", {})
        if method.__name__ not in arrays:
            array = method(self)
            array.flags.writeable = False
            arrays[method.__name__] = array
        return arrays[method.__name__]

    return cached


@dataclass(frozen=True)
class Grid:
    """Periodic box [-half_width, half_width)^dim with ``points`` samples
    per axis.  ``points`` must be even and at least 8; three-dimensional
    grids are capped at 128 points per axis to bound memory.
    :meth:`freq_sq`, :meth:`radius_sq` and :meth:`boundary_mask` build
    their array once per instance and return it read-only."""

    dim: int
    half_width: float
    points: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.half_width > 0.0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.points < 8 or self.points % 2 != 0:
            raise ValueError(
                f"points must be an even integer >= 8, got {self.points}"
            )
        if self.dim == 3 and self.points > 128:
            raise ValueError("3-d grids are capped at 128 points per axis")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_arrays"}

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def size(self) -> int:
        return self.points**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coords(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid coordinates, one full array per axis."""
        axes = (self.axis_coords(),) * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @_built_once
    def radius_sq(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for x in self.coords():
            out += x * x
        return out

    def axis_freqs(self) -> np.ndarray:
        """Angular frequencies pi*k/L along one axis, FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def along(self, axis_values: np.ndarray, axis: int) -> np.ndarray:
        """View of a per-axis array that broadcasts along ``axis``."""
        shape = [1] * self.dim
        shape[axis] = self.points
        return axis_values.reshape(shape)

    @_built_once
    def freq_sq(self) -> np.ndarray:
        xi_sq = self.axis_freqs() ** 2
        out = np.zeros(self.shape)
        for axis in range(self.dim):
            out += self.along(xi_sq, axis)
        return out

    @_built_once
    def boundary_mask(self) -> np.ndarray:
        """Outermost grid layer on every axis (the shell watched for
        contamination by the periodic images)."""
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.dim):
            index = [slice(None)] * self.dim
            index[axis] = 0
            mask[tuple(index)] = True
            index[axis] = self.points - 1
            mask[tuple(index)] = True
        return mask


@dataclass
class RealField:
    """Real-valued grid function; non-finite entries are rejected because
    they signal blow-up, which the solver handles explicitly."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.cell_volume * np.sum(self.values**2)))

    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def mean(self) -> float:
        return float(np.mean(self.values))


# ---------------------------------------------------------------------------
# Damped-wave multipliers
# ---------------------------------------------------------------------------
#
# With omega = sqrt(1/4 - xi_sq) the Green's multiplier is
#     g(t) = exp(-t/2) * sinh(t*omega)/omega          (xi_sq < 1/4)
#          = exp(-t/2) * t                            (xi_sq = 1/4)
#          = exp(-t/2) * sin(t*nu)/nu                 (xi_sq > 1/4),
# nu = sqrt(xi_sq - 1/4).  The sinh branch is evaluated in the
# overflow-free form (exp(t*(omega-1/2)) - exp(-t*(omega+1/2)))/(2*omega):
# omega <= 1/2 keeps both exponents nonpositive for every t >= 0, so the
# expression stays finite no matter how large t grows.  Near the branch
# point both closed forms cancel; there we use 4 terms of the Taylor
# series of sinh(x)/x and cosh(x) in z = t^2*(1/4 - xi_sq), which is
# valid for either sign of z.


def _split_branches(t: float, xi_sq):
    """Checked inputs of both multipliers: whether ``xi_sq`` is a scalar,
    delta = 1/4 - xi_sq as an array, and the sinh/sin/series masks."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    delta = 0.25 - np.atleast_1d(xi_sq)
    near = np.abs(delta) < BRANCH_TOL
    low = delta >= BRANCH_TOL
    high = delta <= -BRANCH_TOL
    return xi_sq.ndim == 0, delta, low, high, near


def greens_multiplier(t: float, xi_sq) -> np.ndarray | float:
    """Multiplier of the operator mapping initial velocity to the solution
    of the linear damped wave equation at time t."""
    scalar, delta, low, high, near = _split_branches(t, xi_sq)
    out = np.empty_like(delta)

    omega = np.sqrt(delta[low])
    out[low] = (np.exp(t * (omega - 0.5)) - np.exp(-t * (omega + 0.5))) / (
        2.0 * omega
    )
    nu = np.sqrt(-delta[high])
    out[high] = np.exp(-0.5 * t) * np.sin(t * nu) / nu
    z = t * t * delta[near]
    out[near] = (
        np.exp(-0.5 * t)
        * t
        * (1.0 + z / 6.0 + z * z / 120.0 + z * z * z / 5040.0)
    )
    return float(out[0]) if scalar else out


def greens_multiplier_dt(t: float, xi_sq) -> np.ndarray | float:
    """Time derivative of :func:`greens_multiplier`:
    exp(-t/2) * (cosh(t*omega) - sinh(t*omega)/(2*omega)) and its sin/cos
    counterpart past the branch point."""
    scalar, delta, low, high, near = _split_branches(t, xi_sq)
    out = np.empty_like(delta)

    omega = np.sqrt(delta[low])
    e_plus = np.exp(t * (omega - 0.5))
    e_minus = np.exp(-t * (omega + 0.5))
    out[low] = 0.5 * (e_plus + e_minus) - 0.5 * (e_plus - e_minus) / (2.0 * omega)
    nu = np.sqrt(-delta[high])
    out[high] = np.exp(-0.5 * t) * (
        np.cos(t * nu) - 0.5 * np.sin(t * nu) / nu
    )
    z = t * t * delta[near]
    cosh_series = 1.0 + z / 2.0 + z * z / 24.0 + z * z * z / 720.0
    sinhc_series = 1.0 + z / 6.0 + z * z / 120.0 + z * z * z / 5040.0
    out[near] = np.exp(-0.5 * t) * (cosh_series - 0.5 * t * sinhc_series)
    return float(out[0]) if scalar else out


def boundary_contaminated(values: np.ndarray, grid: Grid) -> bool:
    """True when the boundary shell carries more than BOUNDARY_FRACTION of
    the field maximum, i.e. the periodic images have started to talk."""
    peak = np.max(np.abs(values))
    if peak == 0.0 or not np.isfinite(peak):
        return False
    edge = np.max(np.abs(values[grid.boundary_mask()]))
    return bool(edge > BOUNDARY_FRACTION * peak)
