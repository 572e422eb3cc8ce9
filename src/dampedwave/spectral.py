"""Periodic grid management, FFTs, and the damped-wave Fourier multipliers.

The continuum problem lives on R^N; here it is truncated to a periodic
box [-L, L)^dim sampled with M points per axis, so the discrete
frequencies are xi_k = pi*k/L for k in the standard FFT index set.  The
solution operator of u_tt - Lap u + u_t = 0 acts diagonally in frequency
through two scalar multipliers, g and its time derivative g', which
:func:`greens_multipliers` evaluates together: one split between a sinh
branch (|xi| < 1/2), a sin branch (|xi| > 1/2) and a short Taylor series
near the branch point where the closed forms cancel catastrophically.

Fields are real, so every transform is a real FFT on the half-spectrum
layout: :meth:`Grid.forward` (``np.fft.rfftn``, ``rfft`` in 1-D) keeps
the last axis only for k = 0..M/2 (shape :attr:`Grid.half_shape`), the
other axes in the full FFT layout, and :meth:`Grid.inverse` (``ifft``
on the leading axes, then ``irfft``) returns a real array that owns its
memory.  Hermitian symmetry is structural, so no imaginary residue is
ever discarded.  Every array in frequency space (:meth:`Grid.freq_sq`,
the multipliers, the dealias mask) lives on that layout, and callers
multiply coefficients by the multipliers directly.

Radial levels: |xi|^2 and |x|^2 take far fewer distinct values than
there are grid points, and the multipliers and the weight depend on
nothing else.  :meth:`Grid.freq_levels` and
:meth:`Grid.radius_levels` hold the sorted distinct values,
:meth:`Grid.freq_index` and :meth:`Grid.radius_index` the position of
every point among them, so a radial function is evaluated once per
level and gathered onto the grid: ``f(levels)[index]`` is ``f(values)``
bit for bit, since every function evaluated this way is elementwise.
:func:`gather` places level values on the grid without allocating: the
indices are native ``intp`` and reach ``np.take`` writeable, since it
copies any other index in full on every call.

FFT normalization: forward transform unscaled, inverse divides by
M^dim (the numpy convention).  Physical-space norms carry the h^dim
quadrature weight so they approximate continuum L^p norms.  Parseval on
the half spectrum counts the interior last-axis columns twice (each
stands for itself and its conjugate partner) and the k = 0 and k = M/2
columns once (M is even, so both are their own partners).

Odd derivatives: the multiplier i*xi of d/dx_j is zeroed at the Nyquist
frequency xi = -pi*M/(2L) of axis j (:meth:`Grid.derivative_freqs`).
That mode has no partner of opposite sign, so i*xi there is not the
transform of a real field: a complex inverse transform followed by
taking the real part drops it, ``irfftn`` would not.  ``freq_sq`` keeps
the Nyquist mode, since xi^2 is even.
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
    read-only view of its array afterwards (the array itself stays
    writeable for :func:`gather`).  The cache sits outside the dataclass
    fields, so equality and hashing ignore it, and pickling drops it."""

    @functools.wraps(method)
    def cached(self) -> np.ndarray:
        arrays = self.__dict__.setdefault("_arrays", {})
        if method.__name__ not in arrays:
            view = method(self).view()
            view.flags.writeable = False
            arrays[method.__name__] = view
        return arrays[method.__name__]

    return cached


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of ``values``, by a sort and a comparison
    of neighbours: numpy's set routines would import numpy.ma."""
    flat = np.sort(values, axis=None)
    keep = np.empty(flat.size, dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


@dataclass(frozen=True)
class Grid:
    """Periodic box [-half_width, half_width)^dim with ``points`` samples
    per axis.  ``points`` must be even and at least 8; three-dimensional
    grids are capped at 128 points per axis to bound memory.
    The arrays of :meth:`freq_sq`, :meth:`derivative_freqs`,
    :meth:`dealias_mask`, :meth:`radius_sq`, :meth:`boundary_mask`,
    :meth:`boundary_index` and the radial levels and indices (:meth:`freq_levels`,
    :meth:`freq_index`, :meth:`radius_levels`, :meth:`radius_index`) are
    built once per instance, on first use, and returned read-only."""

    dim: int
    half_width: float
    points: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not 0.0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
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
    def half_shape(self) -> tuple[int, ...]:
        """Shape of the real-FFT coefficients of a field."""
        return self.shape[:-1] + (self.points // 2 + 1,)

    @property
    def axes(self) -> tuple[int, ...]:
        """The trailing ``dim`` axes: the transforms act on a field or on a
        stack of fields with leading member axes."""
        return tuple(range(-self.dim, 0))

    @property
    def size(self) -> int:
        return self.points**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coords(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid coordinates, one array per axis that holds the axis's
        values along it and broadcasts along the others."""
        axes = (self.axis_coords(),) * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    @_built_once
    def radius_sq(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for x in self.coords():
            out += x * x
        return out

    @_built_once
    def radius_levels(self) -> np.ndarray:
        """Sorted distinct values of :meth:`radius_sq`."""
        return _distinct(self.radius_sq())

    @_built_once
    def radius_index(self) -> np.ndarray:
        """Position of every :meth:`radius_sq` entry in
        :meth:`radius_levels` (grid shape)."""
        return np.searchsorted(self.radius_levels(), self.radius_sq())

    def forward(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Real-FFT coefficients of a field (or of each field of a stack),
        half-spectrum layout, written into ``out`` when given.  In 1-D
        ``rfft`` gives the floats of ``rfftn`` without its n-D argument
        handling, which costs more than the transform on small grids."""
        if self.dim == 1:
            return np.fft.rfft(values, axis=-1, out=out)
        return np.fft.rfftn(values, axes=self.axes, out=out)

    def inverse(
        self, coeffs: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
    ) -> np.ndarray:
        """Field (or stack of fields) with the given half-spectrum
        coefficients, into ``out`` when given: ``irfftn``'s calls, with
        the leading axes inverted in place in ``work`` (complex, shaped
        like ``coeffs``, which it may be) or in one fresh array."""
        for axis in range(-self.dim, -1):
            coeffs = work = np.fft.ifft(coeffs, axis=axis, out=work)
        return np.fft.irfft(coeffs, n=self.points, axis=-1, out=out)

    def axis_freqs(self) -> np.ndarray:
        """Angular frequencies pi*k/L along one axis, full FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def along(self, axis_values: np.ndarray, axis: int) -> np.ndarray:
        """View of a per-axis array (of any length) that broadcasts along
        ``axis``."""
        shape = [1] * self.dim
        shape[axis] = axis_values.size
        return axis_values.reshape(shape)

    def half_along(self, axis_values: np.ndarray, axis: int) -> np.ndarray:
        """A full-layout per-axis array cut to the half-spectrum layout on
        the last axis, shaped to broadcast along ``axis``.  The first
        M/2+1 full-layout entries are k = 0..M/2-1 and -M/2, so this is
        right for any array that is even at the Nyquist frequency."""
        return self.along(axis_values[: self.half_shape[axis]], axis)

    @_built_once
    def freq_sq(self) -> np.ndarray:
        """|xi|^2 on the half-spectrum layout."""
        xi_sq = self.axis_freqs() ** 2
        out = np.zeros(self.half_shape)
        for axis in range(self.dim):
            out += self.half_along(xi_sq, axis)
        return out

    @_built_once
    def freq_levels(self) -> np.ndarray:
        """Sorted distinct values of :meth:`freq_sq`."""
        return _distinct(self.freq_sq())

    @_built_once
    def freq_index(self) -> np.ndarray:
        """Position of every :meth:`freq_sq` entry in :meth:`freq_levels`
        (half-spectrum shape)."""
        return np.searchsorted(self.freq_levels(), self.freq_sq())

    @_built_once
    def derivative_freqs(self) -> np.ndarray:
        """Per-axis wavenumbers of d/dx_j, full FFT layout, with the
        Nyquist entry zeroed (see the module docstring); place them with
        :meth:`half_along`."""
        xi = self.axis_freqs()
        xi[self.points // 2] = 0.0
        return xi

    @_built_once
    def dealias_mask(self) -> np.ndarray:
        """2/3 rule on the half-spectrum layout: keep the modes with
        |k| <= M/3 on every axis."""
        k = np.fft.fftfreq(self.points) * self.points
        keep = np.abs(k) <= self.points / 3.0
        mask = np.ones(self.half_shape, dtype=bool)
        for axis in range(self.dim):
            mask &= self.half_along(keep, axis)
        return mask

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

    @_built_once
    def boundary_index(self) -> np.ndarray:
        """Flat (C-order) indices of the :meth:`boundary_mask` points:
        ``gather(values.reshape(*lead, -1), index)`` takes the shell."""
        return np.flatnonzero(self.boundary_mask())


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
# valid for either sign of z.  greens_multipliers returns g together with
# g'(t) = exp(-t/2) * (cosh(t*omega) - sinh(t*omega)/(2*omega)) and its
# sin/cos counterpart: the branch masks, the exponentials, sin(t*nu) and
# the sinh(x)/x series are evaluated once and shared by both.


def greens_multipliers(t: float, xi_sq) -> tuple[np.ndarray | float, np.ndarray | float]:
    """(g(t), g'(t)): the multiplier of the operator mapping initial
    velocity to the solution of the linear damped wave equation at time
    t, and its time derivative.  Floats for a scalar ``xi_sq``, arrays
    otherwise."""
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    delta = 0.25 - np.atleast_1d(xi_sq)
    low = delta >= BRANCH_TOL
    high = delta <= -BRANCH_TOL
    near = np.abs(delta) < BRANCH_TOL
    g = np.empty_like(delta)
    gdt = np.empty_like(delta)
    decay = np.exp(-0.5 * t)

    omega = np.sqrt(delta[low])
    e_plus = np.exp(t * (omega - 0.5))
    e_minus = np.exp(-t * (omega + 0.5))
    sinh_part = e_plus - e_minus
    two_omega = 2.0 * omega
    g[low] = sinh_part / two_omega
    gdt[low] = 0.5 * (e_plus + e_minus) - 0.5 * sinh_part / two_omega

    nu = np.sqrt(-delta[high])
    phase = t * nu
    sin_part = np.sin(phase)
    g[high] = decay * sin_part / nu
    gdt[high] = decay * (np.cos(phase) - 0.5 * sin_part / nu)

    z = t * t * delta[near]
    sinhc_series = 1.0 + z / 6.0 + z * z / 120.0 + z * z * z / 5040.0
    cosh_series = 1.0 + z / 2.0 + z * z / 24.0 + z * z * z / 720.0
    g[near] = decay * t * sinhc_series
    gdt[near] = decay * (cosh_series - 0.5 * t * sinhc_series)
    if xi_sq.ndim == 0:
        return float(g[0]), float(gdt[0])
    return g, gdt


def gather(values: np.ndarray, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``values[..., index]``: level values (one row per leading entry)
    placed on the grid, written into ``out`` when given.  The indices of
    the radial levels are valid by construction, so mode "clip" never
    clips; the default mode "raise" would stage the result in a copy of
    ``out`` on every call.  A read-only view of a whole writeable array,
    as every cached Grid index is, is taken through that array."""
    base = index.base
    if (
        not index.flags.writeable
        and isinstance(base, np.ndarray)
        and base.flags.writeable
        and (base.dtype, base.shape, base.strides) == (index.dtype, index.shape, index.strides)
    ):
        index = base
    return np.take(values, index, axis=-1, out=out, mode="clip")


def boundary_contaminated(edges: np.ndarray, peaks) -> np.ndarray:
    """Per field, True when its boundary shell values (the last axis of
    ``edges``, gathered at ``grid.boundary_index()``) exceed
    BOUNDARY_FRACTION of its maximum ``peaks`` (max |values|, which the
    caller already holds), i.e. the periodic images have started to talk.
    The shell lies inside the field, so a zero or non-finite peak never
    counts."""
    return np.max(np.abs(edges), axis=-1) > BOUNDARY_FRACTION * np.asarray(peaks)
