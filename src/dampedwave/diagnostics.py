"""Shared measurement of a spectral state into a diagnostic record.

Both the exact linear flow and the semilinear stepper funnel their
states through :func:`measure` so that "nonlinearity switched off"
reproduces the linear diagnostics through the identical code path.  The
weighted energy comes from ``weights.spectral_energy``, the same kernel
that :func:`~dampedwave.weights.weighted_energy` uses on stored states.
"""

from __future__ import annotations

import numpy as np

from .spectral import Grid
from .weights import WeightParams, spectral_energy


def spectral_l2(coeffs: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(np.abs(coeffs) ** 2) / grid.size))


def measure(
    grid: Grid,
    t: float,
    u_coeffs: np.ndarray,
    ut_coeffs: np.ndarray,
    weight: WeightParams,
    u_values: np.ndarray | None = None,
) -> dict:
    """Build one diagnostic record from spectral state.

    L^2 norms come from Parseval; the weighted energy and the sup norm
    need physical fields, so u, u_t and the gradient are transformed
    back (``u_values`` can be supplied when the caller already has it).
    """
    xi_sq = grid.freq_sq()
    l2_u = spectral_l2(u_coeffs, grid)
    l2_grad = spectral_l2(np.sqrt(xi_sq) * u_coeffs, grid)
    l2_ut = spectral_l2(ut_coeffs, grid)

    if u_values is None:
        u_values = np.fft.ifftn(u_coeffs).real
    e_weighted = spectral_energy(grid, t, u_coeffs, np.fft.ifftn(ut_coeffs).real, weight)

    quarter = 0.25 * grid.dim
    growth = 1.0 + t
    return {
        "t": t,
        "l2_u": l2_u,
        "l2_grad_u": l2_grad,
        "l2_ut": l2_ut,
        "linf_u": float(np.max(np.abs(u_values))),
        "weighted_energy": e_weighted,
        "xn_energy": float(np.sqrt(max(e_weighted, 0.0))),
        "xn_ut": growth ** (quarter + 1.0) * l2_ut,
        "xn_grad": growth ** (quarter + 0.5) * l2_grad,
        "xn_l2": growth**quarter * l2_u,
        "mean_u": float(u_coeffs.flat[0].real / grid.size),
    }
