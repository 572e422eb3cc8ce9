"""Shared measurement of a spectral state into a diagnostic record.

Both the exact linear flow and the semilinear stepper funnel their
states through :func:`measure` so that "nonlinearity switched off"
reproduces the linear diagnostics through the identical code path.  The
weighted energy comes from ``weights.spectral_energy``, the kernel that
the snapshot rows and :func:`~dampedwave.weights.weighted_energy` use.
"""

from __future__ import annotations

import numpy as np

from .spectral import Grid
from .weights import Scratch, spectral_energy


def spectral_l2(
    coeffs: np.ndarray,
    grid: Grid,
    xi_sq: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> float:
    """h-weighted L^2 norm of the field with real-FFT coefficients
    ``coeffs``, or of its gradient when ``xi_sq`` is given (Parseval;
    ``out`` receives xi_sq*coeffs).  On the half spectrum the interior
    last-axis columns stand for two modes, the k = 0 and k = M/2 columns
    for one."""
    weighted = coeffs if xi_sq is None else np.multiply(xi_sq, coeffs, out=out)
    total = (
        2.0 * np.vdot(coeffs, weighted)
        - np.vdot(coeffs[..., 0], weighted[..., 0])
        - np.vdot(coeffs[..., -1], weighted[..., -1])
    )
    return float(np.sqrt(grid.cell_volume * total.real / grid.size))


def measure(
    grid: Grid,
    t: float,
    u_coeffs: np.ndarray,
    ut_coeffs: np.ndarray,
    psi: np.ndarray,
    linf_u: float,
    scratch: Scratch,
    ut_values: np.ndarray | None = None,
) -> dict:
    """Build one diagnostic record from real-FFT coefficients, the weight
    values ``psi`` at time t and the sup norm of u, which the caller has
    already evaluated, writing every intermediate array into ``scratch``.

    L^2 norms come from Parseval; the weighted energy needs physical
    fields, so u_t (unless the caller passes its ``ut_values``) and the
    gradient are transformed back.
    """
    l2_u = spectral_l2(u_coeffs, grid)
    l2_grad = spectral_l2(u_coeffs, grid, grid.freq_sq(), out=scratch.coeffs)
    l2_ut = spectral_l2(ut_coeffs, grid)

    if ut_values is None:
        ut_values = grid.inverse(ut_coeffs, out=scratch.ut_values)
    e_weighted = spectral_energy(grid, u_coeffs, ut_values, psi, scratch)

    quarter = 0.25 * grid.dim
    growth = 1.0 + t
    return {
        "t": t,
        "l2_u": l2_u,
        "l2_grad_u": l2_grad,
        "l2_ut": l2_ut,
        "linf_u": float(linf_u),
        "weighted_energy": e_weighted,
        "xn_energy": float(np.sqrt(max(e_weighted, 0.0))),
        "xn_ut": growth ** (quarter + 1.0) * l2_ut,
        "xn_grad": growth ** (quarter + 0.5) * l2_grad,
        "xn_l2": growth**quarter * l2_u,
        "mean_u": float(u_coeffs.flat[0].real / grid.size),
    }
