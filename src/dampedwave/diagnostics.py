"""Shared measurement of spectral states into diagnostic records.

Both the exact linear flow and the semilinear stepper funnel their
states through :func:`measure` so that "nonlinearity switched off"
reproduces the linear diagnostics through the identical code path.  The
weighted energy comes from ``weights.spectral_energy``, the kernel that
the snapshot rows and :func:`~dampedwave.weights.weighted_energy` use.

:func:`measure` takes a stack of states (leading axes before the grid
axes) and makes one call per operation for the whole stack: a run
measures a block of record states at once.  Every reduction runs along
one state's own contiguous entries (``np.vecdot`` and ``np.sum`` on
``(*lead, -1)`` reshapes), so each record holds the floats that
measuring its state alone gives.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import Grid
from .weights import Scratch, spectral_energy


def spectral_l2(
    coeffs: np.ndarray,
    grid: Grid,
    xi_sq: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """h-weighted L^2 norm of each field of a stack with real-FFT
    coefficients ``coeffs`` (leading axes, then the half spectrum), or of
    its gradient when ``xi_sq`` is given (Parseval; ``out`` receives
    xi_sq*coeffs); an array of the leading shape.  On the half spectrum
    the interior last-axis columns stand for two modes, the k = 0 and
    k = M/2 columns for one."""
    weighted = coeffs if xi_sq is None else np.multiply(xi_sq, coeffs, out=out)
    lead = coeffs.shape[: coeffs.ndim - grid.dim]

    def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.vecdot(a.reshape(*lead, -1), b.reshape(*lead, -1))

    total = (
        2.0 * dot(coeffs, weighted)
        - dot(coeffs[..., 0], weighted[..., 0])
        - dot(coeffs[..., -1], weighted[..., -1])
    )
    return np.sqrt(grid.cell_volume * total.real / grid.size)


def measure(
    grid: Grid,
    times,
    u_coeffs: np.ndarray,
    ut_coeffs: np.ndarray,
    psi: np.ndarray,
    peaks,
    scratch: Scratch,
    ut_values: np.ndarray | None = None,
) -> list[dict]:
    """One diagnostic record per state of a stack, in C order of its
    leading axes ``lead`` (none for one state).  ``u_coeffs`` and
    ``ut_coeffs`` are real-FFT coefficients of shape
    (*lead, *grid.half_shape) and ``peaks`` the sup norms of u (shape
    ``lead``), which the caller has already evaluated; ``times`` and the
    weight values ``psi`` broadcast against ``lead`` and
    (*lead, *grid.shape).  Every grid-sized intermediate is written into
    ``scratch``, made for ``lead``.

    L^2 norms come from Parseval; the weighted energy needs physical
    fields, so u_t (unless the caller passes its ``ut_values``) and the
    gradient are transformed back, one stacked transform each.
    """
    lead = u_coeffs.shape[: u_coeffs.ndim - grid.dim]
    l2_u = spectral_l2(u_coeffs, grid)
    l2_grad = spectral_l2(u_coeffs, grid, grid.freq_sq(), out=scratch.coeffs)
    l2_ut = spectral_l2(ut_coeffs, grid)

    if ut_values is None:
        ut_values = grid.inverse(ut_coeffs, scratch.ut_values, scratch.coeffs)
    energies = spectral_energy(grid, u_coeffs, ut_values, psi, scratch)
    means = u_coeffs[(...,) + (0,) * grid.dim].real / grid.size

    quarter = 0.25 * grid.dim
    # one row per column, so the floats leave numpy in one tolist call
    table = np.empty((7, *lead))
    for row, column in enumerate((times, l2_u, l2_grad, l2_ut, peaks, energies, means)):
        table[row, ...] = column
    records = []
    for t, l2_u, l2_grad, l2_ut, linf_u, e_weighted, mean_u in table.reshape(7, -1).T.tolist():
        growth = 1.0 + t
        records.append({
            "t": t,
            "l2_u": l2_u,
            "l2_grad_u": l2_grad,
            "l2_ut": l2_ut,
            "linf_u": linf_u,
            "weighted_energy": e_weighted,
            "xn_energy": math.sqrt(max(e_weighted, 0.0)),
            "xn_ut": growth ** (quarter + 1.0) * l2_ut,
            "xn_grad": growth ** (quarter + 0.5) * l2_grad,
            "xn_l2": growth**quarter * l2_u,
            "mean_u": mean_u,
        })
    return records
