"""Shared measurement of spectral states into diagnostic records.

Both the exact linear flow and the semilinear stepper measure their
states with :func:`measure`, so that "nonlinearity switched off"
reproduces the linear diagnostics through the identical code path.  A
record is a tuple of floats in ``timeseries.COLUMNS`` order.

:func:`measure` takes a stack of states and makes one call per operation
for the whole stack; every reduction runs along one state's own entries,
so each record holds the floats that measuring its state alone gives.
Where a block of RECORD_BLOCK_POINTS grid points would not hold two
record times (:func:`block_rows`), a caller measures each state alone,
as a job for a :class:`JobThread` (one standard-library executor thread)
while it computes the next state.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import Grid
from .weights import Scratch, spectral_energy


# Grid points of the record states a caller copies into one block to
# measure together: 8 states of a 1,024-point grid.  Where the block would
# hold fewer than two record times (48^3, 256^2), each state is measured
# alone, by a job on a thread, while the caller computes the next.
RECORD_BLOCK_POINTS = 2**13


def block_rows(points: int) -> int:
    """Record times of ``points`` grid points each that one block holds,
    or 0 where fewer than two fit: the rule for starting a job thread."""
    rows = RECORD_BLOCK_POINTS // points
    return rows if rows >= 2 else 0


class JobThread:
    """Runs jobs one at a time in the order they are submitted: at once in
    :meth:`submit` when ``inline``, else on the one thread of a
    ``ThreadPoolExecutor``, which starts it at the first job and catches
    each job's exception.  Submitting a job waits for the previous one,
    so a job may read arrays that the caller overwrites only after its
    next submit or :meth:`wait`; a job's exception, a ``BaseException``
    too, is raised once, on the caller's thread, at that wait.
    :meth:`close` drops a job that has not begun and joins the thread."""

    def __init__(self, inline: bool = False):
        self.executor, self.future = None, None
        if not inline:
            # imported here, not at package import: concurrent.futures loads logging
            from concurrent.futures import ThreadPoolExecutor
            self.executor = ThreadPoolExecutor(1)

    def submit(self, job) -> None:
        """Run ``job`` after the previous one."""
        if self.executor is None:
            job()
            return
        self.wait()
        self.future = self.executor.submit(job)

    def wait(self) -> None:
        """Wait for the submitted job and raise its error here."""
        future, self.future = self.future, None
        if future is not None:
            future.result()

    def close(self) -> None:
        """Join the thread, dropping a job that has not begun."""
        if self.executor is not None:
            self.executor.shutdown(cancel_futures=True)


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
) -> list[tuple[float, ...]]:
    """One record, a tuple of floats in ``timeseries.COLUMNS`` order, per
    state of a stack, in C order of its leading axes ``lead`` (none for
    one state).  ``u_coeffs`` and ``ut_coeffs`` are real-FFT coefficients
    of shape (*lead, *grid.half_shape) and ``peaks`` the sup norms of u
    (shape ``lead``), which the caller has already evaluated; ``times``
    and the weight values ``psi`` broadcast against ``lead`` and
    (*lead, *grid.shape).  Every grid-sized intermediate is written into
    ``scratch``, made for ``lead``.

    L^2 norms come from Parseval; the weighted energy needs physical
    fields, so u_t (unless the caller passes its ``ut_values``) and the
    gradient are transformed back, one stacked transform each.  The
    ``xn_*`` columns take Python's float ``**`` per record, whose last
    bit ``np.power`` does not always match.
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
    return [
        (
            t, l2_u, l2_grad, l2_ut, linf_u, energy,
            math.sqrt(max(energy, 0.0)),
            (1.0 + t) ** (quarter + 1.0) * l2_ut,
            (1.0 + t) ** (quarter + 0.5) * l2_grad,
            (1.0 + t) ** quarter * l2_u,
            mean_u,
        )
        for t, l2_u, l2_grad, l2_ut, linf_u, energy, mean_u in table.reshape(7, -1).T.tolist()
    ]
