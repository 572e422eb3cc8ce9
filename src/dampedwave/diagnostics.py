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

Where a block of RECORD_BLOCK_POINTS grid points would not hold two
record times (:func:`block_rows`), a caller measures each state as it
comes, as a job for a :class:`JobThread` while it computes the next
state: the run loop's recorder and the exact linear flow's
``decay_profile`` alike.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .spectral import Grid
from .weights import Scratch, spectral_energy


# Grid points of the record states a caller copies into one block to
# measure together: 8 states of a 1,024-point grid.  Where the block would
# hold fewer than two record times (48^3, 256^2), each state is measured
# at once from the live arrays, on a job thread, and nothing is copied.
RECORD_BLOCK_POINTS = 2**13

# Seconds between checks that a waited-for job thread still runs.
WORKER_WAIT_S = 10.0


def block_rows(points: int) -> int:
    """Record times of ``points`` grid points each that one block holds,
    or 0 where fewer than two fit: the rule for starting a job thread."""
    rows = RECORD_BLOCK_POINTS // points
    return rows if rows >= 2 else 0


class JobThread:
    """Runs jobs one at a time in the order they are submitted, on one
    worker thread started on the first job, or at once in :meth:`submit`
    when ``inline``.  Submitting a job waits for the previous one, so a
    job may read arrays that the caller overwrites only after its next
    submit or :meth:`wait`; a job's exception is raised on the caller's
    thread at that wait.  :meth:`close` stops the thread."""

    def __init__(self, inline: bool = False):
        self.inline = inline
        self.thread, self.job, self.error = None, None, None
        self.posted, self.done = threading.Semaphore(0), threading.Event()
        self.done.set()

    def submit(self, job) -> None:
        """Run ``job`` after the previous one."""
        if self.inline:
            job()
            return
        if self.thread is None:
            self.thread = threading.Thread(target=self._serve, daemon=True)
            self.thread.start()
        self.wait()
        self.job = job
        self.done.clear()
        self.posted.release()

    def wait(self) -> None:
        """Wait for the submitted job and raise its error here."""
        while not self.done.wait(WORKER_WAIT_S):
            if not self.thread.is_alive():
                raise RuntimeError("the job thread stopped during a job")
        if self.error is not None:
            error, self.error = self.error, None
            raise error

    def close(self) -> None:
        """Stop the thread, dropping a job that has not begun."""
        if self.thread is not None:
            self.job = None
            self.posted.release()
            self.thread.join(WORKER_WAIT_S)
            self.thread = None

    def _serve(self) -> None:
        """The worker thread: run each posted job until ``job`` is None."""
        while self.posted.acquire() and (job := self.job) is not None:
            try:
                job()
            except Exception as error:  # raised on the caller's thread by the next wait
                self.error = error
            self.done.set()


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
