"""Machine-speed calibration kernel.

The reference machine is a shared 2-vCPU VM whose speed moves between
states for minutes at a time: run medians of one workload differed by up
to 1.8x between consecutive runs, with CPU time equal to wall time.  A
fixed numpy kernel that does not depend on the program slows down with
it, so each run times this kernel alongside its calls and scales its
times to the kernel's REFERENCE_S.  Measured on that machine over ten
consecutive 12-second runs of fujita_1d: median call wall 0.67-1.20 s,
median call wall over median kernel time 31.6-37.4.  The correction is
imperfect: on audit_3d the kernel's own spread over runs is about twice
the workload's, so calibrated times there spread more than raw ones
(13 % against 9 % IQR over median in one set of eight runs).
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

# Calibrated times are seconds on a machine where the kernel takes
# this long.
REFERENCE_S = 0.025
# FFT round trips of the workload's grid shape until about this many
# points are transformed: 30-90 ms on the reference machine.
KERNEL_POINTS = 2**20
# Set-up is interpreter-bound (imports), like the many small FFT calls
# of this shape; it is the same for every workload.
SETUP_KERNEL_SHAPE = (1024,)


def kernel_seconds(shape: tuple[int, ...]) -> float:
    """Wall time of FFT round trips on an array of the workload's grid
    shape, the operation that dominates every workload.  A fixed mix of
    1-D and 3-D FFTs tracked the 3-D workload's slowdowns poorly."""
    field = np.random.default_rng(0).standard_normal(shape)
    repeats = max(1, KERNEL_POINTS // field.size)
    start = time.perf_counter()
    for _ in range(repeats):
        np.fft.ifftn(np.fft.fftn(field)).real
    return time.perf_counter() - start


class Calibrator:
    """Times the kernel in as many processes at once as the workload
    runs: this one plus ``processes - 1`` spawned helpers that live until
    ``close``.  The result is the mean over the processes, so a workload
    spread over both cores is calibrated against both."""

    def __init__(self, processes: int, shape: tuple[int, ...]):
        self._shape = shape
        self._helpers = processes - 1
        self._pool = (
            multiprocessing.get_context("spawn").Pool(self._helpers) if self._helpers else None
        )

    def measure(self) -> float:
        pending = [
            self._pool.apply_async(kernel_seconds, (self._shape,)) for _ in range(self._helpers)
        ]
        own = kernel_seconds(self._shape)
        return statistics.fmean([own, *(job.get() for job in pending)])

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
