"""Summaries of repeated measurements and failure accounting."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

# An upper percentile is reported only with at least this many samples
# beyond it.
TAIL_SAMPLES = 10


def summarize(values: list[float]) -> dict:
    """Median, upper percentile and sample count of a list of timings.

    The upper percentile is the highest one with at least TAIL_SAMPLES
    samples above it.  With fewer than 2 * TAIL_SAMPLES samples that
    percentile would sit at or below the median, so the maximum is
    reported instead and ``upper_pct`` reads 100.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n >= 2 * TAIL_SAMPLES:
        rank = n - TAIL_SAMPLES
        upper, upper_pct = ordered[rank - 1], 100.0 * rank / n
    else:
        upper, upper_pct = ordered[-1], 100.0
    return {
        "median": statistics.median(ordered),
        "upper": upper,
        "upper_pct": upper_pct,
        "n": n,
    }


def calibrated(values: list[float], kernel_times: list[float], reference: float) -> list[float]:
    """Times scaled from this run's machine speed to the reference speed:
    each value times reference / median kernel time of the run."""
    scale = reference / statistics.median(kernel_times)
    return [v * scale for v in values]


@dataclass
class Tally:
    """Attempted and failed calls; a call fails on a non-zero exit code,
    an exception, or any output that differs from the reference."""

    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
