"""Per-step diagnostic records, their CSV form, and decay-rate regression.

A record is a tuple of floats in ``COLUMNS`` order from the moment
:func:`~dampedwave.diagnostics.measure` makes it to its CSV row.  The CSV
always carries the header row and writes floats with 17 significant
digits so that 64-bit values round-trip exactly.  A run that blows up may
append one terminal marker row whose value columns are infinite; every
earlier row is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

COLUMNS = (
    "t",
    "l2_u",
    "l2_grad_u",
    "l2_ut",
    "linf_u",
    "weighted_energy",
    "xn_energy",
    "xn_ut",
    "xn_grad",
    "xn_l2",
    "mean_u",
)

_LINF_U = COLUMNS.index("linf_u")
_MARKER_VALUES = (math.inf,) * (len(COLUMNS) - 1)
_ROW_FORMAT = ",".join(["%.17g"] * len(COLUMNS)) + "\n"


@dataclass
class TimeSeries:
    """Records, tuples of floats in ``COLUMNS`` order, with strictly
    increasing finite times."""

    rows: list[tuple[float, ...]] = field(default_factory=list)

    def append(self, record) -> None:
        """Append ``record``: one value per column, converted with
        ``float``, none NaN, and a finite ``linf_u`` unless every value
        is +inf (the blow-up marker)."""
        if len(record) != len(COLUMNS):
            raise ValueError(f"record has {len(record)} values, not {len(COLUMNS)}")
        row = tuple(map(float, record))
        last = self.rows[-1][0] if self.rows else -math.inf
        if not last < row[0] < math.inf:
            raise ValueError(f"record time {row[0]} is not a finite time past {last}")
        if self.rows and not math.isfinite(self.rows[-1][_LINF_U]):
            raise ValueError("cannot append past a terminal blow-up marker")
        if any(map(math.isnan, row)):
            raise ValueError(f"record at t = {row[0]} holds a NaN")
        if not math.isfinite(row[_LINF_U]) and row[1:] != _MARKER_VALUES:
            raise ValueError(f"record at t = {row[0]} has linf_u {row[_LINF_U]} but is no marker")
        self.rows.append(row)

    def append_blowup_marker(self, t: float) -> None:
        self.append((t, *_MARKER_VALUES))

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        return np.array(self.rows).reshape(-1, len(COLUMNS))[:, COLUMNS.index(name)]

    def finite_rows(self) -> dict[str, np.ndarray]:
        """Column arrays with any terminal blow-up marker dropped."""
        table = np.array(self.rows).reshape(-1, len(COLUMNS))
        if len(table) and not math.isfinite(table[-1, _LINF_U]):
            table = table[:-1]
        return dict(zip(COLUMNS, table.T))

    # -- CSV ----------------------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            fh.writelines(_ROW_FORMAT % row for row in self.rows)

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        series = cls()
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != ",".join(COLUMNS):
                raise ValueError(f"unexpected CSV header {header!r}")
            for line in fh:
                parts = line.strip().split(",")
                if len(parts) != len(COLUMNS):
                    raise ValueError(f"malformed CSV row {line!r}")
                series.append(parts)
        return series


def decay_fit(series: TimeSeries, column: str, t_min: float) -> tuple[float, float]:
    """Least-squares slope of log(column) against log(1+t) for t >= t_min.

    Returns (slope, standard error).  Requires at least 10 records in
    the window; nonpositive column values make the logarithm undefined
    and raise an error naming the first offending time.
    """
    data = series.finite_rows()
    mask = data["t"] >= t_min
    t = data["t"][mask]
    y = data[column][mask]
    if len(t) < 10:
        raise ValueError(
            f"need at least 10 records with t >= {t_min}, got {len(t)}"
        )
    bad = np.nonzero(y <= 0.0)[0]
    if bad.size:
        raise ValueError(
            f"column {column!r} is nonpositive at t = {t[bad[0]]}; "
            "log regression undefined"
        )
    x = np.log1p(t)
    logy = np.log(y)
    n = len(x)
    x_mean = x.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (logy - logy.mean())) / sxx)
    intercept = float(logy.mean() - slope * x_mean)
    residuals = logy - (intercept + slope * x)
    sigma_sq = float(np.sum(residuals**2)) / max(n - 2, 1)
    stderr = float(np.sqrt(sigma_sq / sxx))
    return slope, stderr
