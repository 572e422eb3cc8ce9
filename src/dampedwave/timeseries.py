"""Per-step diagnostic records, their CSV form, and decay-rate regression.

The column schema is fixed; the CSV always carries the header row and
serializes floats with 17 significant digits so that 64-bit values
round-trip exactly.  A run that blows up may append one terminal marker
row whose value columns are infinite; every earlier entry is finite.
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

_FLOAT_FMT = "%.17g"


@dataclass
class TimeSeries:
    """Ordered diagnostic records with strictly increasing times."""

    rows: list[dict] = field(default_factory=list)

    def append(self, record: dict) -> None:
        try:
            row = {name: float(record[name]) for name in COLUMNS}
        except KeyError:
            missing = sorted(set(COLUMNS) - set(record))
            raise ValueError(f"record is missing columns {missing}") from None
        if self.rows and row["t"] <= self.rows[-1]["t"]:
            raise ValueError(f"record time {row['t']} does not increase past {self.rows[-1]['t']}")
        if self.rows and not math.isfinite(self.rows[-1]["linf_u"]):
            raise ValueError("cannot append past a terminal blow-up marker")
        self.rows.append(row)

    def append_blowup_marker(self, t: float) -> None:
        marker = {name: np.inf for name in COLUMNS}
        marker["t"] = t
        self.append(marker)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        return np.array([row[name] for row in self.rows])

    def finite_rows(self) -> dict[str, np.ndarray]:
        """Column arrays with any terminal blow-up marker dropped."""
        rows = self.rows
        if rows and not np.isfinite(rows[-1]["linf_u"]):
            rows = rows[:-1]
        return {name: np.array([r[name] for r in rows]) for name in COLUMNS}

    # -- CSV ----------------------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join(_FLOAT_FMT % row[name] for name in COLUMNS) + "\n")

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
                series.append(dict(zip(COLUMNS, (float(p) for p in parts))))
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
