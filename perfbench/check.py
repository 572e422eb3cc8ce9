"""Compare a call's artifacts with the references stored with the benchmark.

The references were produced by the seed code (``make_reference.py``).
Compared: every column of every reference ``series.csv``, the
``outcome`` and ``audits`` of every ``report.json``, ``sweep.csv`` and
the number of snapshot files.  ``timestamp`` and ``timings`` are never
compared.  The Monte-Carlo ``weight_residual`` audit depends on the
seed, so only its ``passed`` flag is checked.  Blow-up marker rows,
``blowup_time``, statuses and every non-float value must match exactly;
floats match to roundoff.  Columns and keys that the artifacts add
beyond the reference are ignored, so additive schema changes pass.

Sweep points are matched by their (p, amplitude), read from each
report's config values, not by directory name.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Roundoff-level agreement.  ATOL_SHARE is the absolute floor of a
# series column as a share of that column's largest magnitude, so
# near-zero entries (mean_u, late decay values) are judged on the
# column's scale.  ATOL_REPORT is the absolute floor for report scalars,
# several of which are already relative to a scale (audit discrepancies).
RTOL = 1e-10
ATOL_SHARE = 1e-13
ATOL_REPORT = 1e-13

EXACT_KEYS = {"blowup_time", "status"}


def _close(actual: float, expected: float, atol: float) -> bool:
    if math.isnan(expected) or math.isinf(expected):
        return actual == expected or (math.isnan(expected) and math.isnan(actual))
    return abs(actual - expected) <= RTOL * abs(expected) + atol


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[0], rows[1:]


def compare_series(actual: Path, expected: Path) -> list[str]:
    header_a, rows_a = _read_csv(actual)
    header_e, rows_e = _read_csv(expected)
    if len(rows_a) != len(rows_e):
        return [f"{actual}: {len(rows_a)} rows, reference has {len(rows_e)}"]
    problems = []
    for column in header_e:
        if column not in header_a:
            problems.append(f"{actual}: column {column!r} missing")
            continue
        ia, ie = header_a.index(column), header_e.index(column)
        col_a = [float(r[ia]) for r in rows_a]
        col_e = [float(r[ie]) for r in rows_e]
        finite = [abs(v) for v in col_e if math.isfinite(v)]
        atol = ATOL_SHARE * max(finite, default=0.0)
        for row, (a, e) in enumerate(zip(col_a, col_e)):
            if not _close(a, e, atol):
                problems.append(f"{actual}: {column} row {row}: {a!r} != {e!r}")
                break
    return problems


def compare_values(actual, expected, where: str) -> list[str]:
    """Recursive comparison of report fragments (reference keys only)."""
    key = where.rsplit(".", 1)[-1]
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"]
        problems = []
        for name, value in expected.items():
            if name not in actual:
                problems.append(f"{where}.{name}: missing")
            else:
                problems.extend(compare_values(actual[name], value, f"{where}.{name}"))
        return problems
    if (
        isinstance(expected, float)
        and isinstance(actual, (int, float))
        and not isinstance(actual, bool)
        and key not in EXACT_KEYS
    ):
        ok = _close(float(actual), expected, ATOL_REPORT)
    else:
        ok = actual == expected and type(actual) is type(expected)
    return [] if ok else [f"{where}: {actual!r} != {expected!r}"]


def reference_report(report: dict, run_dir: Path) -> dict:
    """The part of a run's report.json that the check compares, plus the
    run's snapshot file count."""
    audits = dict(report["audits"])
    if "weight_residual" in audits:
        audits["weight_residual"] = {"passed": audits["weight_residual"]["passed"]}
    values = report["config"]["values"]
    return {
        "point": [float(values["problem.p"]), float(values["data.amplitude"])],
        "outcome": report["outcome"],
        "audits": audits,
        "snapshot_files": len(list(Path(run_dir).glob("snapshots/*.dwsn"))),
    }


def _runs(root: Path, reduce: bool) -> dict[tuple, tuple[Path, dict]]:
    """Run directories under ``root`` keyed by (p, amplitude), with their
    reduced reports (stored references are reduced already)."""
    found = {}
    for path in sorted(root.rglob("report.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        if reduce:
            report = reference_report(report, path.parent)
        found[tuple(report["point"])] = (path.parent, report)
    return found


def _compare_sweep_csv(actual: Path, expected: Path) -> list[str]:
    header_a, rows_a = _read_csv(actual)
    header_e, rows_e = _read_csv(expected)
    if len(rows_a) != len(rows_e):
        return [f"{actual}: {len(rows_a)} rows, reference has {len(rows_e)}"]
    problems = []
    for n, (row_a, row_e) in enumerate(zip(rows_a, rows_e)):
        for column, value_e in zip(header_e, row_e):
            if column not in header_a:
                problems.append(f"{actual}: column {column!r} missing")
                return problems
            value_a = row_a[header_a.index(column)]
            if column in EXACT_KEYS:
                ok = value_a == value_e
            else:
                ok = _close(float(value_a), float(value_e), ATOL_REPORT)
            if not ok:
                problems.append(f"{actual}: row {n} {column}: {value_a} != {value_e}")
    return problems


def compare_tree(out_dir: Path, ref_dir: Path) -> list[str]:
    """All differences between a call's output tree and its reference;
    an empty list means the call's outputs are correct."""
    out_dir, ref_dir = Path(out_dir), Path(ref_dir)
    problems = []
    if (ref_dir / "sweep.csv").exists():
        if not (out_dir / "sweep.csv").exists():
            return [f"{out_dir}: sweep.csv missing"]
        problems.extend(_compare_sweep_csv(out_dir / "sweep.csv", ref_dir / "sweep.csv"))

    expected = _runs(ref_dir, reduce=False)
    actual = _runs(out_dir, reduce=True)
    if sorted(actual) != sorted(expected):
        return problems + [f"{out_dir}: runs {sorted(actual)} != reference {sorted(expected)}"]
    for point, (ref_run, ref_report) in expected.items():
        out_run, out_report = actual[point]
        problems.extend(compare_values(out_report, ref_report, f"{out_run}/report.json"))
        if not (out_run / "series.csv").exists():
            problems.append(f"{out_run}: series.csv missing")
        else:
            problems.extend(compare_series(out_run / "series.csv", ref_run / "series.csv"))
    return problems
