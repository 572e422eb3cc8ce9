#!/usr/bin/env python3
"""Run the tier-1 suite against each mutant of a fixed table.

Usage:
    mutants.py [NAME ...]

Each mutant in ``MUTANTS`` replaces one exact text in one file under
``src/`` with another and names the test expected to kill it.  The
script exports the committed tree (``git archive HEAD``) into a
temporary directory, never touching the working tree, and for each
mutant (all of them, or the NAMEs given) writes the mutated file, runs
tier-1 there with ``-x -q`` (without the table's own test) and restores
the file.  It prints one JSON
line per mutant: ``killed`` (the suite failed) or ``survived``, the first
failing test, the test expected to kill it and the seconds taken.  The
exit code is 1 when a mutant survives or its old text does not occur
exactly once in its file, else 0.

A mutant leaves the table only through a change whose new test kills
it; the table is never weakened to improve the count.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# the table's own test fails on every mutant by construction (it checks
# that the old texts are in place), so the runs leave it out
SELF_TEST = "tests/test_mutants.py"


class Mutant(NamedTuple):
    name: str
    path: str  # under the repository root
    old: str
    new: str
    killer: str  # the test expected to kill it


MUTANTS = [
    Mutant(
        "energy_audit_c",
        "src/dampedwave/weights.py",
        "    c = 2.0 / (p + 1.0)\n",
        "    c = 2.0 / (p + 2.0)\n",
        "tests/test_weights.py::test_energy_audit_holds_on_rows_that_meet_its_identity",
    ),
    Mutant(
        "weight_dt_time_power",
        "src/dampedwave/weights.py",
        "r_sq / (1.0 + t) ** 2 * base",
        "r_sq / (1.0 + t) ** 1.5 * base",
        "tests/test_weights.py::test_weight_dt_is_the_time_derivative_of_the_weight",
    ),
    Mutant(
        "energy_audit_half_integral",
        "src/dampedwave/weights.py",
        "cumulative = _cumulative_trapezoid(times, signed_dt)",
        "cumulative = 0.5 * _cumulative_trapezoid(times, signed_dt)",
        "tests/test_weights.py::test_energy_audit_holds_on_rows_that_meet_its_identity",
    ),
    Mutant(
        "source_bound_half_integral",
        "src/dampedwave/weights.py",
        "numerator = source + _cumulative_trapezoid(times, source_dt)",
        "numerator = source + 0.5 * _cumulative_trapezoid(times, source_dt)",
        "tests/test_weights.py::test_source_bound_audit_is_the_trapezoid_ratio",
    ),
    Mutant(
        "boundary_threshold_x10",
        "src/dampedwave/spectral.py",
        "> BOUNDARY_FRACTION * np.asarray(peaks)",
        "> 10.0 * BOUNDARY_FRACTION * np.asarray(peaks)",
        "tests/test_spectral.py::test_boundary_contamination_threshold_is_the_boundary_fraction",
    ),
    Mutant(
        "source_bound_norm_power",
        "src/dampedwave/weights.py",
        "ratios = numerator / norm ** (p + 1.0)",
        "ratios = numerator / norm ** p",
        "tests/test_weights.py::test_source_bound_audit_is_the_trapezoid_ratio",
    ),
    Mutant(
        "xn_grad_time_power",
        "src/dampedwave/diagnostics.py",
        "(1.0 + t) ** (quarter + 0.5) * l2_grad,",
        "(1.0 + t) ** (quarter + 0.25) * l2_grad,",
        "tests/test_solver.py::test_record_blocks_equal_single_records",
    ),
    Mutant(
        "dealias_one_more_mode",
        "src/dampedwave/solver.py",
        "cut = slice(grid.points // 3 + 1, grid.points - grid.points // 3)",
        "cut = slice(grid.points // 3, grid.points - grid.points // 3)",
        "tests/test_solver.py::test_step_arrays_give_the_allocating_step",
    ),
    Mutant(
        "xn_ut_xn_grad_swapped",
        "src/dampedwave/diagnostics.py",
        "            (1.0 + t) ** (quarter + 1.0) * l2_ut,\n"
        "            (1.0 + t) ** (quarter + 0.5) * l2_grad,\n",
        "            (1.0 + t) ** (quarter + 0.5) * l2_grad,\n"
        "            (1.0 + t) ** (quarter + 1.0) * l2_ut,\n",
        "tests/test_solver.py::test_record_blocks_equal_single_records",
    ),
    Mutant(
        "product_rule_half_rate",
        "src/dampedwave/inequalities.py",
        "2.0 * rate",
        "rate",
        "tests/test_inequalities.py::test_polynomial_gaussian_derivative",
    ),
    Mutant(
        "residual_audit_half_radius",
        "src/dampedwave/weights.py",
        "AUDIT_RADIUS_MAX = 50.0",
        "AUDIT_RADIUS_MAX = 25.0",
        "tests/test_weights.py::test_streamed_residual_audit_equals_one_shot",
    ),
]


def _export(target: Path) -> None:
    """Extract the committed tree of this checkout into ``target``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def _first_failure(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 2)[1]
    return None


def run_mutant(tree: Path, mutant: Mutant) -> dict:
    """Tier-1 on ``tree`` with ``mutant`` applied, then the file restored."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    start = time.perf_counter()
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", f"--ignore={SELF_TEST}"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    finally:
        path.write_text(text, encoding="utf-8")
    return {
        "mutant": mutant.name,
        "result": "survived" if proc.returncode == 0 else "killed",
        "first_failure": _first_failure(proc.stdout),
        "expected": mutant.killer,
        "seconds": round(time.perf_counter() - start, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    status = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        _export(tree)
        for mutant in chosen:
            count = (tree / mutant.path).read_text(encoding="utf-8").count(mutant.old)
            if count != 1:
                result = {"mutant": mutant.name, "result": f"old text found {count} times"}
            else:
                result = run_mutant(tree, mutant)
            status |= result["result"] != "killed"
            print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
