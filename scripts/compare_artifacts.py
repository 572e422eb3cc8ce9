#!/usr/bin/env python3
"""Compare two artifact trees written by the dampedwave CLI.

Usage:
    compare_artifacts.py OLD NEW

Both trees must hold the same set of files.  Every ``report.json`` must
be equal once its ``timestamp`` and ``timings`` keys are dropped (they
vary between identical invocations); every other file (series.csv,
sweep.csv, snapshots) must be equal byte for byte.  Each difference is
printed on its own line, a report's with the dotted path of every value
that differs (``audits.weight_residual.min_residual``); the exit code is
0 for equal trees, 1 when there is a difference and 2 when an argument
is not a directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

VOLATILE = ("timestamp", "timings")
MISSING = object()


def _files(root: Path) -> set[str]:
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


def _report(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for key in VOLATILE:
        report.pop(key, None)
    return report


def _paths(a, b, prefix: str = "") -> list[str]:
    """Dotted paths of the values that differ between two JSON values,
    descending into objects that both sides hold."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [prefix[:-1]]
    paths = []
    for key in sorted(a.keys() | b.keys()):
        paths += _paths(a.get(key, MISSING), b.get(key, MISSING), f"{prefix}{key}.")
    return paths


def compare(old: Path, new: Path) -> list[str]:
    """One line per difference between the trees ``old`` and ``new``."""
    old_files, new_files = _files(old), _files(new)
    problems = [f"only in {old}: {name}" for name in sorted(old_files - new_files)]
    problems += [f"only in {new}: {name}" for name in sorted(new_files - old_files)]
    for name in sorted(old_files & new_files):
        if Path(name).name == "report.json":
            keys = _paths(_report(old / name), _report(new / name))
            if keys:
                problems.append(f"differs: {name} (keys {', '.join(keys)})")
        elif (old / name).read_bytes() != (new / name).read_bytes():
            problems.append(f"differs: {name}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="artifact tree of the reference code")
    parser.add_argument("new", type=Path, help="artifact tree of the changed code")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    problems = compare(args.old, args.new)
    for line in problems:
        print(line)
    print(f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
