"""Regenerate the stored references from the code in this checkout.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on code whose outputs are known good: the stored references
were made from the seed code, and every benchmark call is checked
against them.  Kept per run: ``series.csv`` as written and the compared
part of ``report.json`` (see check.reference_report); per sweep also
``sweep.csv``.  Snapshots are not kept, only their count.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from check import reference_report
from workloads import WORKLOADS
from worker import call_cli

HERE = Path(__file__).resolve().parent


def main() -> int:
    from dampedwave import cli

    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "bench.cfg"
            config.write_text(workload.config, encoding="utf-8")
            out = Path(tmp) / "out"
            _, problems = call_cli(cli, workload.argv(config, out, 0), out)
            if problems:
                print(f"{workload.name}: {problems}", file=sys.stderr)
                return 1
            target = HERE / "reference" / workload.name
            shutil.rmtree(target, ignore_errors=True)
            for report_path in sorted(out.rglob("report.json")):
                run_dir = report_path.parent
                dest = target / run_dir.relative_to(out)
                dest.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(run_dir / "series.csv", dest / "series.csv")
                reduced = reference_report(json.loads(report_path.read_text()), run_dir)
                (dest / "report.json").write_text(json.dumps(reduced, indent=1, sort_keys=True) + "\n")
            if (out / "sweep.csv").exists():
                shutil.copyfile(out / "sweep.csv", target / "sweep.csv")
        print(f"{workload.name}: reference written to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
