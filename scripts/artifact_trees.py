#!/usr/bin/env python3
"""Write the artifact trees of a fixed set of CLI calls into one directory.

Usage:
    artifact_trees.py OUT

The calls are the four benchmark workloads of ``perfbench/workloads.py``
(their verbs, extra arguments and config texts, with ``--seed 0``),
simulate ``fujita_n1_p4`` with and without ``--snapshots 0.5``, simulate
``subfujita_blowup --snapshots 0.05``, linear-decay ``linear_decay_n1``
and ckn-check ``linear_decay_n2``.  Each call NAME reads its config from
``OUT/NAME.cfg`` and writes its artifacts to ``OUT/NAME/``, and the
``exponents`` table (stdout, then stderr) of its config's problem.dim,
problem.p and weight.lambda to ``OUT/NAME.exponents``.  Running this
script in two checkouts and then ``compare_artifacts.py OLD NEW`` on the
two OUT directories checks that a change leaves every artifact
unchanged.

The package is imported from this checkout's ``src``.  Prints one
``NAME: exit CODE`` line per call; the exit code is 1 when a call
exits nonzero, else 0 (the ``exponents`` verb's exit code does not
count: a sub-Fujita p is an error there).
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from dampedwave.cli import main as dampedwave_main
from workloads import WORKLOADS, Workload


def _shipped(name: str, verb: str, config: str, *extra: str) -> Workload:
    text = (ROOT / "configs" / f"{config}.cfg").read_text(encoding="utf-8")
    return Workload(name, verb, text, extra, why=f"shipped config {config}")


CALLS = [
    *WORKLOADS.values(),
    _shipped("fujita_n1_p4", "simulate", "fujita_n1_p4"),
    _shipped("fujita_n1_p4_snapshots", "simulate", "fujita_n1_p4", "--snapshots", "0.5"),
    _shipped("subfujita_blowup", "simulate", "subfujita_blowup", "--snapshots", "0.05"),
    _shipped("linear_decay_n1", "linear-decay", "linear_decay_n1"),
    _shipped("ckn_check_n2", "ckn-check", "linear_decay_n2"),
]


def _exponents_table(call: Workload) -> str:
    """What ``dampedwave exponents`` prints for the call's (dim, p, lambda)."""
    argv = ["exponents", "--dim", call.config_value("problem.dim")]
    argv += ["--p", call.config_value("problem.p"), "--lambda", call.config_value("weight.lambda")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        dampedwave_main(argv)
    return out.getvalue() + err.getvalue()


def write_trees(out: Path) -> int:
    """Run every call into ``out``; the number of calls that failed."""
    out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for call in CALLS:
        config = out / f"{call.name}.cfg"
        config.write_text(call.config, encoding="utf-8")
        code = dampedwave_main(call.argv(config, out / call.name, seed=0))
        (out / f"{call.name}.exponents").write_text(_exponents_table(call), encoding="utf-8")
        print(f"{call.name}: exit {code}", flush=True)
        failed += code != 0
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the configs and artifact trees")
    args = parser.parse_args(argv)
    return 1 if write_trees(args.out) else 0


if __name__ == "__main__":
    raise SystemExit(main())
