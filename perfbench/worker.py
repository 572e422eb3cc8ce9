"""Runs one workload in a closed loop and writes the measurements as JSON.

Started by run.py in a fresh interpreter whose PYTHONPATH holds the
checkout's ``src``.  Every call goes through ``dampedwave.cli.main``
with a generated config, into a fresh output directory, and its
artifacts are checked against the stored reference.  One untimed
warm-up call comes first; it is checked and counted as attempted.

Untraced (``--trace 0``): timed calls until ``--seconds`` have passed,
each preceded by one run of the calibration kernel (calibrate.py) in as
many processes as the workload computes in.
Traced (``--trace 1``): pairs of an untraced and a traced call.  The
traced call's artifacts must equal the untraced call's byte for byte
outside ``timestamp``/``timings``; the tracing overhead is the traced
median wall minus the untraced median wall.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import Calibrator
from check import compare_tree
from layers import artifact_metrics, span_metrics
from stats import Tally
from tracer import SpanIndex, Tracer
from workloads import SWEEP_WORKERS, WORKLOADS, time_levels

HERE = Path(__file__).resolve().parent
MIN_CALLS = 3


def call_cli(cli, argv: list[str], out_dir: Path) -> tuple[float, list[str]]:
    """One CLI call into a fresh ``out_dir``; returns (wall, problems)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    captured = io.StringIO()
    problems: list[str] = []
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crashing call is a failed call, not a crashed benchmark
            code = None
            problems.append(traceback.format_exc())
        wall = time.perf_counter() - start
    if code != 0:
        problems.append(f"exit code {code}: {captured.getvalue()[-2000:]}")
    return wall, problems


def _strip_report(path: Path) -> str:
    report = json.loads(path.read_text(encoding="utf-8"))
    report.pop("timestamp", None)
    report.pop("timings", None)
    return json.dumps(report, sort_keys=True)


def same_artifacts(a: Path, b: Path) -> list[str]:
    """Differences between two output trees outside timestamp/timings."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"file sets differ: {sorted(set(files_a) ^ set(files_b))[:5]}"]
    problems = []
    for rel in files_a:
        if rel.name == "report.json":
            same = _strip_report(a / rel) == _strip_report(b / rel)
        else:
            same = filecmp.cmp(a / rel, b / rel, shallow=False)
        if not same:
            problems.append(f"traced artifact {rel} differs from the untraced one")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import numpy
    from dampedwave import cli

    workload = WORKLOADS[args.workload]
    reference = HERE / "reference" / workload.name
    config = args.work / f"{workload.name}.cfg"  # generated by run.py
    out = args.work / "out"
    tally = Tally()
    problems: list[str] = []

    def checked(out_dir: Path, wall: float, found: list[str], twin: Path | None = None) -> float:
        if not found:
            found = compare_tree(out_dir, reference)
        if not found and twin is not None:
            found = same_artifacts(twin, out_dir)
        tally.record(found)
        problems.extend(found[:3])
        return wall

    def run_call(out_dir: Path) -> float:
        return checked(out_dir, *call_cli(cli, workload.argv(config, out_dir, args.seed), out_dir))

    run_call(out)
    levels = time_levels(workload, out) if tally.failed == 0 else 0
    walls: list[float] = []
    kernels: list[float] = []
    traced_walls: list[float] = []
    layer_samples: list[dict] = []
    tracer = Tracer(args.work / "child-spans") if args.trace else None
    traced_out = args.work / "out-traced"

    calibrator = Calibrator(workload.processes, workload.grid_shape)
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(walls) < MIN_CALLS:
            kernels.append(calibrator.measure())
            wall = run_call(out)
            walls.append(wall)
            if tracer is None:
                continue
            tracer.install()
            try:
                traced = call_cli(cli, workload.argv(config, traced_out, args.seed), traced_out)
            finally:
                tracer.uninstall()
            traced_walls.append(checked(traced_out, *traced, twin=out))
            chunks = tracer.take()
            sample = span_metrics(SpanIndex(chunks))
            sample.update(artifact_metrics(out, wall, SWEEP_WORKERS))
            layer_samples.append(sample)

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # read before the calibration helpers are joined, so they never count
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        calibrator.close()
    result = {
        "walls": walls,
        "kernels": kernels,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": problems[:10],
        "levels": levels,
        "grid_points": workload.grid_points,
        "numpy": numpy.__version__,
        # ru_maxrss is in KiB on Linux; the largest pool child adds to
        # this process's own peak (zero without a pool)
        "peak_rss_mb": (own + children) / 1024.0,
        "peak_rss_children_mb": children / 1024.0,
    }
    if tracer is not None:
        untraced = statistics.median(walls)
        overhead = statistics.median(traced_walls) - untraced
        layers = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_ratio"] = overhead / untraced
        layers["trace.absent_targets"] = len(tracer.absent)
        result.update(layers=layers, absent=tracer.absent, traced_walls=traced_walls)
        # the spans of the last traced call, one list per process
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{workload.name}.json").write_text(
            json.dumps({"workload": workload.name, "seed": args.seed, "spans": chunks}),
            encoding="utf-8",
        )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
