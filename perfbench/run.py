"""dampedwave benchmark: one workload, end-to-end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fujita_1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb, cell_steps_per_s) with tracing off; ``--trace 1`` reports
the per-layer metrics of a traced run.  wall_s, setup_s and
cell_steps_per_s are calibrated to the reference machine speed (see
calibrate.py); the raw times are printed as wall_s_raw and setup_s_raw.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The lines before it print every metric by name and unit, the upper
percentile and sample count of each timing, fail_ratio, the machine and
the config hash.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_S
from layers import PER_LAYER
from stats import calibrated, summarize
from workloads import WORKLOADS, cell_steps_per_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
# pins every thread pool numpy may link to one thread, so the load stays
# one core per process (two pool workers on the 2-core reference machine)
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run(cmd: list[str], timeout: float) -> str:
    """Run a child in its own process group and return its stdout; the
    whole group is killed if it outlives ``timeout``."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited with code {proc.returncode}")
    return stdout


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    workload = WORKLOADS[name]
    work.mkdir(parents=True)
    config = work / f"{name}.cfg"
    config.write_text(workload.config, encoding="utf-8")

    probes = [
        [float(v) for v in _run([sys.executable, str(HERE / "setup_probe.py"), str(config)], 120).split()]
        for _ in range(SETUP_RUNS)
    ]
    setup_raw = [setup for setup, _ in probes]
    result_path = work / "result.json"
    _run(
        [
            sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", str(work), "--result", str(result_path),
        ],
        seconds + 120,
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    walls_raw = result["walls"]
    walls = calibrated(walls_raw, result["kernels"], REFERENCE_S)
    setup = calibrated(setup_raw, [kernel for _, kernel in probes], REFERENCE_S)
    cells = [cell_steps_per_s(result["grid_points"], result["levels"], w) for w in walls]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "wall_s": summarize(walls),
        "setup_s": summarize(setup),
        "cell_steps_per_s": summarize(cells),
        "peak_rss_mb": result["peak_rss_mb"],
        "peak_rss_children_mb": result["peak_rss_children_mb"],
        "wall_s_raw": summarize(walls_raw),
        "setup_s_raw": summarize(setup_raw),
        "kernel_s": statistics.median(result["kernels"]),
        "setup_kernel_s": statistics.median(kernel for _, kernel in probes),
        "grid_points": result["grid_points"],
        "time_levels": result["levels"],
        "layers": result.get("layers"),
        "absent": result.get("absent", []),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": result["numpy"],
        },
        "config_sha256": hashlib.sha256(workload.config.encode()).hexdigest(),
    }


def metrics_of(run: dict) -> dict:
    if run["trace"]:
        return {
            name: {"value": run["layers"].get(name, 0), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    return {
        "wall_s": {"value": run["wall_s"]["median"], "unit": "s"},
        "setup_s": {"value": run["setup_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        "cell_steps_per_s": {"value": run["cell_steps_per_s"]["median"], "unit": "1/s"},
    }


def report(run: dict) -> None:
    name = run["workload"]
    for metric in ("wall_s", "setup_s", "wall_s_raw", "setup_s_raw"):
        s = run[metric]
        print(
            f"{name} {metric} median {s['median']:.6g} s, "
            f"p{s['upper_pct']:.0f} {s['upper']:.6g} s, n={s['n']}"
        )
    cells = run["cell_steps_per_s"]
    print(f"{name} cell_steps_per_s median {cells['median']:.6g} 1/s, n={cells['n']}")
    print(f"{name} kernel_s {run['kernel_s']:.6g} s (calibration; reference {REFERENCE_S} s)")
    print(f"{name} peak_rss_mb {run['peak_rss_mb']:.6g} MB")
    print(f"{name} fail_ratio {run['fail_ratio']:.6g} ratio ({run['failed']}/{run['attempted']})")
    if run["trace"]:
        for metric, (unit, _) in PER_LAYER.items():
            print(f"{name} {metric} {run['layers'].get(metric, 0):.6g} {unit}")
        if run["absent"]:
            print(f"{name} absent trace targets: {', '.join(run['absent'])}")
    for problem in run["problems"]:
        print(f"{name} problem: {problem}", file=sys.stderr)
    print(json.dumps(run))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dampedwave" / "__init__.py").is_file():
        print(f"error: no dampedwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        work = HERE / "work" / f"{name}-{os.getpid()}"
        try:
            runs.append(run_workload(name, args.seed, args.seconds, args.trace, work))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report(runs[-1])

    if len(runs) == 1:
        metrics = metrics_of(runs[0])
    else:
        metrics = {
            f"{run['workload']}.{name}": value
            for run in runs
            for name, value in metrics_of(run).items()
        }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
