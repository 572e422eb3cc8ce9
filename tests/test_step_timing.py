import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "step_timing.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=300
    )


def test_step_timing_prints_one_json_line():
    proc = _run("--repeats", "2")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    result = json.loads(line)
    assert result["repeats"] == 2
    for key in ("advance_us", "measure_us", "block_record_us"):
        assert list(result[key]) == ["1d_1024", "2d_256", "3d_48"]
        assert all(us > 0.0 for us in result[key].values())
    assert result["block_rows"] == {"1d_1024": 8, "2d_256": 1, "3d_48": 1}
    peaks = result["run_peak_mib"]
    assert list(peaks) == ["1d_1024", "2d_256", "3d_48"]
    # a 48^3 field is 0.84 MiB, and a run holds more than ten of them
    assert 0.0 < peaks["1d_1024"] < peaks["3d_48"] and peaks["3d_48"] > 8.4
    for key in ("snapshot_run", "audit_run", "decay_run", "fujita_run", "sweep_run"):
        assert list(result[key]) == ["wall_ms", "cpu_ms"]
        assert all(ms > 0.0 for ms in result[key].values())
    assert result["jobs_us"] > 0.0


def test_step_timing_rejects_no_repeats():
    proc = _run("--repeats", "0")
    assert proc.returncode == 2
    assert "--repeats" in proc.stderr
