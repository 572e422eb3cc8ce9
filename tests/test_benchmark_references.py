"""Each benchmark workload, run in-process through the CLI, writes the
artifacts stored as its reference: every series value under its header
and every checked report value, within the benchmark's own tolerance."""

import sys
from pathlib import Path

import pytest

from dampedwave.cli import main as dampedwave_main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

from check import compare_tree  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_matches_its_reference(name, tmp_path):
    workload = WORKLOADS[name]
    config = tmp_path / f"{name}.cfg"
    config.write_text(workload.config, encoding="utf-8")
    out = tmp_path / name
    assert dampedwave_main(workload.argv(config, out, seed=0)) == 0
    assert compare_tree(out, BENCH / "reference" / name) == []
