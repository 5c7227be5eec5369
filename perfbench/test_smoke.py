"""Smoke tests: every workload at a tiny size, traced, plus the run guards.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _env() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_traced(workload, tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "job.py"), "--workload", workload, "--tiny",
         "--seed", "1", "--seconds", "0", "--trace", "1", "--scratch", str(tmp_path)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["failures"] == [] and out["failed"] == 0
    assert out["attempted"] > 0 and out["warm_raw"] and out["traced_warm_raw"]
    totals = out["totals"]
    assert out["traced_jobs"] == 2
    assert totals["trace.main_self_s"] + totals["trace.other_s"] == pytest.approx(
        totals["trace.wall_s"], abs=1e-6
    )
    if workload == "campaign":
        assert totals["trace.lanes_busy_s"] > 0 and totals["cells.trees.calls"] > 0
    else:
        assert totals["zero_round.calls"] > 0


def test_refuses_fault_injection():
    env = dict(os.environ, REPRO_FAULTS="sim_crash:0.5")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "campaign",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "fault injection" in done.stderr
    assert done.stdout == ""


def test_fails_without_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-d3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
