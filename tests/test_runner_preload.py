"""The landscape cell runners load everything before a worker forks.

The campaign engine resolves every runner in the parent
(:func:`repro.scheduler.engine.preload_runners`), so a forked worker
inherits the simulators instead of importing them again in every panel.
That holds only while the runners import their simulators at module
level: one function-local import inside a runner, and each worker pays
that import per panel again.  Both sides are checked in a fresh
interpreter, because this test process has long since imported them:

* importing the panel plans (:mod:`repro.supervisor.measurements`, which
  the CLI and set-up code import) pulls in no simulator;
* after the pre-fork resolution, running the smallest cell of every
  series inline imports no further ``repro`` module.

A runner the parent cannot resolve is left to the worker, which
quarantines its cells as before.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.scheduler import SchedulerConfig, run_scheduled_campaign
from repro.supervisor import CampaignConfig, CellSpec, register_runner
from repro.utils import faults

SRC = Path(repro.__file__).resolve().parents[1]

PROBE = """
import json, sys

def loaded():
    return {name for name in sys.modules if name.split(".")[0] == "repro"}

from repro.supervisor import measurements

after_plans = sorted(loaded())

from repro.scheduler.engine import preload_runners
from repro.supervisor.isolation import run_attempt_inline

plans = [measurements.plan_panel(panel, 2) for panel in measurements.MEASURED_PANELS]
preload_runners([spec for plan in plans for spec in plan.cells])
before_cells = loaded()
outcomes = {}
for plan in plans:
    for series in plan.series:
        smallest = min(series.cells, key=lambda spec: spec.n)
        outcome = run_attempt_inline(smallest, 0)
        outcomes[smallest.cell_id()] = [outcome.ok, outcome.reason]
print(json.dumps({
    "after_plans": after_plans,
    "loaded_by_cells": sorted(loaded() - before_cells),
    "outcomes": outcomes,
}))
"""

#: Packages only the cell runners need.
SIMULATORS = ("repro.volume", "repro.grids", "repro.local", "repro.supervisor.runners")


@pytest.fixture(scope="module")
def probe():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_plans_import_no_simulator(probe):
    after_plans = probe["after_plans"]
    leaked = [
        name
        for name in after_plans
        if any(name == pkg or name.startswith(pkg + ".") for pkg in SIMULATORS)
    ]
    assert leaked == []


def test_cells_load_nothing_after_preload(probe):
    # One smallest cell per series of every panel ran, and succeeded.
    assert len(probe["outcomes"]) == 8
    failed = {cell: reason for cell, (ok, reason) in probe["outcomes"].items() if not ok}
    assert failed == {}
    assert probe["loaded_by_cells"] == []


@register_runner("preload.n")
def _n(spec, rng):
    return spec.n


UNKNOWN = CellSpec.make("preload.no-such-runner", "p", 3, seed=3)


def test_unknown_runner_is_still_quarantined_in_the_worker(monkeypatch):
    # The parent's pre-fork resolution skips it; the worker's attempt
    # fails on it like on any other runner error.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset_faults()
    cells = [CellSpec.make("preload.n", "p", n, seed=n) for n in (1, 2)] + [UNKNOWN]
    report = run_scheduled_campaign(
        cells,
        CampaignConfig(seed=0, retries=0),
        scheduler=SchedulerConfig(workers=2),
    )
    by_id = report.by_id()
    assert [by_id[spec.cell_id()].value for spec in cells[:2]] == [1, 2]
    lost = by_id[UNKNOWN.cell_id()]
    assert lost.quarantined and lost.classification == "error"
    assert "preload.no-such-runner" in lost.reason
