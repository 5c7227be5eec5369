"""Experiment SUP: the cost and value of supervised campaigns.

The supervisor (:mod:`repro.supervisor`) is the production posture for
landscape sweeps: cells isolated in a persistent worker process, bounded
deterministic retries, journaled resume, structured quarantine.  This
experiment measures what that posture costs and proves what it buys:

* supervision overhead — the same VOLUME panel campaign measured inline
  (clean serial baseline), isolated in one worker process, and isolated
  with a journal attached (per-line checksum + flush + fsync);
* chaos recovery — the campaign re-run under injected ``sim_crash`` /
  ``sim_oom`` / ``journal_torn`` faults with retries, asserting per-cell
  values **bit-identical** to the clean serial baseline;
* resume speedup — a journal-backed re-run that restores every cell
  without recomputation;
* scheduler scaling — the same campaign across 1/2/4 lease-supervised
  worker processes (:mod:`repro.scheduler`), values and journal bytes
  pinned to the serial run, wall-clock recorded to
  ``results/BENCH_scheduler.json`` over time together with the number
  of CPUs the process may run on.
"""

import json
import time

from conftest import RESULTS_DIR, write_report

from repro.scheduler import SchedulerConfig, run_scheduled_campaign
from repro.scheduler.engine import usable_cpu_count
from repro.supervisor import CampaignConfig, open_journal, run_campaign
from repro.supervisor.measurements import assemble_panel, plan_panel
from repro.utils import faults

PANEL = "volume"
POINTS = 5
CHAOS = {"sim_crash": 0.2, "sim_oom": 0.1, "journal_torn": 0.1}
CHAOS_SEED = 9
RETRIES = 4
WORKER_COUNTS = (1, 2, 4)
#: The scaling experiment uses a deeper panel than the overhead one:
#: its largest cells run for seconds, so worker parallelism has real
#: work to amortize the dispatch/lease machinery against.
SCALING_POINTS = 7
SCHEDULER_TRAJECTORY = "BENCH_scheduler.json"


def timed_campaign(plan, config, journal=None, resume=False):
    start = time.perf_counter()
    report = run_campaign(plan.cells, config, journal=journal, resume=resume)
    return report, time.perf_counter() - start


def run_experiment(tmp_dir):
    plan = plan_panel(PANEL, POINTS)
    lines = [f"SUP: supervised campaign overhead and recovery ({PANEL} panel)", ""]

    faults.configure_faults(None)
    baseline, t_inline = timed_campaign(plan, CampaignConfig(isolation="inline"))
    isolated, t_process = timed_campaign(
        plan, CampaignConfig(isolation="process", timeout=120.0)
    )
    journal = open_journal(plan.cells, seed=0, directory=tmp_dir)
    journaled, t_journal = timed_campaign(
        plan, CampaignConfig(isolation="process", timeout=120.0), journal=journal
    )
    resumed, t_resume = timed_campaign(
        plan,
        CampaignConfig(isolation="process", timeout=120.0),
        journal=journal,
        resume=True,
    )

    faults.configure_faults(CHAOS, seed=CHAOS_SEED)
    chaos_journal = open_journal(plan.cells, seed=1, directory=tmp_dir)
    chaotic, t_chaos = timed_campaign(
        plan,
        CampaignConfig(seed=0, isolation="process", timeout=120.0, retries=RETRIES),
        journal=chaos_journal,
    )
    faults.configure_faults(None)

    cells = len(plan.cells)
    rows = [
        ("inline (clean serial baseline)", t_inline, baseline),
        ("worker isolation", t_process, isolated),
        ("isolation + journal", t_journal, journaled),
        ("journal resume (no recompute)", t_resume, resumed),
        (f"chaos {CHAOS} + retries", t_chaos, chaotic),
    ]
    lines.append(f"  {'mode':<38} {'total':>8} {'per-cell':>9} {'summary'}")
    for label, elapsed, report in rows:
        lines.append(
            f"  {label:<38} {elapsed:>7.3f}s {elapsed / cells * 1e3:>7.1f}ms"
            f"  {report.summary()}"
        )
    retried = sum(1 for r in chaotic.results if r.attempts > 1)
    lines.append("")
    lines.append(f"  chaos run: {retried} cell(s) needed retries; values bit-identical")

    panel = assemble_panel(plan, chaotic)
    lines.append("")
    lines.append(panel.render())

    results = {
        "baseline": baseline,
        "isolated": isolated,
        "journaled": journaled,
        "resumed": resumed,
        "chaotic": chaotic,
        "panel": panel,
        "retried": retried,
    }
    return results, "\n".join(lines)


def run_scaling_experiment(tmp_dir):
    """Worker-count scaling: the scheduled campaign must match the
    serial journaled run in values *and* journal bytes at every width."""
    plan = plan_panel(PANEL, SCALING_POINTS)
    faults.configure_faults(None)

    serial_dir = tmp_dir / "serial"
    serial_dir.mkdir(parents=True, exist_ok=True)
    serial_journal = open_journal(plan.cells, seed=0, directory=serial_dir)
    config = CampaignConfig(isolation="process", timeout=120.0)
    serial, t_serial = timed_campaign(plan, config, journal=serial_journal)
    serial_bytes = serial_journal.path.read_bytes()

    cells = len(plan.cells)
    cores = usable_cpu_count()
    rows = [
        {
            "mode": "serial",
            "workers": 0,
            "cores": cores,
            "cells": cells,
            "seconds": round(t_serial, 6),
            "speedup": 1.0,
        }
    ]
    reports = {}
    for workers in WORKER_COUNTS:
        directory = tmp_dir / f"workers-{workers}"
        directory.mkdir(parents=True, exist_ok=True)
        journal = open_journal(plan.cells, seed=0, directory=directory)
        start = time.perf_counter()
        report = run_scheduled_campaign(
            plan.cells,
            config,
            scheduler=SchedulerConfig(workers=workers),
            journal=journal,
        )
        elapsed = time.perf_counter() - start
        reports[workers] = (report, journal.path.read_bytes())
        rows.append(
            {
                "mode": "scheduled",
                "workers": workers,
                "cores": cores,
                "cells": cells,
                "seconds": round(elapsed, 6),
                "speedup": round(t_serial / elapsed, 2),
            }
        )

    lines = [
        "SUP-SCHED: lease-based scheduler worker scaling "
        f"({cores} core(s) — CPU-bound cells cannot beat the core count; "
        "the pinned contract is value and journal-byte identity)",
        "",
    ]
    lines.append(f"  {'mode':<12} {'workers':>7} {'cells':>6} {'total':>9} {'speedup':>8}")
    for row in rows:
        label = "serial" if row["mode"] == "serial" else f"{row['workers']}"
        lines.append(
            f"  {row['mode']:<12} {label:>7} {row['cells']:>6} "
            f"{row['seconds']:>8.3f}s {row['speedup']:>7.2f}x"
        )
    lines.append("")
    lines.append("  values and journal bytes identical to serial at every width")
    return {"serial": serial, "serial_bytes": serial_bytes,
            "reports": reports, "rows": rows}, "\n".join(lines)


def append_scheduler_trajectory(rows, results_dir=None):
    """Append one entry to the ``BENCH_scheduler.json`` scaling trajectory."""
    directory = results_dir or RESULTS_DIR
    directory.mkdir(exist_ok=True)
    target = directory / SCHEDULER_TRAJECTORY
    trajectory = []
    if target.exists():
        trajectory = json.loads(target.read_text(encoding="utf-8"))
    trajectory.append(
        {
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "rows": rows,
        }
    )
    target.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    return target


def test_scheduler_worker_scaling(once, tmp_path):
    results, report = once(run_scaling_experiment, tmp_path)
    write_report("scheduler_scaling", report)
    append_scheduler_trajectory(results["rows"])

    baseline = results["serial"].values()
    for workers, (scheduled, journal_bytes) in sorted(results["reports"].items()):
        assert scheduled.values() == baseline, f"workers={workers} diverged"
        assert journal_bytes == results["serial_bytes"], (
            f"workers={workers} journal not byte-identical"
        )
        assert not scheduled.quarantined


def test_supervised_campaign(once, tmp_path):
    results, report = once(run_experiment, tmp_path)
    write_report("supervised_campaign", report)

    baseline = results["baseline"].values()
    # Isolation, journaling, chaos + retries: all bit-identical to the
    # clean serial baseline — supervision never changes a measurement.
    assert results["isolated"].values() == baseline
    assert results["journaled"].values() == baseline
    assert results["chaotic"].values() == baseline
    # The resume restored every cell from the journal.
    assert results["resumed"].values() == baseline
    assert results["resumed"].resumed_count == len(baseline)
    # The assembled panel stays clean: empty gap, no quarantine.
    assert not results["panel"].gap_violations()
    assert results["panel"].complete
