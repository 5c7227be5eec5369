"""Experiment LINT-cache: whole-tree analysis, cold vs. warm.

Runs the interprocedural linter over the entire repository twice against
a fresh cache directory.  The cold pass parses every file, extracts
per-function summaries, and populates the per-file cache; the warm pass
replays the cached facts and re-runs only the whole-program judgments
(call-graph resolution, taint propagation, fork-safety and
engine-reachability queries — those are never cached, by design).

Two claims are asserted before any timing is trusted:

* **byte identity** — the text, JSON, and SARIF reports of the cold and
  warm passes are identical, so the cache is observationally invisible;
* **speedup** — the warm pass is at least 5x faster than the cold pass
  (the headline claim ``BENCH_lint.json`` tracks over time).
"""

import json
import os
import time

from conftest import RESULTS_DIR, write_report
from pathlib import Path

from repro.analysis.core import run_lint
from repro.analysis.report import render_json, render_sarif, render_text

REPO = Path(__file__).resolve().parent.parent
TARGETS = ("src", "tests", "benchmarks", "examples")
LINT_TRAJECTORY = "BENCH_lint.json"

#: Warm passes are cheap — take the best of a few to shed scheduler
#: noise; the cold pass is timed once (it dominates either way).
WARM_REPETITIONS = 3


def run_experiment(cache_dir):
    paths = [REPO / target for target in TARGETS if (REPO / target).exists()]
    started = time.perf_counter()
    cold = run_lint(paths, root=REPO, cache_dir=cache_dir)
    cold_seconds = time.perf_counter() - started
    assert cold.cache_misses == cold.files_scanned, "bench cache dir was not cold"

    warm_seconds = float("inf")
    warm = None
    for _ in range(WARM_REPETITIONS):
        started = time.perf_counter()
        warm = run_lint(paths, root=REPO, cache_dir=cache_dir)
        warm_seconds = min(warm_seconds, time.perf_counter() - started)
    assert warm.cache_hits == warm.files_scanned, "warm pass missed the cache"

    # Byte identity first: a speedup for an analyzer that changed its
    # answer is meaningless.
    for renderer in (render_text, render_json, render_sarif):
        assert renderer(cold) == renderer(warm), "cold/warm reports diverged"

    speedup = cold_seconds / warm_seconds
    rows = [
        {
            "tree": "+".join(TARGETS),
            "files": cold.files_scanned,
            "findings": len(cold.findings),
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "speedup": round(speedup, 2),
            # Timings depend on the cores this process may run on.
            "cores": len(os.sched_getaffinity(0)),
        }
    ]
    lines = [
        "LINT-cache: interprocedural lint, cold vs. warm over the whole tree",
        "",
        f"  {'tree':<28} {'files':>6} {'cold':>9} {'warm':>9} {'speedup':>8}",
        f"  {rows[0]['tree']:<28} {rows[0]['files']:>6} "
        f"{cold_seconds:>8.3f}s {warm_seconds:>8.3f}s {speedup:>7.1f}x",
        "",
        f"  findings: {len(cold.findings)} "
        f"(suppressed: {cold.suppressed}, reports byte-identical: yes)",
    ]
    return rows, "\n".join(lines)


def append_lint_trajectory(rows, results_dir=None):
    """Append one entry to the ``BENCH_lint.json`` speedup trajectory."""
    directory = results_dir or RESULTS_DIR
    directory.mkdir(exist_ok=True)
    target = directory / LINT_TRAJECTORY
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


def test_lint_warm_cache_speedup(once, tmp_path):
    rows, report = once(run_experiment, tmp_path / "lint-bench-cache")
    write_report("lint", report)
    append_lint_trajectory(rows)

    (row,) = rows
    assert row["files"] > 100, "bench should cover the real tree"
    assert row["speedup"] >= 5.0, f"warm-cache speedup regressed: {row}"
