"""Benchmark for the lcl-landscape repro: classify, certify and campaign jobs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload classify-d3 --seed 1 --seconds 24 --trace 0

One run starts ``PROCESSES`` fresh job processes (``job.py``) one after
another, each with an equal share of ``--seconds``, and reports medians
across them: set-up time, cold job time (first job of each process),
warm job time (all later jobs), operations per job and peak RSS.  With
``--trace 1`` it reports the per-layer metrics of ``layers.py`` instead.
Times are rescaled to a reference CPU speed (see ``job.py``).  Every
job's output is checked against ``pins.json``; the last line of
standard output is the JSON result.  See ``NOTES.md``.

The run refuses to start when a fault-injection knob is set, and starts
its job processes with every other ``REPRO_*`` knob removed, so the
program runs with its defaults.  Scratch files (journals, trace spools)
live under ``.perfbench-tmp/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from job import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("classify-d3", "classify-d4", "certify-deep", "campaign")
#: Fresh processes per run: each yields one set-up and one cold sample.
PROCESSES = 8
#: A job process that outlives this is killed and the run fails.
PROCESS_TIMEOUT_S = 55.0
FAULT_KNOBS = ("REPRO_FAULTS", "REPRO_FAULTS_SEED")

END_TO_END = {
    "setup_s": "s",
    "cold_job_s": "s",
    "warm_job_s": "s",
    "ops": "count",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_environment(scratch: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(scratch)
    return env


def run_process(args, share: float, scratch: Path, env: dict) -> dict:
    command = [
        sys.executable, str(HERE / "job.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(share), "--trace", str(args.trace),
        "--scratch", str(scratch), "--spawned-at", repr(time.monotonic()),
    ]
    # The job process stamps its set-up time against --spawned-at, so the
    # stamp is taken as late as possible: inside the argument list above.
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"job process exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    set_faults = [knob for knob in FAULT_KNOBS if os.environ.get(knob)]
    if set_faults:
        print(f"refusing to run with fault injection set: {', '.join(set_faults)}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench-tmp"
    scratch = scratch_root / f"run-{os.getpid()}"
    share = args.seconds / PROCESSES
    results = []
    try:
        scratch.mkdir(parents=True, exist_ok=True)
        env = child_environment(scratch)
        for index in range(PROCESSES):
            results.append(run_process(args, share, scratch / f"p{index}", env))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with_contents = scratch_root.exists() and any(scratch_root.iterdir())
        if scratch_root.exists() and not with_contents:
            scratch_root.rmdir()

    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    for message in [m for result in results for m in result["failures"]][:10]:
        print(f"failed op: {message}", file=sys.stderr)
    print("# env: " + json.dumps(results[0]["env"], sort_keys=True))

    # Each process's times, rescaled to the reference CPU speed (job.py).
    for result in results:
        result["speed"] = REFERENCE_S / statistics.median(result["references"])
    warm = [r["speed"] * wall for r in results for wall in r["warm_raw"]]
    if args.trace:
        import layers

        traced_warm = [r["speed"] * wall for r in results for wall in r["traced_warm_raw"]]
        overhead = statistics.median(traced_warm) / statistics.median(warm) - 1.0
        totals: dict = {}
        for result in results:
            for key, value in result["totals"].items():
                totals[key] = totals.get(key, 0.0) + value
        jobs = sum(result["traced_jobs"] for result in results)
        values = layers.metrics(totals, jobs, overhead)
        metrics = {name: metric(values[name], unit) for name, unit in layers.PER_LAYER.items()}
        print(f"# traced jobs: {jobs}; untraced warm jobs: {len(warm)}")
    else:
        values = {
            "setup_s": statistics.median(r["speed"] * r["setup_raw"] for r in results),
            "cold_job_s": statistics.median(r["speed"] * r["cold_raw"] for r in results),
            "warm_job_s": statistics.median(warm),
            "ops": statistics.median(ops for result in results for ops in result["ops"]),
            "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in results),
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
        print(
            f"# samples: setup {len(results)}, cold {len(results)}, warm {len(warm)}; "
            f"ops_failed {failed}"
        )
        print(
            "# as measured, before rescaling: "
            f"setup {statistics.median(r['setup_raw'] for r in results):.6g} s, "
            f"cold {statistics.median(r['cold_raw'] for r in results):.6g} s, "
            f"warm {statistics.median(w for r in results for w in r['warm_raw']):.6g} s"
        )
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
