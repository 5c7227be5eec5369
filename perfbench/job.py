"""One benchmark process: set up, run the cold job, then warm jobs.

``run.py`` starts this script several times per run, one fresh process
after another, so every process contributes one set-up time, one cold
job (the first job of a fresh process, empty operator cache) and the
warm jobs that fit in its share of the run.  The last line of standard
output is one JSON object for ``run.py``.

In a traced run the cold job and the first warm job are traced and the
later warm jobs are not, so per-layer values weigh cold and warm jobs
alike and the trace overhead is measured in the same process.

The machine this benchmark was sized on changes speed by up to a third,
for moments and for tens of seconds at a time (other tenants share its
cores), which moves every time in a run alike.  So the process also
times a fixed pure-Python reference loop after set-up and after every
job, and ``run.py`` rescales the process's times by ``REFERENCE_S /
(median loop time)``.  Changes to the program cannot move the reference
loop, so a program regression still shows in full.

``--pin`` instead runs one job at the default seed and writes its outputs
into ``pins.json``; use it only when a change of the program's output is
intended.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
#: The reference loop's time at the CPU speed all times are rescaled to
#: (about its median on the 2-core machine the benchmark was sized on).
REFERENCE_S = 0.002


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0, help="this process's share")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="shrunken workload for smoke tests")
    parser.add_argument("--pin", action="store_true", help="write pins.json for this workload")
    return parser.parse_args(argv)


def environment() -> dict:
    from repro.utils import env

    numpy_version = None
    if importlib.util.find_spec("numpy") is not None:
        import numpy

        numpy_version = numpy.__version__
    pysat = importlib.util.find_spec("pysat") is not None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sat_engine": ("pysat" if pysat else "dpll") if env.get_bool("REPRO_SAT") else "off",
        "bitset": "on" if env.get_bool("REPRO_BITSET") and numpy_version else "off",
    }


def reference_loop() -> int:
    """Fixed interpreter work shaped like the program's: dicts, sets,
    frozensets and integer arithmetic."""
    counts: dict = {}
    seen = set()
    for i in range(4000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
        seen.add(frozenset((key, i & 15)))
    return len(seen) + sum(counts.values())


def reference_s() -> float:
    """Median of three timings of :func:`reference_loop`."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()
    import layers
    import tracer as tracing
    import workloads

    workload = workloads.build(args.workload, tiny=args.tiny)
    args.scratch.mkdir(parents=True, exist_ok=True)
    workload.setup(args.seed, args.scratch)
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    setup_raw = time.monotonic() - spawned_at
    references = [reference_s()]

    if args.pin:
        if args.seed != workloads.DEFAULT_SEED:
            raise SystemExit("--pin records the default seed only")
        pins[args.workload] = workload.record(workload.run())
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    tracer = tracing.Tracer(args.scratch / "spool") if args.trace else None
    out = {
        "setup_raw": setup_raw, "cold_raw": None, "warm_raw": [], "traced_warm_raw": [],
        "references": references,
        "ops": [], "attempted": 0, "failed": 0, "failures": [],
        "totals": {}, "traced_jobs": 0, "env": environment(),
    }

    def job(traced: bool) -> float:
        """Run one job and check its outputs; returns its wall time."""
        if traced:
            tracer.reset()
            layers.install(tracer)
        scope = tracer.span(tracing.ROOT) if traced else contextlib.nullcontext()
        start = time.monotonic()
        with scope:
            outputs = workload.run()
        wall = time.monotonic() - start
        if traced:
            tracer.uninstall()
        references.append(reference_s())
        ops, failures, counters = workload.check(outputs, pins)
        if traced:
            summary = tracing.summarize(tracer.spans())
            counters.update(tracer.counts)
            drift = summary["main_self_s"] + summary["other_s"] - summary["wall_s"]
            if abs(drift) > 1e-6 * max(1.0, summary["wall_s"]):
                failures.append(f"trace: layer self times + other miss job wall by {drift:.3g}s")
            for key, value in layers.job_totals(summary, counters).items():
                out["totals"][key] = out["totals"].get(key, 0.0) + value
            out["traced_jobs"] += 1
        out["ops"].append(ops)
        out["attempted"] += ops
        out["failed"] += len(failures)
        out["failures"] += failures[: max(0, 5 - len(out["failures"]))]
        return wall

    deadline = spawned_at + args.seconds
    out["cold_raw"] = job(traced=bool(args.trace))
    while True:
        traced = bool(args.trace) and not out["traced_warm_raw"]
        out["traced_warm_raw" if traced else "warm_raw"].append(job(traced=traced))
        if out["warm_raw"] and time.monotonic() >= deadline:
            break
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
