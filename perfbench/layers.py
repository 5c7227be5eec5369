"""Where the traced run wraps the program, and the per-layer metrics.

Every wrap names the module attribute a caller looks the function up
through, so the span sees exactly the calls that layer serves.  A layer
imported by name into several modules is wrapped in each of them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracer import Tracer

WRAPS: List[Tuple[str, str, str]] = [
    # roundelim.ops: the operators the sequence walk applies.
    ("repro.roundelim.sequence", "R", "ops.R"),
    ("repro.roundelim.sequence", "R_bar", "ops.R_bar"),
    ("repro.roundelim.sequence", "simplify", "ops.simplify"),
    # roundelim.universe: looked up on the module inside the power problem.
    ("repro.roundelim.universe", "closed_universe", "universe.closed"),
    ("repro.roundelim.universe", "reduced_universe", "universe.reduced"),
    # roundelim.bitset: the compiled kernel the ops dispatch reaches.
    ("repro.roundelim.bitset", "power_problem", "bitset.power_problem"),
    # roundelim.canonical and the operator cache around it.
    ("repro.roundelim.ops", "canonical_hash", "canonical.hash"),
    ("repro.roundelim.canonical", "canonical_hash", "canonical.hash"),
    ("repro.roundelim.ops", "decode_result", "canonical.decode"),
    ("repro.roundelim.ops", "encode_result", "canonical.encode"),
    ("repro.roundelim.gap", "canonically_equal", "canonical.equal"),
    # roundelim.zero_round (+ sat) and roundelim.lift.
    ("repro.roundelim.gap", "find_zero_round_algorithm", "zero_round"),
    ("repro.roundelim.gap", "lift_to_local_algorithm", "lift"),
    # verify + lcl.codec.
    ("repro.verify.certify", "certify_result", "verify.certify"),
    ("repro.verify.check", "check_certificate", "verify.check"),
    ("repro.verify.certify", "build_refutation", "verify.refute.build"),
    ("repro.verify.check", "check_refutation", "verify.refute.check"),
    ("repro.verify.certify", "record_transcript", "verify.transcript"),
    ("repro.verify.check", "check_transcript", "verify.transcript"),
    ("repro.verify.certify", "replay_certificate", "verify.replay"),
    ("repro.verify.certify", "encode_problem", "codec.encode_problem"),
    ("repro.verify.certify", "decode_problem", "codec.decode_problem"),
    ("repro.verify.check", "decode_problem", "codec.decode_problem"),
    # Cell simulators (runners import them at call time).
    ("repro.local.model", "run_local_algorithm", "local.run"),
    ("repro.volume", "run_volume_algorithm", "volume.run"),
    # supervisor + scheduler.
    ("repro.scheduler.worker", "run_attempt_process", "supervisor.attempt"),
    ("repro.supervisor.journal", "ShardWriter.append_cell", "supervisor.journal"),
    ("repro.supervisor.journal", "CampaignJournal.append_cell", "supervisor.journal"),
    ("repro.supervisor.journal", "CampaignJournal.rewrite_cells", "supervisor.journal"),
]

#: Call counters without spans, for functions too hot to time per call.
COUNTERS: List[Tuple[str, str, str]] = [
    ("repro.utils.budget", "Budget.tick", "budget.tick.calls"),
]

#: Registered cell runner -> layer.
RUNNER_LAYERS = {
    "landscape.trees": "cells.trees",
    "landscape.volume": "cells.volume",
    "landscape.grids": "cells.grids",
}

#: Per-layer metrics: name -> unit.  Order is the report order.
PER_LAYER: Dict[str, str] = {
    "universe.closed.self_s": "s",
    "universe.reduced.self_s": "s",
    "universe.cap_trips": "count",
    "universe.completed_ratio": "ratio",
    "ops.R.self_s": "s",
    "ops.R_bar.self_s": "s",
    "ops.simplify.self_s": "s",
    "ops.configurations_tested": "count",
    "ops.bitset_steps": "count",
    "ops.bitset_fallbacks": "count",
    "bitset.power_problem.self_s": "s",
    "budget.tick.calls": "count",
    "budget.configurations": "count",
    "canonical.hash.self_s": "s",
    "canonical.decode.self_s": "s",
    "canonical.encode.self_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "zero_round.self_s": "s",
    "sat.steps": "count",
    "sat.fallbacks": "count",
    "lift.self_s": "s",
    "canonical.equal.self_s": "s",
    "verify.certify.self_s": "s",
    "verify.check.self_s": "s",
    "verify.refute.build.self_s": "s",
    "verify.refute.check.self_s": "s",
    "verify.transcript.self_s": "s",
    "verify.replay.self_s": "s",
    "codec.encode_problem.self_s": "s",
    "codec.decode_problem.self_s": "s",
    "verify.certificate_bytes": "bytes",
    "cells.trees.self_s": "s",
    "cells.volume.self_s": "s",
    "cells.grids.self_s": "s",
    "local.run.self_s": "s",
    "volume.run.self_s": "s",
    "supervisor.attempt.wall_s": "s",
    "supervisor.attempt.self_s": "s",
    "supervisor.journal.append_s": "s",
    "supervisor.journal.bytes": "bytes",
    "scheduler.dispatches": "count",
    "scheduler.reclaims": "count",
    "scheduler.respawns": "count",
    "scheduler.worker_busy_ratio": "ratio",
    "trace.job_wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_ratio": "ratio",
}


def install(tracer: Tracer) -> None:
    tracer.install(WRAPS, COUNTERS)

    def traced_resolver(resolve):
        def resolve_runner(name):
            runner = resolve(name)
            return tracer.wrap(runner, RUNNER_LAYERS.get(name, f"cells.{name}"))

        return resolve_runner

    # The supervisor resolves a cell's runner by name inside the cell
    # subprocess; wrapping the resolver wraps every registered runner.
    tracer.patch("repro.supervisor.isolation", "resolve_runner", traced_resolver)


def job_totals(summary: Dict[str, Any], counters: Dict[str, float]) -> Dict[str, float]:
    """Additive per-job totals from one traced job: layer self/wall times
    and calls, the job's counters, and the main-lane time identity."""
    totals: Dict[str, float] = dict(counters)
    for layer, values in summary["layers"].items():
        for field, value in values.items():
            totals[f"{layer}.{field}"] = totals.get(f"{layer}.{field}", 0) + value
    for field in ("wall_s", "other_s", "main_self_s", "lanes_busy_s"):
        totals[f"trace.{field}"] = summary[field]
    return totals


def metrics(totals: Dict[str, float], jobs: int, overhead: float) -> Dict[str, float]:
    """Per-layer metrics, as means per traced job."""

    def get(key: str) -> float:
        return totals.get(key, 0.0) / jobs

    universe_calls = get("universe.closed.calls") + get("universe.reduced.calls")
    cap_trips = get("universe.closed.raised") + get("universe.reduced.raised")
    lookups = get("hits") + get("misses")
    wall = get("trace.wall_s")
    workers = get("scheduler.workers")
    values = {
        "universe.cap_trips": cap_trips,
        "universe.completed_ratio": (
            (universe_calls - cap_trips) / universe_calls if universe_calls else 0.0
        ),
        "ops.configurations_tested": get("configurations_tested"),
        "ops.bitset_steps": get("bitset_steps"),
        "ops.bitset_fallbacks": get("bitset_fallbacks"),
        "budget.tick.calls": get("budget.tick.calls"),
        "budget.configurations": get("budget.configurations"),
        "cache.hits": get("hits"),
        "cache.misses": get("misses"),
        "cache.hit_ratio": get("hits") / lookups if lookups else 0.0,
        "sat.steps": get("sat_steps"),
        "sat.fallbacks": get("sat_fallbacks"),
        "verify.certificate_bytes": get("verify.certificate_bytes"),
        "supervisor.attempt.wall_s": get("supervisor.attempt.wall_s"),
        "supervisor.journal.append_s": get("supervisor.journal.wall_s"),
        "supervisor.journal.bytes": get("supervisor.journal.bytes"),
        "scheduler.dispatches": get("scheduler.dispatches"),
        "scheduler.reclaims": get("scheduler.reclaims"),
        "scheduler.respawns": get("scheduler.respawns"),
        "scheduler.worker_busy_ratio": (
            get("trace.lanes_busy_s") / (workers * wall) if workers and wall else 0.0
        ),
        "trace.job_wall_s": wall,
        "trace.other_s": get("trace.other_s"),
        "trace.overhead_ratio": overhead,
    }
    for name in PER_LAYER:
        if name not in values and name.endswith(".self_s"):
            values[name] = get(name)
    return {name: values[name] for name in PER_LAYER}
