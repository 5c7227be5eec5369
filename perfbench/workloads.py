"""The benchmark's workloads: what one job runs and how its output is checked.

Each workload drives only public entry points of ``repro``:
``roundelim.gap.speedup`` (classify), ``verify.certify.certify_result`` /
``verify.check.check_certificate`` / ``verify.certify.replay_certificate``
(certify) and ``scheduler.run_scheduled_campaign`` (campaign).  Entry
points are looked up on their modules at call time, so the tracer's
wrappers see every call.

A job returns raw results; :meth:`Workload.check` turns them into the
number of operations attempted and one failure message per operation that
raised, tripped a budget, was quarantined, or disagrees with the pinned
outputs in ``pins.json``.  Checking runs outside the timed region.
See ``NOTES.md`` for why each workload is sized as it is.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.lcl import catalog
from repro.roundelim import canonical, gap
from repro.scheduler import engine as scheduler_engine
from repro.supervisor import campaign as supervisor_campaign
from repro.supervisor import measurements
from repro.utils import budget as budget_module
from repro.utils import cache as operator_cache
from repro.verify import certify as verify_certify
from repro.verify import check as verify_check
from repro.verify.certificate import body_checksum

#: The seed whose seed-dependent outputs (certificate checksums, journal
#: hashes) are pinned; other seeds are checked by re-verification.
DEFAULT_SEED = 0

#: Scheduler worker processes per campaign: one per core of the 2-core
#: machine the benchmark was sized on.
SCHEDULER_WORKERS = 2

#: Operator-cache counters summed over every operator for a job.
CACHE_FIELDS = (
    "hits",
    "misses",
    "configurations_tested",
    "bitset_steps",
    "bitset_fallbacks",
    "sat_steps",
    "sat_fallbacks",
)

Failures = List[str]


def _cache_totals() -> Dict[str, float]:
    operators = operator_cache.stats()["operators"]
    return {
        field: sum(counters.get(field, 0) for counters in operators.values())
        for field in CACHE_FIELDS
    }


def _mismatches(got: Dict[str, Any], pinned: Optional[Dict[str, Any]]) -> List[str]:
    if pinned is None:
        return ["no pinned output"]
    return [
        f"{field} {got.get(field)!r} != pinned {value!r}"
        for field, value in pinned.items()
        if got.get(field) != value
    ]


def _fail(failures: Failures, label: str, problems: List[str]) -> None:
    """One failure message per failed operation."""
    if problems:
        failures.append(f"{label}: " + "; ".join(problems))


class Workload:
    """One workload: ``setup`` once per process, ``run`` once per job."""

    name = ""

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def run(self) -> Any:
        raise NotImplementedError

    def check(self, raw: Any, pins: Dict[str, Any]) -> Tuple[int, Failures, Dict[str, float]]:
        """``(ops attempted, failures, per-job counters)``."""
        raise NotImplementedError

    def record(self, raw: Any) -> Dict[str, Any]:
        """The pinned-output entry for ``pins.json`` (default seed only)."""
        raise NotImplementedError

    def _pins(self, pins: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        entry = pins.get(self.name, {})
        seeded = entry.get("seed0", {}) if self.seed == DEFAULT_SEED else {}
        return entry.get("ops", {}), seeded


def _walk_record(result: Any) -> Dict[str, Any]:
    sequence = result.sequence
    return {
        "verdict": result.verdict_label(),
        "alphabet_sizes": list(result.alphabet_sizes),
        "hashes": [
            canonical.canonical_hash(sequence.problem(k))
            for k in range(sequence.completed_steps() + 1)
        ],
    }


class Classify(Workload):
    """The ``speedup`` walk over a degree-``d`` catalog, cache on."""

    def __init__(self, name: str, problems: List[Tuple[Any, int]], budgeted: bool):
        self.name = name
        self.problems = problems
        self.budgeted = budgeted

    def run(self) -> Any:
        before = _cache_totals()
        walks = []
        for problem, max_steps in self.problems:
            budget = budget_module.Budget(deadline=600) if self.budgeted else None
            try:
                result = gap.speedup(problem, max_steps=max_steps, budget=budget)
            except Exception as error:  # an op that raises is a failed op
                walks.append((problem.name, None, budget, f"{type(error).__name__}: {error}"))
                continue
            walks.append((problem.name, result, budget, None))
        return walks, before, _cache_totals()

    def check(self, raw, pins):
        walks, before, after = raw
        expected, _ = self._pins(pins)
        failures: Failures = []
        counters = {field: after[field] - before[field] for field in CACHE_FIELDS}
        counters["budget.configurations"] = 0
        for name, result, budget, error in walks:
            if error is not None:
                failures.append(f"classify {name}: {error}")
                continue
            problems = _mismatches(_walk_record(result), expected.get(name))
            if result.budget_diagnostics is not None:
                problems.append(f"budget tripped: {result.budget_diagnostics}")
            if budget is not None:
                counters["budget.configurations"] += budget.configurations
            _fail(failures, f"classify {name}", problems)
        return len(walks), failures, counters

    def record(self, raw):
        walks, _, _ = raw
        return {"ops": {name: _walk_record(result) for name, result, _, _ in walks}}


class Certify(Workload):
    """The ``certify --catalog --replay`` job: walk, certify, check, replay."""

    name = "certify-deep"

    def __init__(self, problems: List[Tuple[str, Any, int]], trials: int = 3):
        self.problems = problems
        self.trials = trials

    def run(self) -> Any:
        before = _cache_totals()
        items = []
        for key, problem, max_steps in self.problems:
            try:
                result = gap.speedup(problem, max_steps=max_steps)
                certificate = verify_certify.certify_result(
                    result, trials=self.trials, seed=self.seed
                )
                outcome = verify_check.check_certificate(certificate)
                replay = (
                    verify_certify.replay_certificate(certificate)
                    if certificate.kind == "constant"
                    else []
                )
            except Exception as error:
                items.append((key, None, None, None, None, f"{type(error).__name__}: {error}"))
                continue
            items.append((key, result, certificate, outcome, replay, None))
        return items, before, _cache_totals()

    def check(self, raw, pins):
        items, before, after = raw
        expected, seeded = self._pins(pins)
        failures: Failures = []
        counters = {field: after[field] - before[field] for field in CACHE_FIELDS}
        counters["verify.certificate_bytes"] = 0
        for key, result, certificate, outcome, replay, error in items:
            if error is not None:
                failures.append(f"certify {key}: {error}")
                continue
            problems = _mismatches(_walk_record(result), expected.get(key))
            if not outcome.ok:
                problems.append(f"certificate rejected: {outcome.errors}")
            if replay:
                problems.append(f"replay diverged: {replay[:3]}")
            if self.seed == DEFAULT_SEED:
                checksum = {"checksum": body_checksum(certificate.body)}
                problems += _mismatches(checksum, seeded.get(key))
            _fail(failures, f"certify {key}", problems)
            counters["verify.certificate_bytes"] += len(certificate.to_json())
        return len(items), failures, counters

    def record(self, raw):
        items, _, _ = raw
        return {
            "ops": {key: _walk_record(result) for key, result, *_ in items},
            "seed0": {
                key: {"checksum": body_checksum(certificate.body)}
                for key, _, certificate, *_ in items
            },
        }


class Campaign(Workload):
    """Landscape panels as supervised campaigns on the lease scheduler."""

    name = "campaign"

    def __init__(self, panels: Tuple[str, ...], points: int):
        self.panels = panels
        self.points = points
        self._jobs = 0

    def setup(self, seed, scratch):
        super().setup(seed, scratch)
        self.plans = [measurements.plan_panel(panel, self.points) for panel in self.panels]

    def run(self) -> Any:
        self._jobs += 1
        directory = self.scratch / f"journals-{self._jobs}"
        config = supervisor_campaign.CampaignConfig(
            seed=self.seed, timeout=120.0, isolation=supervisor_campaign.ISOLATE_PROCESS
        )
        runs = []
        for plan in self.plans:
            journal = supervisor_campaign.open_journal(
                plan.cells, seed=self.seed, directory=directory / plan.panel
            )
            try:
                report = scheduler_engine.run_scheduled_campaign(
                    plan.cells,
                    config,
                    scheduler=scheduler_engine.SchedulerConfig(workers=SCHEDULER_WORKERS),
                    journal=journal,
                )
            except Exception as error:
                runs.append((plan, None, journal, f"{type(error).__name__}: {error}"))
                continue
            runs.append((plan, report, journal, None))
        return runs, directory

    def check(self, raw, pins):
        runs, directory = raw
        expected, seeded = self._pins(pins)
        failures: Failures = []
        counters = dict.fromkeys(
            ("scheduler.dispatches", "scheduler.reclaims", "scheduler.respawns",
             "supervisor.journal.bytes"),
            0,
        )
        counters["scheduler.workers"] = SCHEDULER_WORKERS
        ops = 0
        try:
            for plan, report, journal, error in runs:
                ops += len(plan.cells)
                if error is not None:
                    failures += [f"campaign {plan.panel}: {error}"] * len(plan.cells)
                    continue
                for result in report.results:
                    cell = result.spec.cell_id()
                    if not result.ok:
                        failures.append(f"campaign {cell}: quarantined {result.classification}")
                        continue
                    _fail(failures, f"campaign {cell}",
                          _mismatches({"value": result.value}, expected.get(cell)))
                data = journal.path.read_bytes()
                if self.seed == DEFAULT_SEED:
                    digest = {"sha256": hashlib.sha256(data).hexdigest()}
                    _fail(failures, f"campaign journal {plan.panel}",
                          _mismatches(digest, seeded.get(plan.panel)))
                counters["scheduler.dispatches"] += report.stats.dispatches
                counters["scheduler.reclaims"] += report.stats.reclaims
                counters["scheduler.respawns"] += report.stats.respawns
                counters["supervisor.journal.bytes"] += len(data)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return ops, failures, counters

    def record(self, raw):
        runs, directory = raw
        entry = {
            "ops": {
                result.spec.cell_id(): {"value": result.value}
                for _, report, _, _ in runs
                for result in report.results
            },
            "seed0": {
                plan.panel: {"sha256": hashlib.sha256(journal.path.read_bytes()).hexdigest()}
                for plan, _, journal, _ in runs
            },
        }
        shutil.rmtree(directory, ignore_errors=True)
        return entry


def _certify_problems() -> List[Tuple[str, Any, int]]:
    """The CLI ``certify --catalog`` specs, at depths where every walk
    finishes below the universe cap (2-coloring at depth 4 would take 20 s)."""
    return [
        ("trivial", catalog.trivial(3), 4),
        ("consensus", catalog.consensus(3), 4),
        ("input-copy", catalog.input_copy(3), 4),
        ("echo", catalog.echo(3), 4),
        ("echo2", catalog.echo2(), 4),
        ("sinkless", catalog.sinkless_orientation(3), 4),
        ("matching", catalog.maximal_matching(3), 2),
        ("2-coloring", catalog.two_coloring(2), 3),
    ]


#: Catalog problems left out because one walk of theirs costs more than a
#: process's share of a run (see NOTES.md for the measured times).
D3_EXCLUDED = ("4-coloring",)
D4_EXCLUDED = ("5-coloring", "7-edge-coloring", "weak-2-coloring")


def build(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it for the smoke tests."""
    if name == "classify-d3":
        problems = [p for p in catalog.standard_catalog(3) if p.name not in D3_EXCLUDED]
        if tiny:
            problems = [p for p in problems if p.name in ("trivial", "echo", "mis")]
        return Classify(name, [(p, 1) for p in problems], budgeted=True)
    if name == "classify-d4":
        problems = [p for p in catalog.standard_catalog(4) if p.name not in D4_EXCLUDED]
        if tiny:
            problems = [p for p in problems if p.name in ("trivial", "maximal-matching")]
        return Classify(name, [(p, 1) for p in problems], budgeted=False)
    if name == "certify-deep":
        problems = _certify_problems()
        if tiny:
            problems = [item for item in problems if item[0] in ("trivial", "echo", "sinkless")]
        return Certify(problems, trials=1 if tiny else 3)
    if name == "campaign":
        return Campaign(measurements.MEASURED_PANELS, points=1 if tiny else 4)
    raise KeyError(name)
