"""Cell specifications, results, and the cell-runner registry.

A landscape or benchmark *campaign* is a grid of independent simulation
**cells** — one ``(runner, problem, n, seed)`` measurement each.  Cells
are the supervisor's unit of isolation, retry, journaling, and
quarantine: a cell either produces a JSON-serializable value
(``status == OK``) or a structured failure record (``status ==
QUARANTINED``) carrying its captured traceback and fault
classification.  Campaigns never see raw exceptions.

Runners are plain module-level functions registered by name
(:func:`register_runner`), so a cell can be described by data alone and
re-resolved inside a scheduler worker process — nothing in a
:class:`CellSpec` needs to be picklable beyond primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.exceptions import SupervisorError
from repro.utils.rng import SplittableRNG

#: Terminal cell statuses.
STATUS_OK = "OK"
STATUS_QUARANTINED = "QUARANTINED"

#: Quarantine fault taxonomy (every quarantined cell carries one):
#:
#: ``error``
#:     the cell raised — the traceback is attached;
#: ``timeout``
#:     the cell exceeded its wall-clock cap and was killed;
#: ``oom``
#:     the cell exhausted its memory cap (``MemoryError`` under the
#:     ``resource.setrlimit`` address-space limit, or an injected
#:     ``sim_oom``);
#: ``signal``
#:     the worker died on a signal (segfault, OOM-killer) while running
#:     the cell;
#: ``lost``
#:     the worker died while running the cell for any other reason (a
#:     hard ``os._exit``), or was lost more often than the engine's
#:     reclaim bound allows.
CLASSIFICATIONS = ("error", "timeout", "oom", "signal", "lost")

#: A cell runner: ``(spec, rng) -> JSON-serializable value``.
CellRunner = Callable[["CellSpec", SplittableRNG], Any]

_RUNNERS: Dict[str, CellRunner] = {}


def register_runner(name: str) -> Callable[[CellRunner], CellRunner]:
    """Register a module-level function as a named cell runner."""

    def decorate(fn: CellRunner) -> CellRunner:
        existing = _RUNNERS.get(name)
        if existing is not None and existing is not fn:
            raise SupervisorError(f"cell runner {name!r} registered twice")
        _RUNNERS[name] = fn
        return fn

    return decorate


def resolve_runner(name: str) -> CellRunner:
    """Look up a registered runner (importing the built-in landscape
    runners on first use, so journal-driven resumes work from a cold
    interpreter)."""
    if name not in _RUNNERS:
        from repro.supervisor import runners  # noqa: F401  (registers)
    runner = _RUNNERS.get(name)
    if runner is None:
        known = ", ".join(sorted(_RUNNERS))
        raise SupervisorError(f"unknown cell runner {name!r}; known: {known}")
    return runner


@dataclass(frozen=True)
class CellSpec:
    """One supervised unit of work: a single ``(problem, n, seed)`` cell."""

    runner: str
    problem: str
    n: int
    seed: int
    #: Extra runner parameters, kept sorted for a canonical identity.
    params: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(
        runner: str,
        problem: str,
        n: int,
        seed: int,
        params: Optional[Mapping[str, Any]] = None,
    ) -> "CellSpec":
        items = tuple(sorted((params or {}).items()))
        return CellSpec(runner=runner, problem=problem, n=n, seed=seed, params=items)

    def cell_id(self) -> str:
        """Canonical identity used for journaling and RNG derivation."""
        extra = "".join(f",{key}={value!r}" for key, value in self.params)
        return f"{self.runner}:{self.problem}:n={self.n}:seed={self.seed}{extra}"

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def payload(self) -> Dict[str, Any]:
        return {
            "runner": self.runner,
            "problem": self.problem,
            "n": self.n,
            "seed": self.seed,
            "params": [[key, value] for key, value in self.params],
        }

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "CellSpec":
        return CellSpec(
            runner=str(payload["runner"]),
            problem=str(payload["problem"]),
            n=int(payload["n"]),
            seed=int(payload["seed"]),
            params=tuple((str(k), v) for k, v in payload.get("params", [])),
        )


@dataclass
class CellResult:
    """Terminal outcome of one supervised cell."""

    spec: CellSpec
    status: str
    value: Any = None
    attempts: int = 1
    classification: str = ""
    reason: str = ""
    traceback: str = ""
    #: Backoff delays (seconds) applied before each retry attempt, in
    #: attempt order — deterministic, so replays stay auditable.
    delays: Tuple[float, ...] = ()
    #: Whether this result was restored from a journal rather than run.
    resumed: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def quarantined(self) -> bool:
        return self.status == STATUS_QUARANTINED

    def payload(self) -> Dict[str, Any]:
        return {
            "cell": self.spec.cell_id(),
            "spec": self.spec.payload(),
            "status": self.status,
            "value": self.value,
            "attempts": self.attempts,
            "classification": self.classification,
            "reason": self.reason,
            "traceback": self.traceback,
            "delays": list(self.delays),
        }

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "CellResult":
        return CellResult(
            spec=CellSpec.from_payload(payload["spec"]),
            status=str(payload["status"]),
            value=payload.get("value"),
            attempts=int(payload.get("attempts", 1)),
            classification=str(payload.get("classification", "")),
            reason=str(payload.get("reason", "")),
            traceback=str(payload.get("traceback", "")),
            delays=tuple(float(d) for d in payload.get("delays", [])),
            resumed=True,
        )


def cell_rng(campaign_seed: int, spec: CellSpec) -> SplittableRNG:
    """The cell's RNG, a pure function of ``(campaign seed, cell id)``.

    Rebuilt from scratch for *every* attempt — the SplittableRNG
    discipline: no generator state survives a crashed attempt, so a
    retried cell is bit-identical to a first-try cell, which is what
    makes faulty-run-plus-resume comparable to a clean serial run.
    """
    return SplittableRNG(campaign_seed).child("cell", spec.cell_id())
