"""Deterministic, seedable fault injection for the round-elimination engine.

The robustness layer (cache corruption recovery, which also guards
resumed sequence walks; campaign supervision and scheduling) is only
trustworthy if it is *exercised*: this module lets tests — and the CI chaos job — inject
controlled failures at every recovery boundary and then assert that
results are bit-identical to a clean serial run.

Faults are configured by the ``REPRO_FAULTS`` environment variable (or
programmatically via :func:`configure_faults`) as a comma-separated list
of ``kind:rate`` pairs::

    REPRO_FAULTS=cache_corrupt:0.02,sim_crash:0.1
    REPRO_FAULTS_SEED=7

Supported kinds
---------------
``cache_corrupt``
    A disk read in :mod:`repro.utils.cache` returns truncated bytes
    (exercises the poisoned-entry path: delete, count, recompute).
``sim_crash``
    A supervised simulation cell raises :class:`InjectedFault` mid-run
    (exercises the supervisor's capture-traceback / retry / quarantine
    path in :mod:`repro.supervisor`).
``sim_hang``
    A supervised simulation cell stalls indefinitely (exercises the
    per-cell wall-clock timeout and kill path).
``sim_oom``
    A supervised simulation cell fails allocation (``MemoryError``), as
    under a tight ``resource.setrlimit`` cap (exercises the ``oom``
    quarantine classification).
``journal_torn``
    A campaign-journal append persists a torn (truncated) line, as if
    the process died mid-write (exercises per-line checksum recovery on
    resume: the damaged cell is recomputed, later lines still load).
``adversarial_ids``
    :func:`repro.graphs.ids.random_ids` silently returns a worst-case
    (adversarially ordered) assignment instead of a random one
    (exercises the Definition 2.1 stance that identifier assignment is
    adversarial: algorithms must stay *correct*, though measured
    localities may legitimately shift).
``worker_abort``
    A scheduler worker process SIGKILLs itself mid-lease, after
    accepting a cell but before completing it (exercises lease expiry
    detection, reclamation, worker respawn, and re-dispatch in
    :mod:`repro.scheduler`).
``heartbeat_stall``
    A scheduler worker stops heartbeating *and* stalls its cell — a
    silent hang rather than a crash (exercises the lease-deadline kill
    path and at-least-once re-dispatch).
``duplicate_completion``
    A scheduler worker reports — and journals — the same completed cell
    twice (exercises dedup by cell id with the bit-identical assertion
    in the scheduler and the shard merge).

Determinism
-----------
Every decision is a pure function of ``(seed, kind, per-kind counter)``
via SHA-256, so a given configuration fires the same faults at the same
injection points on every run — no global RNG state is consumed.  The
process-crossing kinds (:data:`SIM_KINDS`, :data:`SCHED_KINDS`) are drawn
in the parent and shipped to children as instructions, so chaos runs are
reproducible regardless of how many processes take part.
"""

from __future__ import annotations

import logging
import time
from hashlib import sha256
from typing import Dict, Optional, Tuple, Union

from repro.utils import env

logger = logging.getLogger(__name__)

_ENV_FAULTS = "REPRO_FAULTS"
_ENV_SEED = "REPRO_FAULTS_SEED"

#: Recognized fault kinds (unknown kinds in a spec are rejected loudly).
KINDS = (
    "cache_corrupt",
    "sim_crash",
    "sim_hang",
    "sim_oom",
    "journal_torn",
    "adversarial_ids",
    "worker_abort",
    "heartbeat_stall",
    "duplicate_completion",
)

#: Simulator-level fault kinds decided by the campaign engine (the
#: parent process draws from the plan and ships the instruction to the
#: cell's attempt, keeping the occurrence counters in one process).
SIM_KINDS = ("sim_crash", "sim_hang", "sim_oom")

#: Scheduler-level fault kinds decided by the scheduler parent at
#: dispatch time and shipped to the worker as instructions (same
#: one-process counter discipline as :data:`SIM_KINDS`).
SCHED_KINDS = ("worker_abort", "heartbeat_stall", "duplicate_completion")

#: How long a ``sim_hang`` fault stalls a cell — far beyond any sane
#: per-cell timeout, so the supervisor's kill path always fires first.
SIM_HANG_SECONDS = 3600.0

#: How long a ``heartbeat_stall`` fault silences a worker — far beyond
#: any sane lease deadline, so the scheduler's reclaim path always
#: fires first.
HEARTBEAT_STALL_SECONDS = 3600.0


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness."""

    def __init__(self, kind: str, occurrence: int):
        super().__init__(f"injected fault {kind!r} (occurrence {occurrence})")
        self.kind = kind
        self.occurrence = occurrence

    def __reduce__(self):
        # An exception crossing a process boundary is pickled; the
        # default reduction replays only the message and cannot rebuild
        # this signature.
        return (type(self), (self.kind, self.occurrence))


def parse_spec(text: str) -> Dict[str, float]:
    """Parse ``kind:rate,kind:rate`` into a rate table (strict)."""
    rates: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, raw_rate = part.partition(":")
        kind = kind.strip()
        if kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; known: {', '.join(KINDS)}"
            )
        try:
            rate = float(raw_rate)
        except ValueError:
            raise ValueError(f"bad fault rate for {kind!r}: {raw_rate!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate for {kind!r} must be in [0, 1], got {rate}")
        rates[kind] = rate
    return rates


class FaultPlan:
    """A seeded rate table plus per-kind occurrence counters."""

    def __init__(self, rates: Dict[str, float], seed: int = 0):
        self.rates = dict(rates)
        self.seed = int(seed)
        self._counts: Dict[str, int] = {kind: 0 for kind in self.rates}

    @property
    def active(self) -> bool:
        return any(rate > 0 for rate in self.rates.values())

    def fire(self, kind: str) -> bool:
        """Deterministically decide whether occurrence ``n`` of ``kind``
        fires; advances the per-kind counter either way."""
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        n = self._counts.get(kind, 0)
        self._counts[kind] = n + 1
        digest = sha256(f"{self.seed}\x00{kind}\x00{n}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < rate


# ------------------------------------------------------------------ global API
_plan: Optional[FaultPlan] = None


def _build_from_env() -> FaultPlan:
    spec = env.get_str(_ENV_FAULTS) or ""
    try:
        rates = parse_spec(spec) if spec else {}
    except ValueError as error:
        raise ValueError(f"invalid {_ENV_FAULTS}: {error}") from error
    seed = env.get_int(_ENV_SEED) or 0
    return FaultPlan(rates, seed=seed)


def get_plan() -> FaultPlan:
    """The process-wide fault plan (built lazily from the environment)."""
    global _plan
    if _plan is None:
        _plan = _build_from_env()
        if _plan.active:
            logger.warning("fault injection active: %s", _plan.rates)
    return _plan


def configure_faults(
    spec: Union[None, str, Dict[str, float]] = None, seed: int = 0
) -> FaultPlan:
    """Install a fault plan programmatically (``None`` disables faults)."""
    global _plan
    if spec is None:
        rates: Dict[str, float] = {}
    elif isinstance(spec, str):
        rates = parse_spec(spec)
    else:
        for kind in spec:
            if kind not in KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        rates = dict(spec)
    _plan = FaultPlan(rates, seed=seed)
    if _plan.active:
        logger.warning("fault injection configured: %s", _plan.rates)
    return _plan


def reset_faults() -> None:
    """Forget the plan so the next use rebuilds from the environment."""
    global _plan
    _plan = None


# ------------------------------------------------------------ injection points
def execute_sim_fault(kind: str, occurrence: int = 0) -> None:
    """Carry out a simulator-level fault *instruction* inside a cell.

    This does not consult the plan: the campaign engine draws from the
    plan in the parent process (keeping the occurrence counters
    deterministic in one place) and ships the fired kinds to the cell's
    attempt, which executes them here.

    ``sim_crash`` raises :class:`InjectedFault`; ``sim_hang`` stalls for
    :data:`SIM_HANG_SECONDS` (the engine kills the cell's worker at the
    cell timeout long before that); ``sim_oom`` raises ``MemoryError`` as a tight
    ``resource.setrlimit`` cap would on the next allocation.
    """
    if kind == "sim_crash":
        raise InjectedFault(kind, occurrence)
    if kind == "sim_hang":
        logger.warning("injected sim_hang: stalling cell")
        time.sleep(SIM_HANG_SECONDS)
        return
    if kind == "sim_oom":
        raise MemoryError(f"injected fault 'sim_oom' (occurrence {occurrence})")
    raise ValueError(f"not a simulator-level fault kind: {kind!r}")


def fire_sim_faults(plan: Optional[FaultPlan] = None) -> Tuple[str, ...]:
    """The simulator-level kinds whose next occurrence fires, in
    :data:`SIM_KINDS` order — the supervisor's per-attempt draw."""
    plan = plan if plan is not None else get_plan()
    return tuple(kind for kind in SIM_KINDS if plan.fire(kind))


def fire_sched_faults(plan: Optional[FaultPlan] = None) -> Tuple[str, ...]:
    """The scheduler-level kinds whose next occurrence fires, in
    :data:`SCHED_KINDS` order — the scheduler's per-dispatch draw.

    Drawn in the scheduler parent (which owns the occurrence counters)
    and shipped to the worker as instructions, so a chaos run fires the
    same faults at the same dispatches regardless of worker count."""
    plan = plan if plan is not None else get_plan()
    return tuple(kind for kind in SCHED_KINDS if plan.fire(kind))


def maybe_adversarial_ids() -> bool:
    """Whether the next identifier assignment should be adversarial."""
    return get_plan().fire("adversarial_ids")


def corrupt_text(kind: str, text: str) -> str:
    """Return ``text`` truncated when the next occurrence of ``kind``
    fires — used to simulate torn writes and bit-rot on reads."""
    plan = get_plan()
    if plan.fire(kind):
        logger.warning("injecting %s: truncating %d-byte payload", kind, len(text))
        return text[: len(text) // 2]
    return text
