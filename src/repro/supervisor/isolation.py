"""Cell attempts: the one body every campaign attempt runs.

A campaign attempt runs in one of two places, both driven by the
campaign engine (:mod:`repro.scheduler.engine`):

* **in a worker** (:func:`run_attempt_process`) — the persistent
  scheduler worker (:mod:`repro.scheduler.worker`) is the isolation
  boundary.  It applies the optional ``resource.setrlimit`` address-space
  cap (:func:`apply_memory_cap`) once when it starts and then runs every
  attempt inside the worker process, one after another.  The engine
  enforces the wall-clock timeout by killing the worker, and classifies
  a worker that dies while running a cell from its exit code
  (``signal`` for a signal death, ``lost`` otherwise), so a hung,
  crashing or memory-hungry simulation costs one attempt, never the
  campaign;
* **inline** (:func:`run_attempt_inline`) — in the calling process, the
  clean-serial baseline and the fast path for trusted local runs.
  Inline cells skip ``sim_hang`` instructions (there is no kill path to
  rescue the process) but honor ``sim_crash`` and ``sim_oom``.

Simulator-level fault *instructions* are decided by the engine
(:func:`repro.utils.faults.fire_sim_faults`) and executed here
(:func:`repro.utils.faults.execute_sim_fault`), which keeps the
deterministic occurrence counters in a single process.
"""

from __future__ import annotations

import logging
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.supervisor.cells import CellSpec, cell_rng, resolve_runner

logger = logging.getLogger(__name__)


@dataclass
class AttemptOutcome:
    """What one attempt of one cell produced."""

    ok: bool
    value: Any = None
    classification: str = ""
    reason: str = ""
    traceback: str = ""


def apply_memory_cap(mem_mb: Optional[int]) -> None:
    """Cap this process's address space at ``mem_mb`` MiB (no-op for
    ``None``): an allocation past the cap raises ``MemoryError``."""
    if mem_mb is None:
        return
    try:
        import resource

        limit = int(mem_mb) * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ImportError, ValueError, OSError) as error:  # pragma: no cover
        logger.warning("could not apply %d MiB memory cap: %s", mem_mb, error)


def _execute(
    spec: CellSpec,
    campaign_seed: int,
    instructions: Sequence[str],
) -> AttemptOutcome:
    """Run the cell body; shared by the worker and inline attempts."""
    from repro.utils import faults

    try:
        for index, kind in enumerate(instructions):
            faults.execute_sim_fault(kind, index)
        runner = resolve_runner(spec.runner)
        value = runner(spec, cell_rng(campaign_seed, spec))
        return AttemptOutcome(ok=True, value=value)
    except MemoryError as error:
        return AttemptOutcome(
            ok=False,
            classification="oom",
            reason=f"MemoryError: {error}",
            traceback=traceback_module.format_exc(),
        )
    except Exception as error:
        return AttemptOutcome(
            ok=False,
            classification="error",
            reason=f"{type(error).__name__}: {error}",
            traceback=traceback_module.format_exc(),
        )


def run_attempt_inline(
    spec: CellSpec,
    campaign_seed: int,
    instructions: Sequence[str] = (),
) -> AttemptOutcome:
    """Run one attempt in-process (clean-serial baseline / fast path)."""
    effective = []
    for kind in instructions:
        if kind == "sim_hang":
            logger.warning(
                "inline cell %s: skipping sim_hang instruction (no kill path)",
                spec.cell_id(),
            )
            continue
        effective.append(kind)
    return _execute(spec, campaign_seed, effective)


def run_attempt_process(
    spec: CellSpec,
    campaign_seed: int,
    instructions: Sequence[str] = (),
) -> AttemptOutcome:
    """Run one attempt inside a scheduler worker, executing every
    instruction: a ``sim_hang`` stalls until the engine kills the worker
    at the cell timeout."""
    try:
        return _execute(spec, campaign_seed, instructions)
    except MemoryError:
        # Allocation failed even while *building* the failure record:
        # report the bare minimum.
        return AttemptOutcome(ok=False, classification="oom", reason="MemoryError")
