"""Supervised campaign execution: retries, quarantine, journal, resume.

:func:`run_campaign` is the production posture for landscape sweeps: a
campaign over many ``(problem, n, seed)`` cells survives any single
cell hanging, OOMing, or raising.  Each cell is attempted up to
``1 + retries`` times (every attempt re-derives its RNG from scratch —
:func:`repro.supervisor.cells.cell_rng` — so a retried cell is
bit-identical to a first-try cell), and a cell that still fails becomes
a ``QUARANTINED`` :class:`~repro.supervisor.cells.CellResult` carrying
its captured traceback and fault classification instead of aborting
the sweep.

Serial :func:`run_campaign` is the campaign engine
(:mod:`repro.scheduler.engine`) on one persistent worker process
(``isolation="process"``) or on none (``"inline"``: attempts run in the
calling process).  Either way the cells run one at a time in campaign
order, every attempt of a cell before the next cell.

With a journal attached, every terminal cell result is journaled —
checksummed, flushed, fsynced — before the next cell starts, and
``resume=True`` skips journaled cells entirely, restoring their
recorded values bit-identically.  Interrupting a campaign (crash,
``SIGINT``) therefore loses at most the in-flight cell.

Fault-injection counters (``sim_crash`` / ``sim_hang`` / ``sim_oom``)
are drawn in this process, per attempt, keeping chaos runs
deterministic; ``journal_torn`` fires inside the journal writer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.exceptions import SupervisorError
from repro.supervisor.backoff import BackoffPolicy, is_transient
from repro.supervisor.cells import CellResult, CellSpec
from repro.supervisor.journal import CampaignJournal
from repro.utils import env

ENV_CELL_TIMEOUT = "REPRO_CELL_TIMEOUT"
ENV_CELL_MEM_MB = "REPRO_CELL_MEM_MB"
ENV_CELL_RETRIES = "REPRO_CELL_RETRIES"

#: Isolation modes.
ISOLATE_PROCESS = "process"
ISOLATE_INLINE = "inline"


@dataclass(frozen=True)
class CampaignConfig:
    """Supervision parameters for one campaign run.

    ``None`` fields fall back to the ``REPRO_CELL_*`` environment knobs
    at resolution time.  The configuration shapes *supervision only* —
    timeouts, memory caps, retries, isolation — never cell values, so a
    campaign resumed under a different configuration still restores
    bit-identical results.
    """

    seed: int = 0
    timeout: Optional[float] = None
    mem_mb: Optional[int] = None
    retries: Optional[int] = None
    isolation: str = ISOLATE_PROCESS
    #: Retry backoff shape; ``None`` fields fall back to the
    #: ``REPRO_SCHED_BACKOFF_*`` knobs.  Backoff shapes *when* a retry
    #: fires, never what it computes, so it is supervision (excluded
    #: from :func:`campaign_key`) — but the applied delays are recorded
    #: in each result payload for auditability.
    backoff_base: Optional[float] = None
    backoff_factor: Optional[float] = None
    backoff_max: Optional[float] = None
    backoff_jitter: Optional[float] = None

    def __post_init__(self) -> None:
        if self.isolation not in (ISOLATE_PROCESS, ISOLATE_INLINE):
            raise SupervisorError(
                f"unknown isolation mode {self.isolation!r}; "
                f"use {ISOLATE_PROCESS!r} or {ISOLATE_INLINE!r}"
            )

    def resolved_timeout(self) -> Optional[float]:
        if self.timeout is not None:
            return self.timeout
        return env.get_float(ENV_CELL_TIMEOUT)

    def resolved_mem_mb(self) -> Optional[int]:
        if self.mem_mb is not None:
            return self.mem_mb
        return env.get_int(ENV_CELL_MEM_MB)

    def resolved_retries(self) -> int:
        if self.retries is not None:
            return max(0, self.retries)
        declared = env.get_int(ENV_CELL_RETRIES)
        return max(0, declared if declared is not None else 1)

    def resolved_backoff(self) -> BackoffPolicy:
        return BackoffPolicy.resolved(
            base=self.backoff_base,
            factor=self.backoff_factor,
            max_delay=self.backoff_max,
            jitter=self.backoff_jitter,
        )


@dataclass
class CampaignReport:
    """Every cell's terminal result, in campaign order."""

    results: List[CellResult] = field(default_factory=list)

    @property
    def ok_results(self) -> List[CellResult]:
        return [result for result in self.results if result.ok]

    @property
    def quarantined(self) -> List[CellResult]:
        return [result for result in self.results if result.quarantined]

    @property
    def resumed_count(self) -> int:
        return sum(1 for result in self.results if result.resumed)

    def by_id(self) -> Dict[str, CellResult]:
        return {result.spec.cell_id(): result for result in self.results}

    def values(self) -> Dict[str, Any]:
        """``cell_id -> value`` for the OK cells (the comparable core)."""
        return {result.spec.cell_id(): result.value for result in self.ok_results}

    def summary(self) -> str:
        return (
            f"{len(self.results)} cell(s): {len(self.ok_results)} ok "
            f"({self.resumed_count} resumed), {len(self.quarantined)} quarantined"
        )


def campaign_key(cells: Sequence[CellSpec], seed: int) -> Dict[str, Any]:
    """The journal identity of a campaign: its work, not its supervision.

    Timeouts/retries/isolation are excluded on purpose — re-running an
    interrupted campaign with a longer timeout must find its journal.
    """
    return {"seed": seed, "cells": sorted(spec.cell_id() for spec in cells)}


def open_journal(
    cells: Sequence[CellSpec],
    seed: int = 0,
    directory: Optional[Union[str, os.PathLike]] = None,
) -> CampaignJournal:
    """The journal for this campaign under ``directory`` (or
    ``$REPRO_JOURNAL_DIR``)."""
    return CampaignJournal(campaign_key(cells, seed), directory=directory)


def verify_resume_key(
    journal: CampaignJournal, cells: Sequence[CellSpec], seed: int
) -> None:
    """Refuse to resume from a journal recorded for different work.

    A journal opened via :func:`open_journal` always matches by
    construction, but a hand-constructed :class:`CampaignJournal` (or a
    caller who edited the cell grid or seed after opening one) would
    otherwise silently skip nothing and recompute everything — or
    worse, mix records.  Mismatch is caller confusion, not damage, so
    it raises loudly instead of degrading.
    """
    expected = campaign_key(cells, seed)
    if journal.campaign_key != expected:
        raise SupervisorError(
            f"journal {journal.path.name} was recorded for a different "
            f"campaign (seed/cell grid mismatch); refusing to resume. "
            f"Journal key: {journal.campaign_key!r}; current: {expected!r}"
        )


def retry_delay(
    policy: BackoffPolicy, seed: int, cell_id: str, attempt: int, classification: str
) -> float:
    """The backoff before retrying ``cell_id`` after failed attempt
    ``attempt`` (0-based): the policy's deterministic delay for
    transient failures, ``0.0`` for permanent (``error``) ones, which
    will recur no matter how long we wait."""
    if not is_transient(classification):
        return 0.0
    return policy.delay(seed, cell_id, attempt)


def run_campaign(
    cells: Sequence[CellSpec],
    config: Optional[CampaignConfig] = None,
    journal: Optional[CampaignJournal] = None,
    resume: bool = False,
) -> CampaignReport:
    """Run every cell to a terminal result; never abort the sweep.

    With ``resume=True`` (requires a journal), cells already recorded in
    the journal are restored — values bit-identical, no recomputation —
    and only the remainder runs.  ``KeyboardInterrupt`` is deliberately
    *not* swallowed: every completed cell is already journaled, so an
    interrupt costs at most the in-flight cell and the campaign resumes
    from the journal.  The report is the engine's
    :class:`~repro.scheduler.engine.SchedulerReport`, whose ``stats``
    count dispatches, reclaims and worker deaths.
    """
    # Imported at call time: the engine builds on this module's types.
    from repro.scheduler.engine import SchedulerConfig, run_engine

    config = config if config is not None else CampaignConfig()
    workers = 0 if config.isolation == ISOLATE_INLINE else 1
    return run_engine(
        cells, config, SchedulerConfig(), workers, journal=journal, resume=resume
    )
