"""The campaign engine: lease-based workers with crash recovery.

Every supervised campaign (:mod:`repro.supervisor`) runs on this one
engine.  :func:`run_scheduled_campaign` runs it across N concurrent
persistent worker processes; serial
:func:`~repro.supervisor.campaign.run_campaign` is the same engine on one
worker, or on none (inline).  The headline contract holds at every
width: the final journal and report are **byte-identical** to an
undisturbed serial run of the same cells and seed — even while workers
crash, hang, stall their heartbeats, or double-complete cells.

The moving parts:

* :mod:`repro.scheduler.queue` — a task queue sharded by canonical
  cell id, with not-before times so retry backoff never blocks a
  worker, and failed or reclaimed cells back at the head of their shard;
  it dispatches in push order, which the engine makes largest cell
  first on two or more workers and campaign order otherwise;
* :mod:`repro.scheduler.leases` — lease records with deadlines renewed
  by worker heartbeats; an expired lease means a dead or stalled
  worker, and its cell is reclaimed and re-dispatched;
* :mod:`repro.scheduler.worker` — the worker process and the campaign's
  only isolation boundary: one memory cap per worker, one cell attempt
  at a time inside the worker process, each completion journaled to its
  own shard *before* it is reported;
* :mod:`repro.scheduler.engine` — the parent event loop: timeouts,
  worker deaths, reclaims, retries, merge and finalize.

Use :func:`run_scheduled_campaign` exactly like ``run_campaign``; the
extra :class:`SchedulerConfig` shapes concurrency only, never results.
"""

from repro.scheduler.engine import (
    SchedulerConfig,
    SchedulerReport,
    SchedulerStats,
    run_scheduled_campaign,
)

__all__ = [
    "SchedulerConfig",
    "SchedulerReport",
    "SchedulerStats",
    "run_scheduled_campaign",
]
