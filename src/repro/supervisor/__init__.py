"""Supervised, crash-isolated simulation campaigns.

The measurement half of the reproduction — landscape sweeps over the
problem catalog, the ``benchmarks/`` campaigns — runs many independent
``(problem, n, seed)`` cells, any one of which can hang, OOM, or raise.
This package makes the *pipeline* as fault-tolerant as the
round-elimination engine underneath it:

* :mod:`repro.supervisor.cells` — cell specs/results, the quarantine
  taxonomy, and the named cell-runner registry;
* :mod:`repro.supervisor.isolation` — the cell attempt body, run inside
  a persistent scheduler worker (the isolation boundary: one
  ``resource.setrlimit`` memory cap per worker, a worker kill at the
  cell timeout) or inline;
* :mod:`repro.supervisor.journal` — the append-only, checksummed JSONL
  run journal (torn lines degrade to recomputation, never to a wrong
  resume);
* :mod:`repro.supervisor.campaign` — :func:`run_campaign`, the serial
  campaign: the campaign engine (:mod:`repro.scheduler.engine`) on one
  worker or inline, with bounded deterministic retries, structured
  quarantine and journaled resume;
* :mod:`repro.supervisor.measurements` — the landscape panels as
  campaign plans (``lcl-landscape landscape --journal/--resume``);
* :mod:`repro.supervisor.runners` — the built-in landscape cell runners
  and the simulators they import.

The chaos contract (enforced by ``tests/test_supervisor_chaos.py`` and
the CI chaos job): a campaign run under injected ``sim_crash`` /
``sim_hang`` / ``journal_torn`` faults, interrupted and resumed via the
journal, yields per-cell results **bit-identical** to a clean serial
run, with every unrecoverable cell surfaced as a ``QUARANTINED`` row.
"""

from repro.supervisor.campaign import (
    CampaignConfig,
    CampaignReport,
    campaign_key,
    open_journal,
    run_campaign,
)
from repro.supervisor.cells import (
    CLASSIFICATIONS,
    STATUS_OK,
    STATUS_QUARANTINED,
    CellResult,
    CellSpec,
    cell_rng,
    register_runner,
    resolve_runner,
)
from repro.supervisor.journal import CampaignJournal, default_journal_dir

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CampaignJournal",
    "CellResult",
    "CellSpec",
    "CLASSIFICATIONS",
    "STATUS_OK",
    "STATUS_QUARANTINED",
    "campaign_key",
    "cell_rng",
    "default_journal_dir",
    "open_journal",
    "register_runner",
    "resolve_runner",
    "run_campaign",
]
