"""The campaign engine: dispatch, leases, recovery, merge, finalize.

One engine runs every supervised campaign.  :func:`run_scheduled_campaign`
runs it on N persistent worker processes; serial
:func:`repro.supervisor.campaign.run_campaign` is its one-worker case
(``isolation="process"``) or its zero-worker case (``"inline"``: attempts
run in the calling process).  The contract is the same at every width —
every cell reaches a terminal result; failures are quarantined, never
raised:

* cells are dispatched from a queue sharded by canonical cell id, one
  in-flight cell per worker, each under a heartbeat-renewed **lease**;
  two or more workers take the largest ``spec.n`` first, one worker and
  the inline case keep campaign order (see :mod:`repro.scheduler.queue`);
* every runner of the campaign is resolved in the parent before the
  first fork (:func:`preload_runners`), so workers inherit the
  simulators loaded rather than importing them per panel;
* the worker is the isolation boundary: it reports ``started`` just
  before the cell body runs, the engine kills a worker whose started
  cell passes the cell timeout (``timeout``), and a worker that dies on
  its own after ``started`` is classified from its exit code
  (``signal`` / ``lost``) — each of these is a failed cell attempt;
* a worker lost *before* ``started``, or whose lease expires, is a
  worker-level loss: the cell is **reclaimed** and re-dispatched
  (at-least-once execution) without consuming one of its retries;
* failed attempts are retried with deterministic seeded backoff
  (:func:`repro.supervisor.campaign.retry_delay`), realized as
  ``not_before`` dispatch times; the retried cell holds the head of its
  shard, so with one shard every attempt — and every per-dispatch fault
  draw — happens in serial order;
* **duplicate completions** (an expected consequence of at-least-once
  execution, and an injectable chaos kind) are deduplicated by cell
  id; the discarded copy is asserted bit-identical to the kept one —
  a divergence means a nondeterministic cell runner and raises
  :class:`~repro.exceptions.SchedulerError`;
* workers journal completions to per-worker **shards** before
  reporting them; on resume the shards are merged into the canonical
  journal, and when the campaign finishes the journal is atomically
  rewritten into canonical campaign order — byte-identical to the
  journal of an undisturbed serial run.  The zero-worker case appends
  each terminal result straight to the canonical journal instead (no
  shards, no rewrite);
* ``SIGTERM`` / ``KeyboardInterrupt`` trigger a graceful **drain**:
  no new dispatches, a bounded wait for in-flight cells, shard merge,
  then the interrupt propagates; a resumed run loses nothing that was
  completed.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.exceptions import SchedulerError, SchedulerHalted, SupervisorError
from repro.scheduler import worker as worker_module
from repro.scheduler.leases import LeaseTable
from repro.scheduler.queue import ShardedTaskQueue, Task
from repro.supervisor.campaign import (
    CampaignConfig,
    CampaignReport,
    retry_delay,
    verify_resume_key,
)
from repro.supervisor.cells import (
    STATUS_OK,
    STATUS_QUARANTINED,
    CellResult,
    CellSpec,
    resolve_runner,
)
from repro.supervisor.isolation import run_attempt_inline
from repro.supervisor.journal import CampaignJournal, load_cell_records
from repro.utils import env, faults

logger = logging.getLogger(__name__)

ENV_SCHED_WORKERS = "REPRO_SCHED_WORKERS"
ENV_SCHED_LEASE_SECS = "REPRO_SCHED_LEASE_SECS"

#: Event-loop tick: the upper bound on how stale the engine's view of
#: worker deaths and lease expiries can be.
_TICK_SECONDS = 0.02

#: Grace period for a terminated worker before escalating to SIGKILL.
_TERMINATE_GRACE_SECONDS = 1.0


def usable_cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one (CPU pinning, cgroup cpusets), else every CPU
    of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SchedulerConfig:
    """Concurrency parameters for one scheduled campaign.

    Shapes *scheduling only* — worker count, lease deadlines, drain
    budget — never cell values or journal contents, so the same
    campaign run under any scheduler configuration (including serial
    ``run_campaign``) produces the same results.  ``workers`` defaults
    to the ``REPRO_SCHED_WORKERS`` knob, else the usable CPUs, at most 4.
    """

    workers: Optional[int] = None
    lease_secs: Optional[float] = None
    heartbeat_secs: Optional[float] = None
    #: Worker-level losses tolerated per cell before it is quarantined
    #: as ``lost`` (guards against a cell that reliably kills workers).
    max_reclaims: int = 5
    #: How long a graceful drain waits for in-flight cells.
    drain_secs: float = 5.0

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        declared = env.get_int(ENV_SCHED_WORKERS)
        if declared is not None:
            return max(1, declared)
        return min(usable_cpu_count(), 4)

    def resolved_lease_secs(self) -> float:
        if self.lease_secs is not None:
            return self.lease_secs
        declared = env.get_float(ENV_SCHED_LEASE_SECS)
        assert declared is not None  # the knob declares a default
        return declared

    def resolved_heartbeat_secs(self) -> float:
        if self.heartbeat_secs is not None:
            return self.heartbeat_secs
        # Three beats per lease window: a single lost heartbeat never
        # expires a healthy worker's lease.
        return self.resolved_lease_secs() / 3.0


@dataclass
class SchedulerStats:
    """Operational counters for one scheduled run (diagnostics only —
    asserted by chaos tests, excluded from result comparisons)."""

    dispatches: int = 0
    reclaims: int = 0
    worker_deaths: int = 0
    expired_leases: int = 0
    respawns: int = 0
    duplicates: int = 0

    def summary(self) -> str:
        return (
            f"{self.dispatches} dispatch(es), {self.reclaims} reclaim(s) "
            f"({self.worker_deaths} worker death(s), {self.expired_leases} "
            f"expired lease(s)), {self.respawns} respawn(s), "
            f"{self.duplicates} duplicate completion(s)"
        )


@dataclass
class SchedulerReport(CampaignReport):
    """A campaign report plus the scheduler's operational counters."""

    stats: SchedulerStats = field(default_factory=SchedulerStats)


@dataclass
class _WorkerHandle:
    worker_id: int
    process: Any
    conn: multiprocessing.connection.Connection
    busy: Optional[Task] = None
    #: When the busy cell's body started (the worker's ``started``
    #: message); ``None`` until then.
    started_at: Optional[float] = None

    def alive(self) -> bool:
        return self.process.is_alive()


def preload_runners(cells: Sequence[CellSpec]) -> None:
    """Resolve every distinct runner of ``cells`` in this process, so
    the modules a runner imports are loaded before any worker forks and
    every worker (respawns included) inherits them.  A runner that does
    not resolve is left to the worker, which quarantines its cells like
    any other failed attempt: preloading never aborts a campaign."""
    for name in sorted({spec.runner for spec in cells}):
        try:
            resolve_runner(name)
        except Exception as error:
            logger.debug("runner %r not preloaded: %s", name, error)


def _payload_core(body: Dict[str, Any]) -> Dict[str, Any]:
    """A cell record body minus journal framing (``kind`` / ``schema``),
    the comparable core used for dedup assertions."""
    return {
        k: v for k, v in sorted(body.items()) if k not in ("kind", "schema")
    }


def _fresh_result(payload: Dict[str, Any]) -> CellResult:
    """A :class:`CellResult` for a payload produced *this run* (the
    ``from_payload`` constructor is for journal restores and marks
    results resumed)."""
    result = CellResult.from_payload(payload)
    result.resumed = False
    return result


class _Engine:
    """One campaign run's mutable state and event loop."""

    def __init__(
        self,
        cells: Sequence[CellSpec],
        config: CampaignConfig,
        scheduler: SchedulerConfig,
        workers: int,
        journal: Optional[CampaignJournal],
        progress: Optional[Callable[[str], None]],
        halt_after: Optional[int],
    ):
        self.cells = list(cells)
        self.config = config
        self.scheduler = scheduler
        self.journal = journal
        self.progress = progress
        self.halt_after = halt_after
        self.stats = SchedulerStats()
        # Supervision resolved once, in the parent: workers receive
        # literal values and never read (parent-scoped) knobs.
        self.timeout = config.resolved_timeout()
        self.mem_mb = config.resolved_mem_mb()
        self.retries = config.resolved_retries()
        self.policy = config.resolved_backoff()
        self.lease_secs = scheduler.resolved_lease_secs()
        self.heartbeat_secs = scheduler.resolved_heartbeat_secs()
        self.target_workers = min(workers, max(1, len(self.cells)))
        self.leases = LeaseTable(self.lease_secs)
        self.queue = ShardedTaskQueue(nshards=max(self.target_workers, 1))
        self.handles: Dict[int, _WorkerHandle] = {}
        self.next_worker_id = 0
        #: cell_id -> terminal record body (journal-ready payload).
        self.payloads: Dict[str, Dict[str, Any]] = {}
        #: cell_id -> CellResult for the report.
        self.results: Dict[str, CellResult] = {}
        self.fresh_count = 0
        self._tempdir: Optional[Any] = None
        self._context: Any
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._context = multiprocessing.get_context("spawn")

    # -- shard files ---------------------------------------------------------
    def _shard_path(self, worker_id: int) -> Path:
        if self.journal is not None:
            return self.journal.shard_path(worker_id)
        if self._tempdir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-sched-")
        return Path(self._tempdir.name) / f"shard-{worker_id:03d}.jsonl"

    def _shard_paths(self) -> List[Path]:
        if self.journal is not None:
            return self.journal.shard_paths()
        if self._tempdir is None:
            return []
        return sorted(Path(self._tempdir.name).glob("shard-*.jsonl"))

    def _delete_shards(self) -> None:
        for path in self._shard_paths():
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass

    # -- resume --------------------------------------------------------------
    def restore(self, resume: bool) -> None:
        """Load completed cells from the canonical journal and any
        leftover shards of a previous (crashed) run."""
        if self.journal is None:
            return
        if not resume:
            # Stale shards from an abandoned run must not leak into
            # this campaign's merge.
            self._delete_shards()
            self.journal.ensure_header()
            return
        completed = self.journal.completed_cells()
        merged = 0
        for path in self._shard_paths():
            for body in load_cell_records(path):
                cell_id = str(body["cell"])
                existing = completed.get(cell_id)
                if existing is None:
                    core = _payload_core(body)
                    self.journal.append_cell(core)
                    completed[cell_id] = body
                    merged += 1
                elif _payload_core(existing) != _payload_core(body):
                    raise SchedulerError(
                        f"shard {path.name} and journal disagree on cell "
                        f"{cell_id!r}: duplicate completions must be "
                        f"bit-identical (nondeterministic runner?)"
                    )
                else:
                    self.stats.duplicates += 1
        if merged:
            logger.info(
                "recovered %d completed cell(s) from %d journal shard(s)",
                merged,
                len(self._shard_paths()),
            )
        self._delete_shards()
        self.journal.ensure_header()
        known = {spec.cell_id() for spec in self.cells}
        for cell_id, body in completed.items():
            if cell_id in known:
                self.payloads[cell_id] = body
                self.results[cell_id] = CellResult.from_payload(body)
        if completed:
            logger.info(
                "journal %s: resuming %d completed cell(s)",
                self.journal.path.name,
                len(self.payloads),
            )

    # -- workers -------------------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        worker_id = self.next_worker_id
        self.next_worker_id += 1
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_module._worker_main,
            args=(
                child_conn,
                worker_id,
                self.config.seed,
                str(self._shard_path(worker_id)),
                self.mem_mb,
                self.heartbeat_secs,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(
            worker_id=worker_id, process=process, conn=parent_conn
        )
        self.handles[worker_id] = handle
        return handle

    def _stop_worker(self, handle: _WorkerHandle, kill: bool = False) -> None:
        self._request_stop(handle, kill=kill)
        self._reap_worker(handle)

    def _request_stop(self, handle: _WorkerHandle, kill: bool = False) -> None:
        self.handles.pop(handle.worker_id, None)
        if kill and handle.process.is_alive():
            handle.process.kill()
        elif handle.process.is_alive():
            try:
                handle.conn.send((worker_module.MSG_STOP,))
            except (BrokenPipeError, OSError):
                handle.process.terminate()

    def _reap_worker(self, handle: _WorkerHandle) -> None:
        """Join a stopped worker; kill it if it outlives the grace period."""
        handle.process.join(_TERMINATE_GRACE_SECONDS)
        if handle.process.is_alive():  # a stubborn worker
            handle.process.kill()
            handle.process.join()
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass

    # -- terminal results ----------------------------------------------------
    def _record_terminal(
        self, payload: Dict[str, Any], result: Optional[CellResult] = None
    ) -> None:
        cell_id = str(payload["cell"])
        self.payloads[cell_id] = payload
        self.results[cell_id] = (
            result if result is not None else _fresh_result(payload)
        )
        self.fresh_count += 1
        if self.progress is not None:
            done = len(self.payloads)
            quarantined = sum(
                1 for r in self.results.values() if r.quarantined
            )
            self.progress(
                f"[{done}/{len(self.cells)}] "
                f"ok={done - quarantined} quarantined={quarantined} "
                f"reclaims={self.stats.reclaims} "
                f"workers={len(self.handles)}"
            )
        if self.halt_after is not None and self.fresh_count >= self.halt_after:
            raise SchedulerHalted(
                f"halt_after={self.halt_after} reached with "
                f"{len(self.payloads)}/{len(self.cells)} cell(s) recorded"
            )

    def _journal_terminal(self, result: CellResult) -> None:
        """Record a terminal result produced in this process, appending
        it to the canonical journal first (workers journal their own
        completions to their shards)."""
        payload = result.payload()
        if self.journal is not None:
            self.journal.append_cell(payload)
        self._record_terminal(payload, result)

    def _quarantine(
        self, task: Task, classification: str, reason: str, traceback: str = ""
    ) -> None:
        self._journal_terminal(
            CellResult(
                spec=task.spec,
                status=STATUS_QUARANTINED,
                attempts=task.attempt + 1,
                classification=classification,
                reason=reason,
                traceback=traceback,
                delays=tuple(task.delays),
            )
        )

    def _attempt_failed(
        self, task: Task, classification: str, reason: str, traceback: str = ""
    ) -> None:
        """A cell attempt failed: retry it from the head of its shard
        after its backoff, or quarantine it once its retries are spent."""
        cell_id = task.cell_id()
        logger.warning(
            "cell %s attempt %d/%d failed (%s): %s",
            cell_id,
            task.attempt + 1,
            1 + self.retries,
            classification,
            reason,
        )
        if task.attempt >= self.retries:
            self._quarantine(task, classification, reason, traceback)
            return
        pause = retry_delay(
            self.policy, self.config.seed, cell_id, task.attempt, classification
        )
        task.delays.append(pause)
        task.attempt += 1
        self.queue.retry(task, not_before=time.monotonic() + pause)

    def _reclaim(self, task: Task, worker_id: int, why: str) -> None:
        """A worker was lost before its cell's body ran to a verdict
        (death before ``started``, expired lease): re-dispatch the cell
        without consuming one of its retries."""
        self.stats.reclaims += 1
        task.reclaims += 1
        if task.reclaims > self.scheduler.max_reclaims:
            self._quarantine(
                task,
                "lost",
                f"worker lost {task.reclaims} time(s) while running this "
                f"cell (last: {why})",
            )
            return
        logger.warning(
            "cell %s: reclaiming lease from worker %d (%s); re-dispatching",
            task.cell_id(),
            worker_id,
            why,
        )
        self.queue.retry(task, not_before=time.monotonic())

    # -- attempts ------------------------------------------------------------
    def _draw_faults(
        self, task: Task, where: str, sched: bool
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """This dispatch's fault instructions, drawn here so the
        occurrence counters live in one process."""
        sim_instructions = faults.fire_sim_faults()
        sched_instructions = faults.fire_sched_faults() if sched else ()
        if sim_instructions or sched_instructions:
            logger.warning(
                "cell %s attempt %d (%s): injecting %s",
                task.cell_id(),
                task.attempt + 1,
                where,
                ",".join(sim_instructions + sched_instructions),
            )
        return sim_instructions, sched_instructions

    def _run_inline(self) -> None:
        """The zero-worker case: every attempt runs in this process, in
        queue order, and draws no scheduler faults."""
        while len(self.payloads) < len(self.cells):
            now = time.monotonic()
            task = self.queue.pop_ready(now)
            if task is None:
                ready_at = self.queue.next_ready_at()
                time.sleep(max(0.0, (ready_at or now) - now))
                continue
            instructions, _ = self._draw_faults(task, "inline", sched=False)
            outcome = run_attempt_inline(task.spec, self.config.seed, instructions)
            if not outcome.ok:
                self._attempt_failed(
                    task, outcome.classification, outcome.reason, outcome.traceback
                )
                continue
            self._journal_terminal(
                CellResult(
                    spec=task.spec,
                    status=STATUS_OK,
                    value=outcome.value,
                    attempts=task.attempt + 1,
                    delays=tuple(task.delays),
                )
            )

    # -- message handling ----------------------------------------------------
    def _handle_message(self, handle: _WorkerHandle, message: Tuple[Any, ...]) -> None:
        tag = message[0]
        if tag == worker_module.MSG_HEARTBEAT:
            self.leases.renew_worker(message[1], time.monotonic())
        elif tag == worker_module.MSG_STARTED:
            handle.started_at = time.monotonic()
        elif tag == worker_module.MSG_DONE:
            self._handle_done(handle, message[2])
        elif tag == worker_module.MSG_FAIL:
            task, handle.busy = handle.busy, None
            if task is not None:
                self.leases.release(task.cell_id())
                self._attempt_failed(task, *message[2:])
        else:  # pragma: no cover - protocol drift guard
            raise SchedulerError(f"unknown worker message tag {tag!r}")

    def _handle_done(self, handle: _WorkerHandle, payload: Dict[str, Any]) -> None:
        cell_id = str(payload["cell"])
        self.leases.release(cell_id)
        if handle.busy is not None and handle.busy.cell_id() == cell_id:
            handle.busy = None
        existing = self.payloads.get(cell_id)
        if existing is not None:
            self.stats.duplicates += 1
            if _payload_core(existing) != _payload_core(payload):
                raise SchedulerError(
                    f"duplicate completions of cell {cell_id!r} are not "
                    f"bit-identical (nondeterministic runner?)"
                )
            logger.warning(
                "cell %s: duplicate completion deduplicated", cell_id
            )
            return
        self._record_terminal(payload)

    # -- event loop ----------------------------------------------------------
    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        for handle in list(self.handles.values()):
            if handle.busy is not None or not handle.alive():
                continue
            task = self.queue.pop_ready(now)
            if task is None:
                return
            sim_instructions, sched_instructions = self._draw_faults(
                task, f"worker {handle.worker_id}", sched=True
            )
            try:
                handle.conn.send(
                    (
                        worker_module.MSG_RUN,
                        task.spec.payload(),
                        task.attempt,
                        list(task.delays),
                        sim_instructions,
                        sched_instructions,
                    )
                )
            except (BrokenPipeError, OSError):
                # The worker died between liveness check and send; the
                # sweep will respawn it.  Put the task back untouched.
                self.queue.retry(task, not_before=now)
                continue
            handle.busy = task
            handle.started_at = None
            self.leases.grant(task.cell_id(), handle.worker_id, now)
            self.stats.dispatches += 1

    def _receive(self, handle: _WorkerHandle) -> bool:
        """Handle one message from ``handle``'s pipe; ``False`` once the
        pipe is closed."""
        try:
            message = handle.conn.recv()
        except (EOFError, OSError):
            return False
        self._handle_message(handle, message)
        return True

    def _drain_messages(self, timeout: float) -> None:
        watched = [self.handles[worker_id] for worker_id in sorted(self.handles)]
        if not watched:
            time.sleep(timeout)
            return
        by_conn = {handle.conn: handle for handle in watched}
        ready = multiprocessing.connection.wait(list(by_conn), timeout=timeout)
        for conn in ready:
            handle = by_conn[cast(multiprocessing.connection.Connection, conn)]
            if handle.worker_id in self.handles and handle.alive():
                self._receive(handle)
            # A dead worker's pipe is drained by the sweep.

    def _overran(self, handle: _WorkerHandle, now: float) -> bool:
        return (
            self.timeout is not None
            and handle.busy is not None
            and handle.started_at is not None
            and now - handle.started_at >= self.timeout
        )

    def _sweep_workers(self) -> None:
        """Retire every worker that died, overran its cell timeout, or
        let its lease expire, settle its cell, and respawn."""
        now = time.monotonic()
        expired = {lease.worker_id for lease in self.leases.expired(now)}
        for worker_id in sorted(self.handles):
            handle = self.handles[worker_id]
            if not handle.alive():
                self._retire(handle, "died")
                continue
            if self._overran(handle, now):
                cause = "timeout"
            elif worker_id in expired:
                cause = "lease expired"
                self.stats.expired_leases += 1
            else:
                continue
            logger.warning(
                "worker %d (%s): killing worker", worker_id, cause
            )
            handle.process.kill()
            handle.process.join()
            self._retire(handle, cause)

    def _retire(self, handle: _WorkerHandle, cause: str) -> None:
        # Drain the dead worker's pipe first, so a result it sent just
        # before the end still counts.
        while handle.conn.poll() and self._receive(handle):
            pass
        self.stats.worker_deaths += 1
        self._stop_worker(handle, kill=True)
        task, handle.busy = handle.busy, None
        if task is not None:
            self.leases.release(task.cell_id())
            code = handle.process.exitcode
            if cause == "timeout":
                self._attempt_failed(
                    task,
                    "timeout",
                    f"cell exceeded its {self.timeout}s wall-clock cap and its "
                    f"worker was killed",
                )
            elif cause != "died" or handle.started_at is None:
                # Lost before the cell body ran: a scheduling event.
                self._reclaim(task, handle.worker_id, f"worker {cause}")
            elif code is not None and code < 0:
                self._attempt_failed(
                    task,
                    "signal",
                    f"the worker died on signal {-code} while running the cell",
                )
            else:
                self._attempt_failed(
                    task,
                    "lost",
                    f"the worker exited (code {code}) while running the cell",
                )
        if len(self.payloads) < len(self.cells):
            self.stats.respawns += 1
            self._spawn_worker()

    def enqueue(self) -> List[CellSpec]:
        """Push every cell without a terminal result, in dispatch order:
        campaign order inline and on one worker, largest ``spec.n``
        first (stable within equal ``n``) on two or more, so no worker
        idles behind a big cell at the tail."""
        remaining = [
            spec for spec in self.cells if spec.cell_id() not in self.payloads
        ]
        if self.target_workers >= 2:
            remaining.sort(key=lambda spec: -spec.n)
        for spec in remaining:
            self.queue.push(Task(spec=spec))
        return remaining

    def run(self) -> None:
        remaining = self.enqueue()
        if not remaining:
            return
        if self.target_workers == 0:
            self._run_inline()
            return
        preload_runners(remaining)
        for _ in range(min(self.target_workers, len(remaining))):
            self._spawn_worker()
        while len(self.payloads) < len(self.cells):
            self._dispatch_ready()
            self._drain_messages(_TICK_SECONDS)
            self._sweep_workers()

    def drain(self) -> None:
        """Graceful shutdown: no new dispatches, bounded wait for
        in-flight cells, then merge shards so nothing completed is lost."""
        deadline = time.monotonic() + self.scheduler.drain_secs
        while (
            any(handle.busy is not None for handle in self.handles.values())
            and time.monotonic() < deadline
        ):
            self._drain_messages(_TICK_SECONDS)
            self._sweep_workers()
        self.merge_shards_into_journal()

    def merge_shards_into_journal(self) -> None:
        """Append every shard-only completion to the canonical journal
        (durable, append-order) and drop the shards — the interrupted-
        run finalizer; a finished run rewrites canonically instead."""
        if self.journal is None:
            return
        recorded = self.journal.completed_cells()
        for path in self._shard_paths():
            for body in load_cell_records(path):
                cell_id = str(body["cell"])
                if cell_id not in recorded:
                    core = _payload_core(body)
                    self.journal.append_cell(core)
                    recorded[cell_id] = body
        self._delete_shards()

    def finalize(self) -> None:
        """All cells terminal: rewrite the journal into canonical
        campaign order (byte-identical to a clean serial run's) and
        drop the shards.  The zero-worker case journaled every result in
        campaign order as it went, so its journal stays as written."""
        if self.journal is not None and self.target_workers > 0:
            ordered = [
                self.payloads[spec.cell_id()] for spec in self.cells
            ]
            self.journal.rewrite_cells(ordered)
            self._delete_shards()

    def shutdown(self, kill: bool = False) -> None:
        handles = list(self.handles.values())
        if kill:
            for handle in handles:
                self._stop_worker(handle, kill=True)
        else:
            # Every worker is told to stop before any is joined, so they
            # wind down in parallel.
            for handle in handles:
                self._request_stop(handle)
            for handle in handles:
                self._reap_worker(handle)
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def report(self) -> SchedulerReport:
        ordered = [self.results[spec.cell_id()] for spec in self.cells]
        return SchedulerReport(results=ordered, stats=self.stats)


def run_engine(
    cells: Sequence[CellSpec],
    config: Optional[CampaignConfig],
    scheduler: SchedulerConfig,
    workers: int,
    journal: Optional[CampaignJournal] = None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    halt_after: Optional[int] = None,
) -> SchedulerReport:
    """Run every cell to a terminal result on ``workers`` worker
    processes (``0``: attempts run in this process) — the one engine
    behind :func:`run_scheduled_campaign` and serial
    :func:`~repro.supervisor.campaign.run_campaign`."""
    config = config if config is not None else CampaignConfig()
    if resume and journal is None:
        raise SupervisorError("resume requested without a journal")
    if resume and journal is not None:
        verify_resume_key(journal, cells, config.seed)
    # Materialize the fault plan pre-fork so workers inherit the parent's
    # configured plan rather than rebuilding from the environment.
    faults.get_plan()
    engine = _Engine(
        cells=cells,
        config=config,
        scheduler=scheduler,
        workers=workers,
        journal=journal,
        progress=progress,
        halt_after=halt_after,
    )
    engine.restore(resume)

    def _sigterm_to_interrupt(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt(f"signal {signum}")

    previous_sigterm: Any = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    except ValueError:  # pragma: no cover - not in the main thread
        previous_sigterm = None
    try:
        engine.run()
        engine.shutdown()
        engine.finalize()
    except KeyboardInterrupt:
        logger.warning("interrupt: draining campaign")
        engine.drain()
        engine.shutdown(kill=True)
        raise
    except SchedulerHalted:
        # The simulated hard stop: workers die, shards stay on disk.
        engine.shutdown(kill=True)
        raise
    finally:
        engine.shutdown(kill=True)
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    report = engine.report()
    logger.info(
        "campaign finished: %s; %s", report.summary(), engine.stats.summary()
    )
    return report


def run_scheduled_campaign(
    cells: Sequence[CellSpec],
    config: Optional[CampaignConfig] = None,
    scheduler: Optional[SchedulerConfig] = None,
    journal: Optional[CampaignJournal] = None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    _halt_after: Optional[int] = None,
) -> SchedulerReport:
    """Run every cell to a terminal result across N worker processes.

    Same contract as :func:`~repro.supervisor.campaign.run_campaign`
    (never abort; quarantine failures; ``resume=True`` restores
    journaled cells bit-identically), with worker crashes, hangs, and
    stalls absorbed via lease reclamation.  At least one worker runs,
    so both ``isolation`` values behave the same here.  ``_halt_after``
    is the test-only crash hook: after that many newly recorded cells
    the engine kills its workers and raises
    :class:`~repro.exceptions.SchedulerHalted` *without* merging or
    finalizing — simulating the scheduler process dying — so tests can
    exercise shard recovery on the next ``resume=True`` run.
    """
    scheduler = scheduler if scheduler is not None else SchedulerConfig()
    return run_engine(
        cells,
        config,
        scheduler,
        scheduler.resolved_workers(),
        journal=journal,
        resume=resume,
        progress=progress,
        halt_after=_halt_after,
    )
