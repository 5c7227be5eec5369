"""The scheduler worker process: the campaign's isolation boundary.

A worker is a forked, daemonic child of the campaign engine.  It applies
the campaign's address-space cap once when it starts (so the cap covers
the whole worker, including whatever earlier cells left allocated),
then loops over dispatch messages from its pipe and runs each cell
attempt inside the worker process through
:func:`repro.supervisor.isolation.run_attempt_process`.  The parent
resolved every cell runner before forking, so the simulators are already
imported here.  Just before the
cell body runs it reports ``started``: from then on the engine owns the
attempt's fate.  It kills the worker when the cell overruns its
timeout (``timeout``) and classifies a worker that dies on its own from
its exit code (``signal`` / ``lost``).  A worker lost before
``started`` is a reclaim, not a cell attempt.

Two disciplines make crash recovery sound:

* **Journal-then-report.**  A completed cell is appended to the
  worker's journal shard — flushed and fsynced — *before* the
  completion message is sent, so a worker killed between the two leaves
  a durable record that resume finds, and a worker killed before the
  append leaves nothing (the cell re-runs).  At-least-once execution
  with durable completions.
* **No environment reads.**  Everything a worker needs (memory cap,
  shard path, heartbeat period) is resolved by the parent and shipped
  as literal values, so parent-scoped knobs are never read on the fork
  side.

Heartbeats run on a daemon thread, sharing the pipe under a lock; the
``heartbeat_stall`` chaos instruction silences the thread *and* stalls
the dispatch, so the parent's only signal is the expiring lease — the
exact failure mode of a live-but-wedged worker.
"""

from __future__ import annotations

import logging
import multiprocessing.connection
import os
import signal
import threading
import time
from typing import Optional

from repro.supervisor.cells import STATUS_OK, CellResult, CellSpec
from repro.supervisor.isolation import apply_memory_cap, run_attempt_process
from repro.supervisor.journal import ShardWriter
from repro.utils import faults

logger = logging.getLogger(__name__)

#: Dispatch message tag (parent -> worker).
MSG_RUN = "run"
#: Orderly shutdown tag (parent -> worker).
MSG_STOP = "stop"
#: Heartbeat tag (worker -> parent).
MSG_HEARTBEAT = "hb"
#: Attempt-start tag (worker -> parent): the cell body is about to run,
#: so the cell timeout starts and a death now is the cell's failure.
MSG_STARTED = "started"
#: Completion tag (worker -> parent): carries the terminal OK payload.
MSG_DONE = "done"
#: Failed-attempt tag (worker -> parent): the parent decides retry vs
#: quarantine, so the message carries the attempt's failure record.
MSG_FAIL = "fail"


def _heartbeat_loop(
    conn: multiprocessing.connection.Connection,
    worker_id: int,
    period: float,
    stop: threading.Event,
    send_lock: threading.Lock,
) -> None:
    while not stop.wait(period):
        try:
            with send_lock:
                conn.send((MSG_HEARTBEAT, worker_id))
        except (BrokenPipeError, OSError):  # parent went away
            return


def _worker_main(
    conn: multiprocessing.connection.Connection,
    worker_id: int,
    campaign_seed: int,
    shard_path: str,
    mem_mb: Optional[int],
    heartbeat_secs: float,
) -> None:  # pragma: no cover - exercised via subprocesses in tests
    # Interrupts belong to the parent, which drains and then stops its
    # workers: a Ctrl-C sent to the whole process group must not kill a
    # running cell and turn it into a failed (possibly quarantined)
    # attempt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    writer = ShardWriter(shard_path)
    send_lock = threading.Lock()
    stop_heartbeat = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(conn, worker_id, heartbeat_secs, stop_heartbeat, send_lock),
        daemon=True,
    )
    beat.start()
    apply_memory_cap(mem_mb)

    def send(message: tuple) -> bool:
        try:
            with send_lock:
                conn.send(message)
        except (BrokenPipeError, OSError):
            return False
        return True

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == MSG_STOP:
            return
        _, spec_payload, attempt, delays, sim_instructions, sched_instructions = (
            message
        )
        if "worker_abort" in sched_instructions:
            # Die exactly as a SIGKILLed worker would: mid-lease, after
            # accepting the cell, before any journaling.
            logger.warning("worker %d: injected worker_abort", worker_id)
            os.kill(os.getpid(), signal.SIGKILL)
        if "heartbeat_stall" in sched_instructions:
            # Wedge silently: no heartbeats, no progress, no crash.  The
            # parent's lease deadline is the only way out.
            logger.warning("worker %d: injected heartbeat_stall", worker_id)
            stop_heartbeat.set()
            time.sleep(faults.HEARTBEAT_STALL_SECONDS)
        if not send((MSG_STARTED, worker_id)):
            return
        spec = CellSpec.from_payload(spec_payload)
        outcome = run_attempt_process(spec, campaign_seed, sim_instructions)
        if not outcome.ok:
            failure = (outcome.classification, outcome.reason, outcome.traceback)
            if not send((MSG_FAIL, worker_id) + failure):
                return
            continue
        payload = CellResult(
            spec=spec,
            status=STATUS_OK,
            value=outcome.value,
            attempts=attempt + 1,
            delays=tuple(delays),
        ).payload()
        repeats = 2 if "duplicate_completion" in sched_instructions else 1
        for _ in range(repeats):
            # Durability before visibility: the shard record must exist
            # before the parent can count the cell done.
            writer.append_cell(payload)
            if not send((MSG_DONE, worker_id, payload)):
                return
