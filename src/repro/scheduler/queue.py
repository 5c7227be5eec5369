"""The scheduler's task queue, sharded by canonical cell id.

Sharding serves determinism, not throughput: a cell's shard is a pure
function of its canonical id (``sha256(cell_id) % nshards``), so which
cells a backing-off retry holds up is stable across runs and across
resume boundaries.

Dispatch follows push order across shards: :meth:`ShardedTaskQueue.pop_ready`
returns, of every shard's first dispatchable task, the one pushed
earliest.  The engine pushes the remaining cells in campaign order on
one worker or inline, and largest ``spec.n`` first (stable within equal
``n``) on two or more, so the biggest cells start first and no worker
idles behind one at the tail of the campaign (largest-first, or LPT,
dispatch with ``n`` as the size estimate).  The one-worker and inline
runs keep campaign order because it is the serial attempt order their
journal and fault draws are defined by.

A failed or reclaimed cell goes back to the *head* of its shard, and no
later cell in that shard may overtake it while it backs off.  With one
shard this is exactly the serial attempt order (cell by cell, every
attempt of a cell before the next cell), so the engine's per-dispatch
fault draws land on the same ``(cell, attempt)`` pairs at any worker
count that uses one shard.  Other shards keep dispatching.

Retry backoff becomes a ``not_before`` dispatch time rather than a
sleep: :meth:`ShardedTaskQueue.pop_ready` returns nothing from a shard
whose retried head is still backing off.  Durability lives in the
journal and shards, not here — after a crash the queue is reconstructed
as "all cells minus journaled ones".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import List, Optional, Tuple

from repro.supervisor.cells import CellSpec


@dataclass
class Task:
    """One cell's place in line, with its retry history.

    ``attempt`` counts *cell-body attempts that failed*, while
    ``reclaims`` counts worker-level losses — a reclaimed dispatch never
    ran the cell body to a verdict, so it must not consume a retry.
    """

    spec: CellSpec
    attempt: int = 0
    delays: List[float] = field(default_factory=list)
    not_before: float = 0.0
    reclaims: int = 0
    #: Position in the queue's push order, set by the first push; a
    #: retry keeps it, so dispatch order is push order.
    order: int = -1

    def cell_id(self) -> str:
        return self.spec.cell_id()

    @property
    def retried(self) -> bool:
        """Whether this task came back after a failure or reclaim (and
        so holds the head of its shard)."""
        return self.attempt > 0 or self.reclaims > 0


def shard_of(cell_id: str, nshards: int) -> int:
    """The canonical shard of a cell — a pure function of its id."""
    digest = sha256(cell_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % max(1, nshards)


class ShardedTaskQueue:
    """FIFO-per-shard queue dispatching in push order across shards."""

    def __init__(self, nshards: int):
        self.nshards = max(1, int(nshards))
        self._shards: List[List[Task]] = [[] for _ in range(self.nshards)]
        self._pushed = 0

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def push(self, task: Task, not_before: float = 0.0) -> None:
        """Enqueue ``task`` at the back of its canonical shard, not to
        be dispatched before ``not_before`` (monotonic time)."""
        task.not_before = not_before
        if task.order < 0:
            task.order = self._pushed
            self._pushed += 1
        self._shards[shard_of(task.cell_id(), self.nshards)].append(task)

    def retry(self, task: Task, not_before: float) -> None:
        """Put a failed or reclaimed ``task`` back at the head of its
        shard, where it blocks the shard until ``not_before``."""
        task.not_before = not_before
        self._shards[shard_of(task.cell_id(), self.nshards)].insert(0, task)

    def pop_ready(self, now: float) -> Optional[Task]:
        """The next dispatchable task: of each shard's first ready task,
        the earliest pushed; ``None`` when nothing is ready (the queue
        may still be non-empty).  Within a shard, tasks still inside
        their backoff window are skipped — except a retried one, which
        nothing behind it may overtake."""
        best: Optional[Tuple[Task, List[Task], int]] = None
        for shard in self._shards:
            for position, task in enumerate(shard):
                if task.not_before <= now:
                    if best is None or task.order < best[0].order:
                        best = (task, shard, position)
                    break
                if task.retried:
                    break
        if best is None:
            return None
        task, shard, position = best
        del shard[position]
        return task

    def next_ready_at(self) -> Optional[float]:
        """The earliest time :meth:`pop_ready` can return a task, or
        ``None`` when the queue is empty — lets the engine size its
        waits."""
        times: List[float] = []
        for shard in self._shards:
            for task in shard:
                times.append(task.not_before)
                if task.retried:
                    break
        return min(times) if times else None
