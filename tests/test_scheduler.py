"""Unit tests for :mod:`repro.scheduler`: backoff policy, leases, the
sharded task queue, journal shards, and clean multi-worker campaigns.

The end-to-end crash-recovery contract (SIGKILLed workers + resume
bit-identical to a clean serial run) lives in
``tests/test_scheduler_chaos.py``; this file covers each layer in
isolation plus the no-fault scheduler/serial equivalence.
"""

import json
import os

import pytest

from repro.exceptions import SchedulerError, SupervisorError
from repro.scheduler import SchedulerConfig, run_scheduled_campaign
from repro.scheduler import engine as engine_module
from repro.scheduler.leases import LeaseTable
from repro.scheduler.queue import ShardedTaskQueue, Task, shard_of
from repro.supervisor import (
    CampaignConfig,
    CellSpec,
    open_journal,
    register_runner,
    run_campaign,
)
from repro.supervisor.backoff import (
    TRANSIENT_CLASSIFICATIONS,
    BackoffPolicy,
    is_transient,
)
from repro.supervisor.cells import CLASSIFICATIONS
from repro.supervisor.journal import ShardWriter, load_cell_records
from repro.supervisor.measurements import plan_panel
from repro.utils import faults


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    monkeypatch.delenv("REPRO_JOURNAL_DIR", raising=False)
    for knob in (
        "REPRO_SCHED_WORKERS",
        "REPRO_SCHED_LEASE_SECS",
        "REPRO_SCHED_BACKOFF_BASE",
        "REPRO_SCHED_BACKOFF_FACTOR",
        "REPRO_SCHED_BACKOFF_MAX",
        "REPRO_SCHED_BACKOFF_JITTER",
    ):
        monkeypatch.delenv(knob, raising=False)
    faults.reset_faults()
    yield
    faults.reset_faults()


@register_runner("sched.bits")
def _bits(spec, rng):
    # RNG-stream dependent: a worker consuming stale generator state
    # (or a double-run diverging) would visibly change the value.
    return rng.child("measurement").bits(48)


CELLS = [CellSpec.make("sched.bits", "p", n, seed=n) for n in range(1, 9)]


def serial_baseline(tmp_path, cells=CELLS, seed=7, retries=1):
    """A clean serial run of the same campaign, with its journal bytes."""
    directory = tmp_path / "serial"
    directory.mkdir(exist_ok=True)
    journal = open_journal(cells, seed=seed, directory=directory)
    config = CampaignConfig(seed=seed, isolation="inline", retries=retries)
    report = run_campaign(cells, config, journal=journal)
    assert not report.quarantined
    return report, journal.path.read_bytes()


# ---------------------------------------------------------------- backoff
class TestBackoffPolicy:
    def test_delay_is_deterministic(self):
        policy = BackoffPolicy()
        a = [policy.delay(7, "cell-a", k) for k in range(4)]
        b = [policy.delay(7, "cell-a", k) for k in range(4)]
        assert a == b

    def test_delay_grows_exponentially_up_to_cap(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, max_delay=0.3, jitter=0.0)
        assert policy.delay(0, "c", 0) == pytest.approx(0.1)
        assert policy.delay(0, "c", 1) == pytest.approx(0.2)
        assert policy.delay(0, "c", 2) == pytest.approx(0.3)
        assert policy.delay(0, "c", 9) == pytest.approx(0.3)

    def test_jitter_stays_within_band_and_splits_by_cell(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, max_delay=10.0, jitter=0.5)
        delays = {policy.delay(3, f"cell-{i}", 0) for i in range(32)}
        assert all(0.5 <= d <= 1.0 for d in delays)
        assert len(delays) > 1, "jitter must differ across cells"

    def test_zero_base_disables_backoff(self):
        policy = BackoffPolicy(base=0.0)
        assert policy.delay(0, "c", 5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)

    def test_resolved_reads_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHED_BACKOFF_BASE", "0.25")
        monkeypatch.setenv("REPRO_SCHED_BACKOFF_JITTER", "0.0")
        policy = BackoffPolicy.resolved(factor=3.0)
        assert policy.base == 0.25
        assert policy.factor == 3.0
        assert policy.jitter == 0.0

    def test_transience_taxonomy(self):
        assert set(TRANSIENT_CLASSIFICATIONS) < set(CLASSIFICATIONS) | {
            "lost"
        }
        for kind in ("timeout", "oom", "signal", "lost"):
            assert is_transient(kind)
        assert not is_transient("error")


# ------------------------------------------------------------------ leases
class TestLeaseTable:
    def test_grant_renew_expire_release(self):
        table = LeaseTable(lease_secs=5.0)
        lease = table.grant("cell-a", worker_id=1, now=100.0)
        assert lease.deadline == 105.0
        assert not table.expired(104.9)
        table.renew_worker(1, now=104.0)
        assert table.expired(110.0) == [lease]
        table.release("cell-a")
        assert not table.expired(1000.0)
        assert len(table) == 0

    def test_double_grant_is_an_integrity_error(self):
        table = LeaseTable(lease_secs=5.0)
        table.grant("cell-a", worker_id=1, now=0.0)
        with pytest.raises(SchedulerError, match="already leased"):
            table.grant("cell-a", worker_id=2, now=1.0)

    def test_renew_only_touches_that_workers_leases(self):
        table = LeaseTable(lease_secs=5.0)
        a = table.grant("cell-a", worker_id=1, now=0.0)
        b = table.grant("cell-b", worker_id=2, now=0.0)
        table.renew_worker(1, now=4.0)
        assert a.deadline == 9.0
        assert b.deadline == 5.0
        assert table.of_worker(2) == [b]

    def test_nonpositive_lease_rejected(self):
        with pytest.raises(SchedulerError):
            LeaseTable(lease_secs=0.0)


# ------------------------------------------------------------------- queue
class TestShardedTaskQueue:
    def test_shard_is_a_pure_function_of_cell_id(self):
        for spec in CELLS:
            assert shard_of(spec.cell_id(), 4) == shard_of(spec.cell_id(), 4)
        assert 0 <= shard_of("x", 3) < 3

    def test_fifo_within_shard_push_order_across(self):
        queue = ShardedTaskQueue(nshards=2)
        for spec in CELLS:
            queue.push(Task(spec=spec))
        popped = []
        while len(queue):
            task = queue.pop_ready(now=0.0)
            popped.append(task.cell_id())
        # Both shards hold cells, and across them dispatch is push order.
        assert {shard_of(cell_id, 2) for cell_id in popped} == {0, 1}
        assert popped == [spec.cell_id() for spec in CELLS]
        # Within each shard, campaign order is preserved.
        by_shard = {}
        for cell_id in popped:
            by_shard.setdefault(shard_of(cell_id, 2), []).append(cell_id)
        for shard, ids in by_shard.items():
            expected = [
                spec.cell_id()
                for spec in CELLS
                if shard_of(spec.cell_id(), 2) == shard
            ]
            assert ids == expected

    def test_not_before_gates_dispatch(self):
        queue = ShardedTaskQueue(nshards=1)
        queue.push(Task(spec=CELLS[0]), not_before=10.0)
        queue.push(Task(spec=CELLS[1]), not_before=0.0)
        ready = queue.pop_ready(now=5.0)
        assert ready.cell_id() == CELLS[1].cell_id()
        assert queue.pop_ready(now=5.0) is None
        assert len(queue) == 1
        assert queue.next_ready_at() == 10.0
        assert queue.pop_ready(now=10.0).cell_id() == CELLS[0].cell_id()

    @staticmethod
    def _failed(queue, now):
        """Pop the next task and mark it as a failed attempt."""
        task = queue.pop_ready(now)
        task.attempt += 1
        return task

    def test_retry_pops_before_any_later_cell(self):
        queue = ShardedTaskQueue(nshards=1)
        for spec in CELLS[:3]:
            queue.push(Task(spec=spec))
        failed = self._failed(queue, now=0.0)
        queue.retry(failed, not_before=0.0)
        order = [queue.pop_ready(now=0.0).cell_id() for _ in range(3)]
        assert order == [spec.cell_id() for spec in CELLS[:3]]

    def test_backing_off_head_blocks_its_shard(self):
        queue = ShardedTaskQueue(nshards=1)
        for spec in CELLS[:3]:
            queue.push(Task(spec=spec))
        queue.retry(self._failed(queue, now=0.0), not_before=10.0)
        # The next cell is ready, but may not overtake the retry.
        assert queue.pop_ready(now=5.0) is None
        assert queue.next_ready_at() == 10.0
        assert queue.pop_ready(now=10.0).cell_id() == CELLS[0].cell_id()
        assert queue.pop_ready(now=10.0).cell_id() == CELLS[1].cell_id()

    def test_backing_off_head_blocks_only_its_own_shard(self):
        blocked = [s for s in CELLS if shard_of(s.cell_id(), 2) == 0]
        free = [s for s in CELLS if shard_of(s.cell_id(), 2) == 1]
        assert len(blocked) >= 2 and free
        queue = ShardedTaskQueue(nshards=2)
        for spec in blocked[:2] + free[:1]:
            queue.push(Task(spec=spec))
        failed = self._failed(queue, now=0.0)  # the first push pops first
        assert failed.spec == blocked[0]
        queue.retry(failed, not_before=10.0)
        assert queue.pop_ready(now=5.0).cell_id() == free[0].cell_id()
        assert queue.pop_ready(now=5.0) is None
        assert queue.pop_ready(now=10.0).cell_id() == blocked[0].cell_id()
        assert queue.pop_ready(now=10.0).cell_id() == blocked[1].cell_id()


    def test_retried_head_keeps_its_place_in_push_order(self):
        first = [s for s in CELLS if shard_of(s.cell_id(), 2) == 0][0]
        later = [s for s in CELLS if shard_of(s.cell_id(), 2) == 1][:2]
        queue = ShardedTaskQueue(nshards=2)
        for spec in [first] + later:
            queue.push(Task(spec=spec))
        queue.retry(self._failed(queue, now=0.0), not_before=10.0)
        assert queue.pop_ready(now=5.0).cell_id() == later[0].cell_id()
        # Ready again, the retried cell precedes every later push.
        assert queue.pop_ready(now=10.0).cell_id() == first.cell_id()
        assert queue.pop_ready(now=10.0).cell_id() == later[1].cell_id()


# --------------------------------------------------------- dispatch order
def _engine(cells, workers):
    return engine_module._Engine(
        cells=cells,
        config=CampaignConfig(seed=0),
        scheduler=SchedulerConfig(),
        workers=workers,
        journal=None,
        progress=None,
        halt_after=None,
    )


def _dispatch_order(engine):
    """The engine's pushes, popped as its dispatch loop would pop them
    (no worker is spawned)."""
    engine.enqueue()
    order = []
    while len(engine.queue):
        order.append(engine.queue.pop_ready(now=float("inf")).spec)
    return order


#: Every measured panel's cells (equal ``n`` across series), plus cells
#: of equal ``n`` out of id order, so stability is visible.
DISPATCH_CASES = {
    panel: plan_panel(panel, 4).cells for panel in ("trees", "volume", "grids")
}
DISPATCH_CASES["ties"] = [
    CellSpec.make("sched.bits", problem, n, seed=n)
    for n in (2, 5, 5, 9, 2, 9)
    for problem in ("z", "a")
]


class TestDispatchOrder:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("case", sorted(DISPATCH_CASES))
    def test_two_or_more_workers_take_the_largest_n_first(self, case, workers):
        cells = DISPATCH_CASES[case]
        order = _dispatch_order(_engine(cells, workers))
        # ``sorted`` is stable: equal n keep campaign order.
        assert order == sorted(cells, key=lambda spec: -spec.n)
        assert order != cells

    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize("case", sorted(DISPATCH_CASES))
    def test_one_worker_and_inline_keep_campaign_order(self, case, workers):
        cells = DISPATCH_CASES[case]
        assert _dispatch_order(_engine(cells, workers)) == cells

    def test_journaled_cells_are_not_pushed(self):
        cells = DISPATCH_CASES["trees"]
        engine = _engine(cells, 2)
        done = cells[-1].cell_id()
        engine.payloads[done] = {"cell": done}
        order = _dispatch_order(engine)
        assert [spec.cell_id() for spec in order] == [
            spec.cell_id() for spec in sorted(cells[:-1], key=lambda s: -s.n)
        ]


# ---------------------------------------------------------------- shutdown
class _FakeProcess:
    """Records the engine's calls; a stubborn one ignores ``MSG_STOP``."""

    def __init__(self, name, events, stubborn=False):
        self.name, self.events, self.stubborn = name, events, stubborn
        self.running = True
        self.stop_requested = False

    def is_alive(self):
        return self.running

    def join(self, timeout=None):
        self.events.append(("join", self.name))
        if self.stop_requested and not self.stubborn:
            self.running = False

    def kill(self):
        self.events.append(("kill", self.name))
        self.running = False

    def terminate(self):  # pragma: no cover - only on a broken pipe
        self.events.append(("terminate", self.name))
        self.running = False


class _FakeConn:
    def __init__(self, process):
        self.process = process

    def send(self, message):
        self.process.events.append((message[0], self.process.name))
        self.process.stop_requested = True

    def close(self):
        self.process.events.append(("close", self.process.name))


def _engine_with_fake_workers(count, stubborn=()):
    engine = _engine(DISPATCH_CASES["ties"], count)
    events = []
    for worker_id in range(count):
        process = _FakeProcess(worker_id, events, stubborn=worker_id in stubborn)
        engine.handles[worker_id] = engine_module._WorkerHandle(
            worker_id=worker_id, process=process, conn=_FakeConn(process)
        )
    return engine, events


class TestShutdown:
    def test_every_worker_is_stopped_before_any_is_joined(self):
        engine, events = _engine_with_fake_workers(3)
        engine.shutdown()
        assert events == (
            [("stop", w) for w in range(3)]
            + [event for w in range(3) for event in (("join", w), ("close", w))]
        )
        assert engine.handles == {}

    def test_a_worker_outliving_the_grace_period_is_killed(self):
        engine, events = _engine_with_fake_workers(3, stubborn={1})
        engine.shutdown()
        assert events[3:] == [
            ("join", 0), ("close", 0),
            ("join", 1), ("kill", 1), ("join", 1), ("close", 1),
            ("join", 2), ("close", 2),
        ]

    def test_kill_stops_and_joins_one_worker_at_a_time(self):
        engine, events = _engine_with_fake_workers(2)
        engine.shutdown(kill=True)
        assert events == [
            ("kill", 0), ("join", 0), ("close", 0),
            ("kill", 1), ("join", 1), ("close", 1),
        ]
        assert engine.handles == {}


# ------------------------------------------------------------------ shards
class TestJournalShards:
    def test_shard_writer_records_load_back(self, tmp_path):
        path = tmp_path / "shard-000.jsonl"
        writer = ShardWriter(path)
        writer.append_cell({"cell": "a", "status": "OK", "value": 1})
        writer.append_cell({"cell": "b", "status": "OK", "value": 2})
        records = load_cell_records(path)
        assert [body["cell"] for body in records] == ["a", "b"]

    def test_torn_shard_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "shard-000.jsonl"
        writer = ShardWriter(path)
        writer.append_cell({"cell": "a", "status": "OK", "value": 1})
        writer.append_cell({"cell": "b", "status": "OK", "value": 2})
        raw = path.read_text()
        lines = raw.splitlines(keepends=True)
        path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        records = load_cell_records(path)
        assert [body["cell"] for body in records] == ["a"]

    def test_shard_paths_are_campaign_keyed_and_sorted(self, tmp_path):
        journal = open_journal(CELLS, seed=7, directory=tmp_path)
        other = open_journal(CELLS[:2], seed=8, directory=tmp_path)
        for shard_id in (2, 0, 1):
            ShardWriter(journal.shard_path(shard_id)).append_cell(
                {"cell": f"c{shard_id}", "status": "OK", "value": shard_id}
            )
        ShardWriter(other.shard_path(0)).append_cell(
            {"cell": "x", "status": "OK", "value": 0}
        )
        assert [p.name for p in journal.shard_paths()] == [
            journal.shard_path(i).name for i in range(3)
        ]
        assert journal.shard_paths()[0] != other.shard_paths()[0]
        journal.delete_shards()
        assert journal.shard_paths() == []
        assert len(other.shard_paths()) == 1

    def test_rewrite_cells_matches_appended_journal_bytes(self, tmp_path):
        payloads = [
            {"cell": spec.cell_id(), "status": "OK", "value": spec.n}
            for spec in CELLS[:3]
        ]
        appended = open_journal(CELLS[:3], seed=7, directory=tmp_path / "a")
        appended.ensure_header()
        for payload in payloads:
            appended.append_cell(dict(payload))
        rewritten = open_journal(CELLS[:3], seed=7, directory=tmp_path / "b")
        rewritten.rewrite_cells([dict(p) for p in payloads])
        assert appended.path.read_bytes() == rewritten.path.read_bytes()


# --------------------------------------------------- clean scheduled runs
class TestScheduledCampaign:
    def test_matches_serial_values_and_journal_bytes(self, tmp_path):
        serial, baseline_bytes = serial_baseline(tmp_path)
        journal = open_journal(CELLS, seed=7, directory=tmp_path / "sched")
        config = CampaignConfig(seed=7, isolation="inline", retries=1)
        report = run_scheduled_campaign(
            CELLS,
            config,
            scheduler=SchedulerConfig(workers=3, lease_secs=5.0),
            journal=journal,
        )
        assert not report.quarantined
        assert report.values() == serial.values()
        assert journal.path.read_bytes() == baseline_bytes
        assert report.stats.dispatches == len(CELLS)
        assert report.stats.reclaims == 0

    def test_single_worker_and_no_journal(self):
        config = CampaignConfig(seed=7, isolation="inline", retries=1)
        report = run_scheduled_campaign(
            CELLS[:4], config, scheduler=SchedulerConfig(workers=1)
        )
        serial = run_campaign(CELLS[:4], config)
        assert report.values() == serial.values()

    def test_progress_callback_sees_every_completion(self, tmp_path):
        lines = []
        config = CampaignConfig(seed=7, isolation="inline", retries=1)
        run_scheduled_campaign(
            CELLS[:4],
            config,
            scheduler=SchedulerConfig(workers=2),
            progress=lines.append,
        )
        assert len(lines) == 4
        assert "[4/4]" in lines[-1]

    def test_resume_refuses_mismatched_campaign_key(self, tmp_path):
        journal = open_journal(CELLS, seed=7, directory=tmp_path)
        with pytest.raises(SupervisorError, match="different"):
            run_scheduled_campaign(
                CELLS, CampaignConfig(seed=8), journal=journal, resume=True
            )

    def test_config_resolves_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHED_WORKERS", "2")
        monkeypatch.setenv("REPRO_SCHED_LEASE_SECS", "9.5")
        config = SchedulerConfig()
        assert config.resolved_workers() == 2
        assert config.resolved_lease_secs() == 9.5
        assert config.resolved_heartbeat_secs() == pytest.approx(9.5 / 3.0)
        explicit = SchedulerConfig(workers=5, lease_secs=3.0, heartbeat_secs=1.0)
        assert explicit.resolved_workers() == 5
        assert explicit.resolved_heartbeat_secs() == 1.0

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        # Pinned to one CPU of a large machine: one worker, not four.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert engine_module.usable_cpu_count() == 1
        assert SchedulerConfig().resolved_workers() == 1
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(16)), raising=False
        )
        assert SchedulerConfig().resolved_workers() == 4
        # Without an affinity API the machine's count is all there is.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert SchedulerConfig().resolved_workers() == 2
