"""Chaos suite: the engine must produce **bit-identical** results under
injected faults (:mod:`repro.utils.faults`).

Every recovery boundary is exercised against a clean serial baseline:
worker crashes (per-chunk retry + serial rescue), worker hard-exits
(``BrokenProcessPool`` detection + pool rebuild), slow chunks (per-chunk
timeouts), corrupt disk-cache entries (poison recovery), and torn
checkpoint writes (checksum verification + fresh start).  Failures must
be *loud* — counted in ``stats()`` and logged — but never change results.
"""

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.lcl import catalog
from repro.roundelim import ops
from repro.roundelim.ops import R, R_bar, configure_bitset, configure_parallel, simplify
from repro.roundelim.sequence import ProblemSequence
from repro.utils import cache as operator_cache
from repro.utils import faults
from repro.utils.faults import FaultPlan, InjectedFault, configure_faults, parse_spec

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def clean_engine(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    operator_cache.reset()
    operator_cache.reset_stats()
    operator_cache.configure(enabled=True, disk_dir=None)
    configure_parallel(workers=1, threshold=None, chunk_timeout=None, chunk_retries=None)
    # The chaos scenarios target the *pool* recovery boundaries; the bitset
    # backend would answer the quantifier loops without ever fanning out.
    configure_bitset(enabled=False)
    faults.reset_faults()
    yield
    faults.reset_faults()
    operator_cache.reset()
    operator_cache.reset_stats()
    configure_parallel(workers=None, threshold=None, chunk_timeout=None, chunk_retries=None)
    configure_bitset(enabled=None)


def engine_outputs(problem, use_cache=False):
    """The (R, simplify, Rbar) triple whose invariance the suite asserts."""
    r = R(problem, use_cache=use_cache)
    simplified = simplify(r, domination=True, use_cache=use_cache)
    rbar = R_bar(simplified, use_cache=use_cache)
    return r, simplified, rbar


class TestFaultPlan:
    def test_same_seed_same_firing_pattern(self):
        a = FaultPlan({"worker_crash": 0.5}, seed=42)
        b = FaultPlan({"worker_crash": 0.5}, seed=42)
        pattern_a = [a.fire("worker_crash") for _ in range(200)]
        pattern_b = [b.fire("worker_crash") for _ in range(200)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_different_seeds_differ(self):
        a = FaultPlan({"worker_crash": 0.5}, seed=1)
        b = FaultPlan({"worker_crash": 0.5}, seed=2)
        assert [a.fire("worker_crash") for _ in range(200)] != [
            b.fire("worker_crash") for _ in range(200)
        ]

    def test_rate_zero_never_fires_rate_one_always_fires(self):
        plan = FaultPlan({"worker_crash": 0.0, "slow_chunk": 1.0}, seed=0)
        assert not any(plan.fire("worker_crash") for _ in range(50))
        assert all(plan.fire("slow_chunk") for _ in range(50))

    def test_parse_spec(self):
        rates = parse_spec("worker_crash:0.1, slow_chunk:0.05")
        assert rates == {"worker_crash": 0.1, "slow_chunk": 0.05}
        with pytest.raises(ValueError):
            parse_spec("not_a_kind:0.1")
        with pytest.raises(ValueError):
            parse_spec("worker_crash:oops")
        with pytest.raises(ValueError):
            parse_spec("worker_crash:1.5")

    def test_injected_fault_raises_with_metadata(self):
        configure_faults({"worker_crash": 1.0}, seed=0)
        with pytest.raises(InjectedFault) as info:
            faults.maybe_crash()
        assert info.value.kind == "worker_crash"

    def test_injected_fault_survives_pickling(self):
        # Pool workers ship exceptions back pickled; an unpicklable fault
        # would break the whole pool instead of failing one chunk.
        import pickle

        fault = pickle.loads(pickle.dumps(InjectedFault("worker_crash", 3)))
        assert (fault.kind, fault.occurrence, str(fault)) == (
            "worker_crash",
            3,
            str(InjectedFault("worker_crash", 3)),
        )

    def test_env_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache_corrupt:0.25")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "9")
        faults.reset_faults()
        plan = faults.get_plan()
        assert plan.rates == {"cache_corrupt": 0.25}
        assert plan.seed == 9


def pool_breaking_at_submit(accepted):
    """A pool class whose workers die after ``accepted`` submissions.

    Models the race where a worker exits while ``_run_chunks`` is still
    handing out chunks, so ``submit`` itself raises ``BrokenProcessPool``.
    """

    class BreaksAtSubmit(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submitted = 0

        def submit(self, fn, /, *args, **kwargs):
            if self.submitted >= accepted:
                raise BrokenProcessPool("worker exited during submission")
            self.submitted += 1
            return super().submit(fn, *args, **kwargs)

    return BreaksAtSubmit


class TestChaosParallel:
    """Pool-level faults: results must equal the clean serial baseline."""

    PROBLEMS = [catalog.mis(3), catalog.sinkless_orientation(3), catalog.echo(3)]

    def baseline(self, problem):
        configure_faults(None)
        configure_parallel(workers=1)
        operator_cache.reset()
        return engine_outputs(problem)

    def chaotic(self, problem, rates, seed=7, retries=1, timeout=None):
        operator_cache.reset()
        operator_cache.reset_stats()
        configure_parallel(
            workers=2, threshold=1, chunk_retries=retries, chunk_timeout=timeout
        )
        configure_faults(rates, seed=seed)
        try:
            return engine_outputs(problem)
        finally:
            configure_faults(None)
            configure_parallel(workers=1, threshold=None, chunk_timeout=None)

    def test_worker_crash_rate_one_forces_serial_rescue(self):
        problem = catalog.mis(3)
        expected = self.baseline(problem)
        observed = self.chaotic(problem, {"worker_crash": 1.0})
        assert observed == expected
        totals = {
            key: sum(op.get(key, 0) for op in operator_cache.stats()["operators"].values())
            for key in ("chunk_failures", "chunk_retries", "serial_rescues", "pool_fallbacks")
        }
        if totals["pool_fallbacks"] == 0:
            # The pool came up: every chunk must have crashed, been retried,
            # and ended in serial rescue.  (Under extreme load the pool may
            # fail to fork at all — then the counted full-serial fallback is
            # the recovery path instead.)
            assert totals["chunk_failures"] > 0
            assert totals["chunk_retries"] > 0
            assert totals["serial_rescues"] > 0

    @pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
    def test_worker_crash_partial_rate_identical_results(self, problem):
        expected = self.baseline(problem)
        observed = self.chaotic(problem, {"worker_crash": 0.3}, seed=11, retries=2)
        assert observed == expected

    def test_worker_exit_breaks_pool_identical_results(self):
        problem = catalog.mis(3)
        expected = self.baseline(problem)
        observed = self.chaotic(problem, {"worker_exit": 1.0})
        assert observed == expected
        operators = operator_cache.stats()["operators"].values()
        rescued = sum(op.get("serial_rescues", 0) for op in operators)
        fell_back = sum(op.get("pool_fallbacks", 0) for op in operators)
        assert rescued + fell_back > 0

    @pytest.mark.parametrize("accepted", [0, 1], ids=["first-submit", "second-submit"])
    def test_pool_broken_at_submit_identical_results(self, monkeypatch, accepted):
        problem = catalog.mis(3)
        expected = self.baseline(problem)
        monkeypatch.setattr(ops, "ProcessPoolExecutor", pool_breaking_at_submit(accepted))
        observed = self.chaotic(problem, None)
        assert observed == expected
        operators = operator_cache.stats()["operators"].values()
        assert sum(op.get("chunk_failures", 0) for op in operators) > 0
        assert sum(op.get("serial_rescues", 0) for op in operators) > 0

    def test_slow_chunks_with_tight_timeout_identical_results(self):
        problem = catalog.mis(3)
        expected = self.baseline(problem)
        observed = self.chaotic(
            problem, {"slow_chunk": 1.0}, timeout=faults.SLOW_CHUNK_SECONDS / 5
        )
        assert observed == expected

    def test_mixed_fault_storm_identical_results(self):
        problem = catalog.sinkless_orientation(3)
        expected = self.baseline(problem)
        observed = self.chaotic(
            problem,
            {"worker_crash": 0.2, "worker_exit": 0.1, "slow_chunk": 0.2},
            seed=3,
            retries=2,
        )
        assert observed == expected


class TestChaosCache:
    def test_corrupt_disk_reads_recompute_identical_results(self, tmp_path):
        problem = catalog.mis(2)
        configure_faults(None)
        operator_cache.configure(enabled=True, disk_dir=tmp_path)
        expected = engine_outputs(problem, use_cache=True)

        operator_cache.configure(enabled=True, disk_dir=tmp_path)  # cold memory
        operator_cache.reset_stats()
        configure_faults({"cache_corrupt": 1.0}, seed=5)
        observed = engine_outputs(problem, use_cache=True)
        assert observed == expected
        operators = operator_cache.stats()["operators"]
        assert sum(op.get("disk_errors", 0) for op in operators.values()) > 0


class TestChaosCheckpoint:
    def test_torn_checkpoint_writes_recover_to_identical_walk(self, tmp_path):
        problem = catalog.echo(3)
        configure_faults(None)
        clean = ProblemSequence(problem, use_cache=False, checkpoint=False)
        expected = [clean.problem(k) for k in range(3)]

        configure_faults({"checkpoint_truncate": 1.0}, seed=13)
        torn = ProblemSequence(problem, use_cache=False, checkpoint=tmp_path)
        [torn.problem(k) for k in range(3)]
        configure_faults(None)

        # Every persisted snapshot was torn mid-write; a resume must detect
        # the damage, restore nothing wrong, and recompute to the same walk.
        resumed = ProblemSequence(problem, use_cache=False, checkpoint=tmp_path)
        restored = resumed.resume()
        observed = [resumed.problem(k) for k in range(3)]
        assert observed == expected
        assert restored == 0 or all(
            resumed.problem(k) == expected[k] for k in range(restored + 1)
        )


class TestSimulatorFaultKinds:
    """The simulator-level kinds added for supervised campaigns."""

    def test_new_kinds_recognized_by_parse_spec(self):
        rates = parse_spec(
            "sim_crash:0.1,sim_hang:0.1,sim_oom:0.1,journal_torn:0.05,"
            "adversarial_ids:1.0"
        )
        assert set(rates) == {
            "sim_crash",
            "sim_hang",
            "sim_oom",
            "journal_torn",
            "adversarial_ids",
        }

    def test_execute_sim_crash_raises_injected_fault(self):
        with pytest.raises(InjectedFault) as excinfo:
            faults.execute_sim_fault("sim_crash", 4)
        assert excinfo.value.kind == "sim_crash"
        assert excinfo.value.occurrence == 4

    def test_execute_sim_oom_raises_memory_error(self):
        with pytest.raises(MemoryError):
            faults.execute_sim_fault("sim_oom")

    def test_execute_rejects_non_sim_kinds(self):
        with pytest.raises(ValueError):
            faults.execute_sim_fault("worker_crash")

    def test_fire_sim_faults_deterministic_and_ordered(self):
        a = FaultPlan({"sim_crash": 0.5, "sim_oom": 0.5, "sim_hang": 0.5}, seed=3)
        b = FaultPlan({"sim_crash": 0.5, "sim_oom": 0.5, "sim_hang": 0.5}, seed=3)
        draws_a = [faults.fire_sim_faults(a) for _ in range(100)]
        draws_b = [faults.fire_sim_faults(b) for _ in range(100)]
        assert draws_a == draws_b
        for kinds in draws_a:
            assert list(kinds) == [k for k in faults.SIM_KINDS if k in kinds]
        assert any(len(kinds) > 1 for kinds in draws_a)

    def test_fire_sim_faults_quiet_without_rates(self):
        assert faults.fire_sim_faults(FaultPlan({}, seed=0)) == ()


class TestAdversarialIds:
    def test_random_ids_replaced_under_fault(self):
        from repro.graphs import cycle
        from repro.graphs.ids import adversarial_ids, random_ids

        graph = cycle(8)
        clean = random_ids(graph, seed=1)
        configure_faults({"adversarial_ids": 1.0})
        injected = random_ids(graph, seed=1)
        configure_faults(None)
        assert injected != clean
        assert injected == adversarial_ids(graph, key=lambda v: -v)
        assert len(set(injected)) == graph.num_nodes

    def test_algorithms_stay_correct_under_adversarial_ids(self):
        # Definition 2.1: identifier assignment is adversarial.  Measured
        # localities may legitimately shift, but outputs must stay valid.
        from repro.graphs import HalfEdgeLabeling, cycle
        from repro.graphs.ids import random_ids
        from repro.lcl import catalog as lcl_catalog
        from repro.lcl.checker import check_solution
        from repro.local.algorithms import LinialColoring
        from repro.local.model import run_local_algorithm

        graph = cycle(16)
        problem = lcl_catalog.coloring(3, 2)
        inputs = HalfEdgeLabeling.constant(graph, next(iter(problem.sigma_in)))
        configure_faults({"adversarial_ids": 1.0})
        ids = random_ids(graph, seed=1)
        configure_faults(None)
        result = run_local_algorithm(
            graph, LinialColoring(2), inputs=inputs, ids=ids
        )
        assert check_solution(problem, graph, inputs, result.outputs).is_valid
