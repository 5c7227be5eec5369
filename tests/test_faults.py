"""Chaos suite: the engine must produce **bit-identical** results under
injected faults (:mod:`repro.utils.faults`).

Every recovery boundary is exercised against a clean baseline: corrupt
disk-cache entries (poison recovery, also under a resumed sequence walk)
and adversarial identifier assignments.
Failures must be *loud* — counted in ``stats()`` and logged — but never
change results.
"""

import pytest

from repro.lcl import catalog
from repro.roundelim.ops import R, R_bar, configure_bitset, simplify
from repro.roundelim.sequence import ProblemSequence
from repro.utils import cache as operator_cache
from repro.utils import faults
from repro.utils.faults import FaultPlan, InjectedFault, configure_faults, parse_spec

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def clean_engine(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    operator_cache.reset()
    operator_cache.reset_stats()
    operator_cache.configure(enabled=True, disk_dir=None)
    # Run the chaos scenarios on the pure-Python oracle loops, the path
    # alphabets past 64 labels take.
    configure_bitset(enabled=False)
    faults.reset_faults()
    yield
    faults.reset_faults()
    operator_cache.reset()
    operator_cache.reset_stats()
    configure_bitset(enabled=None)


def engine_outputs(problem, use_cache=False):
    """The (R, simplify, Rbar) triple whose invariance the suite asserts."""
    r = R(problem, use_cache=use_cache)
    simplified = simplify(r, domination=True, use_cache=use_cache)
    rbar = R_bar(simplified, use_cache=use_cache)
    return r, simplified, rbar


class TestFaultPlan:
    def test_same_seed_same_firing_pattern(self):
        a = FaultPlan({"sim_crash": 0.5}, seed=42)
        b = FaultPlan({"sim_crash": 0.5}, seed=42)
        pattern_a = [a.fire("sim_crash") for _ in range(200)]
        pattern_b = [b.fire("sim_crash") for _ in range(200)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_different_seeds_differ(self):
        a = FaultPlan({"sim_crash": 0.5}, seed=1)
        b = FaultPlan({"sim_crash": 0.5}, seed=2)
        assert [a.fire("sim_crash") for _ in range(200)] != [
            b.fire("sim_crash") for _ in range(200)
        ]

    def test_rate_zero_never_fires_rate_one_always_fires(self):
        plan = FaultPlan({"sim_crash": 0.0, "cache_corrupt": 1.0}, seed=0)
        assert not any(plan.fire("sim_crash") for _ in range(50))
        assert all(plan.fire("cache_corrupt") for _ in range(50))

    def test_parse_spec(self):
        rates = parse_spec("sim_crash:0.1, cache_corrupt:0.05")
        assert rates == {"sim_crash": 0.1, "cache_corrupt": 0.05}
        with pytest.raises(ValueError):
            parse_spec("not_a_kind:0.1")
        with pytest.raises(ValueError):
            parse_spec("sim_crash:oops")
        with pytest.raises(ValueError):
            parse_spec("sim_crash:1.5")
        # Kinds that no longer exist: a stale REPRO_FAULTS
        # spec must fail loudly, not silently inject nothing.
        with pytest.raises(ValueError):
            parse_spec("worker_crash:0.1")
        with pytest.raises(ValueError):
            configure_faults({"slow_chunk": 1.0})

    def test_injected_fault_raises_with_metadata(self):
        configure_faults({"sim_crash": 1.0}, seed=0)
        (kind,) = faults.fire_sim_faults()
        with pytest.raises(InjectedFault) as info:
            faults.execute_sim_fault(kind)
        assert info.value.kind == "sim_crash"

    def test_injected_fault_survives_pickling(self):
        # An exception crossing a process boundary is pickled; the default
        # reduction cannot rebuild InjectedFault's signature.
        import pickle

        fault = pickle.loads(pickle.dumps(InjectedFault("sim_crash", 3)))
        assert (fault.kind, fault.occurrence, str(fault)) == (
            "sim_crash",
            3,
            str(InjectedFault("sim_crash", 3)),
        )

    def test_env_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache_corrupt:0.25")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "9")
        faults.reset_faults()
        plan = faults.get_plan()
        assert plan.rates == {"cache_corrupt": 0.25}
        assert plan.seed == 9


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
        """A walk persisted in the disk cache, resumed while every disk
        read comes back torn: the resume must detect the damage, restore
        nothing wrong, and recompute to the same walk."""
        problem = catalog.echo(3)
        configure_faults(None)
        clean = ProblemSequence(problem, use_cache=False)
        expected = [clean.problem(k) for k in range(3)]

        operator_cache.configure(enabled=True, disk_dir=tmp_path)
        first = ProblemSequence(problem)
        [first.problem(k) for k in range(3)]

        operator_cache.configure(enabled=True, disk_dir=tmp_path)  # cold memory
        operator_cache.reset_stats()
        configure_faults({"cache_corrupt": 1.0}, seed=13)
        resumed = ProblemSequence(problem)
        restored = resumed.resume()
        observed = [resumed.problem(k) for k in range(3)]
        configure_faults(None)

        assert restored == 0
        assert observed == expected
        assert [p.name for p in observed] == [p.name for p in expected]
        operators = operator_cache.stats()["operators"]
        assert sum(op.get("disk_errors", 0) for op in operators.values()) > 0


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
            faults.execute_sim_fault("cache_corrupt")

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
