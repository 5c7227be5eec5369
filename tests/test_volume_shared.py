"""Differential tests: the shared VOLUME execution against per-node queries.

:func:`~repro.volume.model.run_volume_algorithm` first offers an algorithm
every node at once (:meth:`VolumeAlgorithm.answer_all`);
:class:`~repro.volume.ComponentCount` answers with one walk per connected
component.  The oracle is the same run with that hook patched to return
``None``, so every node runs its own :meth:`ComponentCount.answer` query.
Both runs must agree on the outputs, ``probes_per_node``,
``max_probes_used`` and ``declared_probes``, or raise the same exception
type with the same message.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.exceptions import ProbeError, SimulationError
from repro.graphs import (
    Graph,
    HalfEdgeLabeling,
    cycle,
    disjoint_union,
    path,
    random_forest,
    random_ids,
    random_tree,
    star,
)
from repro.volume import (
    ComponentCount,
    check_volume_order_invariance,
    fooled_constant_volume,
    run_volume_algorithm,
    smallest_volume_n0,
)
from repro.volume.lca import run_lca_algorithm
from repro.volume.model import ProbeOracle


@contextlib.contextmanager
def per_node_queries():
    """Disable the shared execution: every node runs its own query."""
    with mock.patch.object(ComponentCount, "answer_all", lambda self, *args: None):
        yield


def outcome(call):
    """A comparable record of a run: its result fields or its error."""
    try:
        result = call()
    except Exception as error:
        return ("raised", type(error), str(error))
    if isinstance(result, bool):
        return ("value", result)
    return (
        "result",
        sorted(result.outputs.items()),
        result.probes_per_node,
        result.max_probes_used,
        result.declared_probes,
    )


def assert_same(call):
    """Run ``call`` shared and per-node; both outcomes must be equal."""
    shared = outcome(call)
    with per_node_queries():
        oracle = outcome(call)
    assert shared == oracle
    return shared


def takes_shared_path(graph, algorithm, ids, declared_n=None):
    n = graph.num_nodes if declared_n is None else declared_n
    oracle = ProbeOracle(graph, None, ids)
    return algorithm.answer_all(oracle, algorithm.probes(n), n) is not None


def run_cc(graph, ids=None, declared_n=None, algorithm=None):
    algorithm = ComponentCount() if algorithm is None else algorithm
    if ids is None:
        ids = random_ids(graph, seed=graph.num_nodes)
    return lambda: run_volume_algorithm(
        graph, algorithm, ids=ids, declared_n=declared_n
    )


class TestSharedMatchesPerNode:
    @pytest.mark.parametrize("n", [3, 4, 5, 17, 64, 255, 1024])
    def test_cycles(self, n):
        graph = cycle(n)
        ids = random_ids(graph, seed=n)
        kind, outputs, probes, max_probes, declared = assert_same(run_cc(graph, ids))
        assert kind == "result"
        assert {label for _, label in outputs} == {n}
        assert probes == [2 * n] * n
        assert max_probes == 2 * n and declared == 4 * n
        assert takes_shared_path(graph, ComponentCount(), ids)

    @pytest.mark.parametrize("n", [2, 3, 10, 101])
    def test_paths(self, n):
        graph = path(n)
        record = assert_same(run_cc(graph))
        assert record[0] == "result"
        assert record[2] == [2 * (n - 1)] * n

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees(self, seed):
        graph = random_tree(40 + 13 * seed, max_degree=2 + seed % 3, seed=seed)
        record = assert_same(run_cc(graph))
        assert record[0] == "result"
        assert record[3] == 2 * (graph.num_nodes - 1)

    def test_disjoint_union_with_isolated_nodes(self):
        graph = disjoint_union(
            [cycle(5), Graph(1), path(4), star(3), Graph(2), random_tree(30, 3, seed=4)]
        )
        ids = random_ids(graph, seed=11)
        _, outputs, probes, _, _ = assert_same(run_cc(graph, ids))
        # Isolated nodes 5, 14 and 15: no probes, no outputs.
        for isolated in (5, 14, 15):
            assert probes[isolated] == 0
            assert all(node != isolated for (node, _), _ in outputs)
        assert probes[:5] == [10] * 5
        assert probes[6:10] == [6] * 4
        assert probes[10:14] == [6] * 4
        assert takes_shared_path(graph, ComponentCount(), ids)

    def test_random_forest(self):
        graph = random_forest([1, 7, 2, 19, 1, 33], max_degree=3, seed=5)
        record = assert_same(run_cc(graph))
        assert record[0] == "result"

    def test_edgeless_graph(self):
        graph = Graph(4)
        assert assert_same(run_cc(graph)) == ("result", [], [0] * 4, 0, 16)

    def test_inputs_do_not_matter(self):
        graph = cycle(9)
        inputs = HalfEdgeLabeling(graph, {h: h[1] for h in graph.half_edges()})
        ids = random_ids(graph, seed=2)
        assert_same(
            lambda: run_volume_algorithm(graph, ComponentCount(), inputs=inputs, ids=ids)
        )


class TestFallbackRaisesLikePerNode:
    def test_budget_exceeded_on_the_only_component(self):
        # declared_n = 5 declares 20 probes; each cycle(20) query needs 40.
        graph = cycle(20)
        ids = random_ids(graph, seed=1)
        record = assert_same(run_cc(graph, ids, declared_n=5))
        assert record[0] == "raised" and record[1] is ProbeError
        assert "probe budget 20 exhausted" in record[2]
        assert not takes_shared_path(graph, ComponentCount(), ids, declared_n=5)

    def test_budget_exceeded_on_a_later_component_only(self):
        # Budget 16: the triangle (degree sum 6) fits, the 30-cycle (60)
        # does not; the per-node queries raise at node 3.
        graph = disjoint_union([cycle(3), cycle(30)])
        ids = random_ids(graph, seed=3)
        record = assert_same(run_cc(graph, ids, declared_n=4))
        assert record[0] == "raised" and record[1] is ProbeError
        assert not takes_shared_path(graph, ComponentCount(), ids, declared_n=4)

    def test_budget_exactly_the_degree_sum(self):
        # declared_n = 5 on cycle(10): budget 20 = the degree sum.
        record = assert_same(run_cc(cycle(10), declared_n=5))
        assert record[0] == "result" and record[3] == 20

    def test_duplicate_ids(self):
        graph = cycle(6)
        record = assert_same(run_cc(graph, ids=[1, 2, 3, 3, 4, 5]))
        assert record == (
            "raised",
            SimulationError,
            "identifiers must be distinct, one per node",
        )


class TestSubclassOverridingAnswer:
    class Doubled(ComponentCount):
        name = "component-count-doubled"

        def answer(self, query):
            return {port: 2 * size for port, size in super().answer(query).items()}

    def test_keeps_the_per_node_path(self):
        graph = disjoint_union([cycle(7), path(3)])
        algorithm = self.Doubled()
        ids = random_ids(graph, seed=8)
        assert not takes_shared_path(graph, algorithm, ids)
        record = assert_same(run_cc(graph, ids, algorithm=algorithm))
        assert {label for _, label in record[1]} == {14, 6}


class TestOrderInvarianceAndFooling:
    def test_order_invariance_unchanged(self):
        graph = disjoint_union([cycle(6), path(5)])
        ids = random_ids(graph, seed=9)
        assert assert_same(
            lambda: check_volume_order_invariance(ComponentCount(), graph, ids=ids)
        ) == ("value", True)

    @pytest.mark.parametrize("n0", [3, 8, 64])
    def test_fooled_constant_volume_unchanged(self, n0):
        graph = cycle(12)
        ids = random_ids(graph, seed=n0)
        fooled = fooled_constant_volume(ComponentCount(), n0)
        record = assert_same(lambda: run_volume_algorithm(graph, fooled, ids=ids))
        # 4 * n0 probes cover the 24 half-edges only from n0 = 6 on.
        assert record[0] == ("raised" if n0 < 6 else "result")

    def test_smallest_volume_n0_unchanged(self):
        # Θ(n) probes are not o(log n): no feasible n0 exists.
        record = assert_same(
            lambda: smallest_volume_n0(
                ComponentCount().probes, max_degree=2, checking_radius=1, upper_limit=500
            )
        )
        assert record[0] == "raised" and record[1] is SimulationError


class TestLCAKeepsPerNodeQueries:
    def test_lca_runner_agrees(self):
        graph = cycle(16)
        lca = run_lca_algorithm(graph, ComponentCount())
        volume = run_volume_algorithm(graph, ComponentCount())
        assert sorted(lca.outputs.items()) == sorted(volume.outputs.items())
        assert lca.max_probes_used == volume.max_probes_used == 32
