"""Differential tests: the shared VOLUME executions against per-node queries.

:func:`~repro.volume.model.run_volume_algorithm` first offers an algorithm
every node at once (:meth:`VolumeAlgorithm.answer_all`):
:class:`~repro.volume.ComponentCount` answers with one walk per connected
component, :class:`~repro.volume.ChainColeVishkin` with one Cole–Vishkin
execution over all nodes.  The oracle is the same run with those hooks
patched to return ``None``, so every node runs its own ``answer`` query.
Both runs must agree on the outputs, ``probes_per_node``,
``max_probes_used`` and ``declared_probes``, or raise the same exception
type with the same message.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AlgorithmError, ProbeError, SimulationError
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
from repro.local.algorithms.cole_vishkin import (
    PREDECESSOR,
    SUCCESSOR,
    orient_path_inputs,
)
from repro.volume import (
    ChainColeVishkin,
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
    with mock.patch.object(
        ComponentCount, "answer_all", lambda self, *args: None
    ), mock.patch.object(ChainColeVishkin, "answer_all", lambda self, *args: None):
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


def takes_shared_path(graph, algorithm, ids, declared_n=None, inputs=None):
    n = graph.num_nodes if declared_n is None else declared_n
    oracle = ProbeOracle(graph, inputs, ids)
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


# ---------------------------------------------------------------------------
# ChainColeVishkin: one Cole–Vishkin execution shared by every query.


def run_chain(graph, ids=None, declared_n=None, algorithm=None, inputs="oriented"):
    algorithm = ChainColeVishkin() if algorithm is None else algorithm
    if ids is None:
        ids = random_ids(graph, seed=graph.num_nodes)
    if inputs == "oriented":
        inputs = orient_path_inputs(graph)
    return lambda: run_volume_algorithm(
        graph, algorithm, inputs=inputs, ids=ids, declared_n=declared_n
    )


def relabeled(graph, changes):
    """Index-order orientation with some half-edge labels replaced."""
    inputs = orient_path_inputs(graph)
    for half_edge, label in changes.items():
        inputs[half_edge] = label
    return inputs


def path_probes(n, rounds):
    """Successor hops capped at ``t + 4`` plus predecessor hops capped at 3."""
    return [min(rounds + 4, n - 1 - v) + min(3, v) for v in range(n)]


class TestChainColeVishkinSharedMatchesPerNode:
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 11, 12, 13, 17, 64, 100, 257, 1024])
    def test_cycles(self, n):
        # Cycles shorter than t + 8 = 12 wrap inside a query's window.
        graph = cycle(n)
        ids = random_ids(graph, seed=n)
        algorithm = ChainColeVishkin()
        rounds = algorithm._cv_rounds(n)
        kind, outputs, probes, max_probes, declared = assert_same(run_chain(graph, ids))
        assert kind == "result"
        assert {label for _, label in outputs} <= {"c0", "c1", "c2"}
        assert probes == [rounds + 7] * n
        assert max_probes == declared == rounds + 7
        assert takes_shared_path(graph, algorithm, ids, inputs=orient_path_inputs(graph))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9, 10, 33, 100, 300])
    def test_paths(self, n):
        graph = path(n)
        ids = random_ids(graph, seed=n)
        rounds = ChainColeVishkin()._cv_rounds(n)
        record = assert_same(run_chain(graph, ids))
        assert record[0] == "result"
        assert record[2] == path_probes(n, rounds)
        assert takes_shared_path(
            graph, ChainColeVishkin(), ids, inputs=orient_path_inputs(graph)
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [3, 6, 9, 14, 39])
    def test_id_assignments(self, n, seed):
        for graph in (cycle(n), path(n)):
            record = assert_same(run_chain(graph, random_ids(graph, seed=seed)))
            assert record[0] == "result"

    def test_reversed_orientation_is_consistent(self):
        graph = cycle(20)
        inputs = HalfEdgeLabeling(graph)
        for v, port in graph.half_edges():
            inputs[(v, port)] = (
                PREDECESSOR if orient_path_inputs(graph)[(v, port)] == SUCCESSOR else SUCCESSOR
            )
        ids = random_ids(graph, seed=3)
        record = assert_same(run_chain(graph, ids, inputs=inputs))
        assert record[0] == "result"
        assert takes_shared_path(graph, ChainColeVishkin(), ids, inputs=inputs)

    def test_disjoint_union_with_isolated_nodes(self):
        graph = disjoint_union([path(5), Graph(1), path(7), Graph(2), path(14)])
        ids = random_ids(graph, seed=12)
        record = assert_same(run_chain(graph, ids))
        assert record[0] == "result"
        assert [record[2][v] for v in (5, 13, 14)] == [0, 0, 0]
        assert takes_shared_path(
            graph, ChainColeVishkin(), ids, inputs=orient_path_inputs(graph)
        )


    def test_disjoint_union_of_cycles_is_oriented(self):
        # Every cycle component wraps from its last node to its first,
        # not only a cycle that is the whole graph.
        graph = disjoint_union([cycle(5), Graph(1), cycle(13), path(4), cycle(3)])
        inputs = orient_path_inputs(graph)
        successors = {
            v: [graph.neighbor(v, p) for p in range(graph.degree(v)) if inputs[(v, p)] == SUCCESSOR]
            for v in range(graph.num_nodes)
        }
        # Node 5 is isolated and node 22 ends the path; every other node,
        # each cycle node included, has exactly one successor.
        assert successors[5] == successors[22] == []
        assert all(len(successors[v]) == 1 for v in successors if v not in (5, 22))
        assert [successors[v] for v in (4, 18, 25)] == [[0], [6], [23]]
        ids = random_ids(graph, seed=6)
        record = assert_same(run_chain(graph, ids))
        assert record[0] == "result"
        assert takes_shared_path(graph, ChainColeVishkin(), ids, inputs=inputs)


class TestChainColeVishkinFallback:
    @pytest.mark.parametrize("node", [0, 4, 9])
    def test_one_node_with_flipped_labels(self, node):
        # The flipped node's predecessor does not name it as successor.
        graph = cycle(10)
        inputs = relabeled(
            graph,
            {
                (node, port): PREDECESSOR
                if orient_path_inputs(graph)[(node, port)] == SUCCESSOR
                else SUCCESSOR
                for port in range(2)
            },
        )
        ids = random_ids(graph, seed=node)
        assert_same(run_chain(graph, ids, inputs=inputs))
        assert not takes_shared_path(graph, ChainColeVishkin(), ids, inputs=inputs)

    def test_successor_whose_predecessor_is_another_node(self):
        # 0 -> 1 <- 2: node 1 names 2 as predecessor and 0 as successor,
        # and 2 names 1 as successor, so every predecessor's successor is
        # right, but node 0's successor has another predecessor.
        graph = path(3)
        inputs = HalfEdgeLabeling(
            graph,
            {(0, 0): SUCCESSOR, (1, 0): SUCCESSOR, (1, 1): PREDECESSOR, (2, 0): SUCCESSOR},
        )
        ids = [5, 2, 7]
        assert_same(run_chain(graph, ids, inputs=inputs))
        assert not takes_shared_path(graph, ChainColeVishkin(), ids, inputs=inputs)

    def test_both_ports_successor(self):
        graph = cycle(8)
        inputs = relabeled(graph, {(3, 0): SUCCESSOR, (3, 1): SUCCESSOR})
        assert_same(run_chain(graph, inputs=inputs))

    def test_no_orientation_labels(self):
        # No SUCCESSOR port anywhere: no probes, and CV keeps id & 1.
        graph = cycle(9)
        ids = random_ids(graph, seed=4)
        record = assert_same(run_chain(graph, ids, inputs=None))
        assert record[0] == "result" and record[2] == [0] * 9
        assert dict(record[1]) == {
            (v, p): f"c{ids[v] & 1}" for v in range(9) for p in range(2)
        }
        assert takes_shared_path(graph, ChainColeVishkin(), ids)

    def test_some_nodes_without_labels(self):
        graph = cycle(12)
        inputs = relabeled(graph, {(4, 0): "x", (4, 1): "x", (9, 1): None})
        ids = random_ids(graph, seed=6)
        assert_same(run_chain(graph, ids, inputs=inputs))
        assert not takes_shared_path(graph, ChainColeVishkin(), ids, inputs=inputs)

    def test_duplicate_ids(self):
        graph = cycle(6)
        record = assert_same(run_chain(graph, ids=[1, 2, 3, 3, 4, 5]))
        assert record == (
            "raised",
            SimulationError,
            "identifiers must be distinct, one per node",
        )

    @pytest.mark.parametrize("declared_n", [2, 3, 5, 8, 10**4, 10**9])
    def test_declared_n_differs_from_n(self, declared_n):
        for graph in (cycle(20), path(15), cycle(5)):
            assert_same(run_chain(graph, declared_n=declared_n))

    def test_too_few_rounds_leave_a_color_above_five(self):
        # id_exponent 1 at declared_n 2: no CV round, so ids stay colors.
        graph = cycle(30)
        ids = random_ids(graph, seed=1)
        algorithm = ChainColeVishkin(id_exponent=1)
        assert algorithm._cv_rounds(2) == 0
        record = assert_same(run_chain(graph, ids, declared_n=2, algorithm=algorithm))
        assert record == (
            "raised", AlgorithmError, "chain CV failed to color the queried node"
        )
        assert not takes_shared_path(
            graph, algorithm, ids, declared_n=2, inputs=orient_path_inputs(graph)
        )

    def test_budget_below_the_walk(self):
        # A hook asked with a smaller budget than its walk declines.
        graph = cycle(16)
        algorithm = ChainColeVishkin()
        oracle = ProbeOracle(graph, orient_path_inputs(graph), random_ids(graph, seed=1))
        assert algorithm.answer_all(oracle, algorithm.probes(16) - 1, 16) is None
        assert algorithm.answer_all(oracle, algorithm.probes(16), 16) is not None

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=24),
        st.booleans(),
        st.lists(st.sampled_from([SUCCESSOR, PREDECESSOR, None]), max_size=6),
        st.integers(min_value=0, max_value=1000),
    )
    def test_property_random_labels(self, n, closed, labels, seed):
        graph = cycle(n) if closed and n >= 3 else path(n)
        half_edges = list(graph.half_edges())
        changes = {
            half_edges[(seed * (i + 1)) % len(half_edges)]: label
            for i, label in enumerate(labels)
        }
        assert_same(
            run_chain(graph, random_ids(graph, seed=seed), inputs=relabeled(graph, changes))
        )


class TestChainColeVishkinWrappers:
    class Shifted(ChainColeVishkin):
        name = "chain-cv-shifted"

        def answer(self, query):
            return {port: label + "'" for port, label in super().answer(query).items()}

    def test_subclass_overriding_answer_keeps_the_per_node_path(self):
        graph = cycle(11)
        algorithm = self.Shifted()
        ids = random_ids(graph, seed=8)
        inputs = orient_path_inputs(graph)
        assert not takes_shared_path(graph, algorithm, ids, inputs=inputs)
        record = assert_same(run_chain(graph, ids, algorithm=algorithm))
        assert all(label.endswith("'") for _, label in record[1])

    class Strict(ChainColeVishkin):
        """Refuses one identifier: the hook raises, then every query does."""

        name = "chain-cv-strict"

        @staticmethod
        def _cv_step(color, successor_color):
            if color == 17:
                raise AlgorithmError("equal colors across a path edge")
            return ChainColeVishkin._cv_step(color, successor_color)

    def test_hook_error_falls_back_to_the_first_query_error(self):
        graph = cycle(12)
        ids = [30 + v for v in range(12)]
        ids[7] = 17
        algorithm = self.Strict()
        inputs = orient_path_inputs(graph)
        with pytest.raises(AlgorithmError):
            takes_shared_path(graph, algorithm, ids, inputs=inputs)
        record = assert_same(run_chain(graph, ids, algorithm=algorithm))
        assert record == ("raised", AlgorithmError, "equal colors across a path edge")

    @pytest.mark.parametrize("n0", [2, 8, 64, 10**6])
    def test_fooled_constant_volume(self, n0):
        graph = cycle(40)
        fooled = fooled_constant_volume(ChainColeVishkin(), n0)
        assert_same(run_chain(graph, algorithm=fooled))

    @pytest.mark.parametrize("n", [3, 10, 33])
    def test_lca_runner_agrees(self, n):
        for graph in (cycle(n), path(n)):
            inputs = orient_path_inputs(graph)
            lca = run_lca_algorithm(graph, ChainColeVishkin(), inputs=inputs)
            volume = run_volume_algorithm(graph, ChainColeVishkin(), inputs=inputs)
            assert sorted(lca.outputs.items()) == sorted(volume.outputs.items())
            assert lca.max_probes_used == volume.max_probes_used
            assert lca.far_probes_used == 0
