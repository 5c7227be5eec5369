"""Tests for the LOCAL simulator: contexts, charging, iterative replay."""

import pytest

from repro.exceptions import AlgorithmError, SimulationError
from repro.graphs import HalfEdgeLabeling, cycle, path, random_ids, star
from repro.local import (
    IterativeAlgorithm,
    LocalAlgorithm,
    run_local_algorithm,
)
from repro.local.model import NodeContext


class EchoInputs(LocalAlgorithm):
    """0-round: copy the input of each half-edge to its output."""

    name = "echo-inputs"

    def radius(self, n):
        return 0

    def run(self, ctx):
        return {p: ctx.input(p) for p in range(ctx.degree)}


class NeighborIds(LocalAlgorithm):
    """1-round: output the neighbor's ID on each half-edge."""

    name = "neighbor-ids"

    def radius(self, n):
        return 1

    def run(self, ctx):
        ball = ctx.ball(1)
        outputs = {}
        for port in range(ball.center_degree()):
            local, _ = ball.adj[0][port]
            outputs[port] = ball.ids[local]
        return outputs


class Overreacher(LocalAlgorithm):
    """Declares radius 1 but reads radius 2."""

    name = "overreacher"

    def radius(self, n):
        return 1

    def run(self, ctx):
        ctx.ball(2)
        return {p: "x" for p in range(ctx.degree)}


class CountToThree(IterativeAlgorithm):
    """Iterative smoke test: state counts rounds; output = final count."""

    name = "count-to-three"
    finalize_lookahead = 0

    def rounds(self, n):
        return 3

    def initial_state(self, node_id, degree, inputs, bits, n):
        return 0

    def step(self, round_index, state, neighbor_states, n):
        assert all(s == state for s in neighbor_states if s is not None)
        return state + 1

    def finalize(self, state, neighbor_states, degree, inputs, n):
        return {p: state for p in range(degree)}


class SumIdsWithinRadius(IterativeAlgorithm):
    """Output the sum of IDs within distance = rounds (flood aggregation)."""

    name = "sum-ids"
    finalize_lookahead = 0

    def __init__(self, rounds):
        self._rounds = rounds

    def rounds(self, n):
        return self._rounds

    def initial_state(self, node_id, degree, inputs, bits, n):
        return {node_id}

    def step(self, round_index, state, neighbor_states, n):
        merged = set(state)
        for s in neighbor_states:
            if s is not None:
                merged |= s
        return merged

    def finalize(self, state, neighbor_states, degree, inputs, n):
        return {p: sum(state) for p in range(degree)}


class TestRunLocalAlgorithm:
    def test_zero_round_outputs(self):
        g = path(4)
        inputs = HalfEdgeLabeling(g, {h: f"in{h}" for h in g.half_edges()})
        result = run_local_algorithm(g, EchoInputs(), inputs=inputs)
        assert result.max_radius_used == 0
        for h in g.half_edges():
            assert result.outputs[h] == f"in{h}"

    def test_one_round_sees_neighbors(self):
        g = star(3)
        ids = [10, 20, 30, 40]
        result = run_local_algorithm(g, NeighborIds(), ids=ids)
        assert result.outputs[(0, 0)] == 20
        assert result.outputs[(1, 0)] == 10
        assert result.max_radius_used == 1

    def test_radius_enforcement(self):
        g = path(5)
        with pytest.raises(AlgorithmError):
            run_local_algorithm(g, Overreacher())

    def test_radius_enforcement_can_be_disabled(self):
        g = path(5)
        result = run_local_algorithm(g, Overreacher(), enforce_radius=False)
        assert result.max_radius_used == 2
        assert not result.within_declared_radius

    def test_duplicate_ids_rejected(self):
        g = path(3)
        with pytest.raises(SimulationError):
            run_local_algorithm(g, NeighborIds(), ids=[1, 1, 2])

    def test_missing_port_output_rejected(self):
        class Lazy(LocalAlgorithm):
            name = "lazy"

            def radius(self, n):
                return 0

            def run(self, ctx):
                return {}

        g = path(3)
        with pytest.raises(AlgorithmError):
            run_local_algorithm(g, Lazy())

    def test_randomized_requires_seed(self):
        class Coin(LocalAlgorithm):
            name = "coin"
            bits_per_node = 8

            def radius(self, n):
                return 0

            def run(self, ctx):
                return {p: ctx.my_bits[0] for p in range(ctx.degree)}

        g = path(3)
        with pytest.raises(SimulationError):
            run_local_algorithm(g, Coin())
        result = run_local_algorithm(g, Coin(), seed=7)
        repeat = run_local_algorithm(g, Coin(), seed=7)
        for h in g.half_edges():
            assert result.outputs[h] == repeat.outputs[h]

    def test_declared_n_override(self):
        class ReportN(LocalAlgorithm):
            name = "report-n"

            def radius(self, n):
                return 0

            def run(self, ctx):
                return {p: ctx.declared_n for p in range(ctx.degree)}

        g = path(3)
        result = run_local_algorithm(g, ReportN(), declared_n=999)
        assert result.outputs[(0, 0)] == 999


class TestDelegationCharging:
    def test_delegate_charges_one_hop(self):
        class AskNeighborInput(LocalAlgorithm):
            name = "ask-neighbor"

            def radius(self, n):
                return 1

            def run(self, ctx):
                outputs = {}
                for port in range(ctx.degree):
                    neighbor = ctx.delegate(port)
                    outputs[port] = neighbor.input(0)
                return outputs

        g = path(3)
        inputs = HalfEdgeLabeling(g, {h: h[0] * 10 + h[1] for h in g.half_edges()})
        result = run_local_algorithm(g, AskNeighborInput(), inputs=inputs)
        assert result.max_radius_used == 1

    def test_nested_delegation_accumulates(self):
        class TwoHops(LocalAlgorithm):
            name = "two-hops"

            def radius(self, n):
                return 2

            def run(self, ctx):
                for port in range(ctx.degree):
                    neighbor = ctx.delegate(port)
                    for neighbor_port in range(neighbor.degree):
                        neighbor.delegate(neighbor_port).my_id
                return {p: "x" for p in range(ctx.degree)}

        g = path(4)
        result = run_local_algorithm(g, TwoHops(), ids=random_ids(g))
        assert result.max_radius_used == 2


class TestIterativeReplay:
    def test_round_counting(self):
        g = cycle(8)
        result = run_local_algorithm(g, CountToThree())
        for h in g.half_edges():
            assert result.outputs[h] == 3

    def test_flood_aggregation_matches_truth(self):
        g = path(7)
        ids = [5, 11, 2, 7, 3, 13, 1]
        radius = 2
        result = run_local_algorithm(g, SumIdsWithinRadius(radius), ids=ids)
        for v in range(g.num_nodes):
            expected = sum(ids[u] for u, d in g.bfs_distances(v).items() if d <= radius)
            for port in range(g.degree(v)):
                assert result.outputs[(v, port)] == expected

    def test_declared_radius_matches_rounds_plus_lookahead(self):
        algorithm = SumIdsWithinRadius(3)
        assert algorithm.radius(100) == 3  # finalize_lookahead = 0
        algorithm.finalize_lookahead = 1
        assert algorithm.radius(100) == 4


class CrashAtNode(LocalAlgorithm):
    """Raises a low-level error at one node; elsewhere outputs 'x'."""

    name = "crash-at-node"

    def __init__(self, bad_node):
        self.bad_node = bad_node

    def radius(self, n):
        return 0

    def run(self, ctx):
        if ctx.node == self.bad_node:
            raise KeyError("missing lookup-table entry")
        return {port: "x" for port in range(ctx.degree)}


class RaisesSimulationError(LocalAlgorithm):
    name = "raises-simulation-error"

    def radius(self, n):
        return 0

    def run(self, ctx):
        raise SimulationError("deliberate structured failure")


class TestStructuredFailureSurfacing:
    def test_crash_surfaces_as_node_execution_error(self):
        from repro.exceptions import NodeExecutionError

        with pytest.raises(NodeExecutionError) as excinfo:
            run_local_algorithm(cycle(6), CrashAtNode(bad_node=4))
        error = excinfo.value
        assert error.node == 4
        assert error.algorithm == "crash-at-node"
        assert "node 4" in str(error)
        assert "KeyError" in str(error)
        assert isinstance(error.__cause__, KeyError)

    @pytest.mark.parametrize("bad", [-1, 6, 100])
    def test_target_outside_the_graph_is_a_caller_error(self, bad):
        from repro.exceptions import NodeExecutionError

        for algorithm in (CrashAtNode(bad_node=None), SumIdsWithinRadius(1)):
            with pytest.raises(SimulationError) as excinfo:
                run_local_algorithm(
                    cycle(6), algorithm, ids=list(range(6)), nodes=[0, bad]
                )
            assert not isinstance(excinfo.value, NodeExecutionError)
            assert f"target node {bad} " in str(excinfo.value)

    def test_duplicate_targets_charge_once_per_occurrence(self):
        result = run_local_algorithm(
            cycle(6), SumIdsWithinRadius(2), ids=list(range(6)), nodes=[3, 3, 1, 3]
        )
        assert result.radius_per_node == [2, 2, 2, 2]

    def test_repro_errors_pass_through_untranslated(self):
        from repro.exceptions import NodeExecutionError

        with pytest.raises(SimulationError) as excinfo:
            run_local_algorithm(cycle(6), RaisesSimulationError())
        assert not isinstance(excinfo.value, NodeExecutionError)

    def test_estimate_strict_reraises_with_seed(self):
        from repro.exceptions import NodeExecutionError
        from repro.lcl import catalog
        from repro.local.randomized import estimate_local_failure

        with pytest.raises(NodeExecutionError) as excinfo:
            estimate_local_failure(
                catalog.coloring(3, 2),
                cycle(6),
                CrashAtNode(bad_node=2),
                seeds=[17, 18],
            )
        assert excinfo.value.node == 2
        assert "trial seed 17" in str(excinfo.value)

    def test_estimate_non_strict_counts_crashes_as_failures(self):
        from repro.lcl import catalog
        from repro.local.randomized import estimate_local_failure

        estimate = estimate_local_failure(
            catalog.coloring(3, 2),
            cycle(6),
            CrashAtNode(bad_node=2),
            seeds=[17, 18, 19],
            strict=False,
        )
        assert estimate["crashed"] == 1.0
        assert estimate["global"] == 1.0
        assert estimate["local"] == 1.0

    def test_estimate_reports_zero_crashed_on_clean_runs(self):
        from repro.lcl import catalog
        from repro.local.randomized import RandomizedTrialColoring, estimate_local_failure

        estimate = estimate_local_failure(
            catalog.coloring(3, 2),
            cycle(6),
            RandomizedTrialColoring(2, trial_rounds=3),
            seeds=list(range(5)),
            ids=random_ids(cycle(6), seed=3),
        )
        assert estimate["crashed"] == 0.0
