"""Differential: the shared dimension-0 probe against its per-target oracle.

A simulator run executes :class:`~repro.grids.DimensionLengthProbe` once
for all targets (:meth:`DimensionLengthProbe.run_targets`): it follows the
forward ports around each target's dimension-0 cycle and charges the
smallest radius whose ball shows every edge of the cycle.  These tests
hold that shared execution to :meth:`DimensionLengthProbe.run`, which
grows the ball radius by radius at each target: equal outputs and equal
per-node charges, or the same exception type and message where the
graph is not a torus.
"""

import pytest

from repro.graphs.core import Graph, HalfEdgeLabeling
from repro.grids import DimensionLengthProbe, OrientedGrid
from repro.local.model import run_local_algorithm

from tests.test_ball_growth import RewalkingProbe

TORI = [[side, side] for side in range(4, 14)] + [[5, 9], [11, 4], [4, 5, 6]]


def outcome(graph, algorithm, **kwargs):
    """``(outputs, radius_per_node, declared_radius)`` or the raised error."""
    try:
        result = run_local_algorithm(graph, algorithm, **kwargs)
    except Exception as error:  # compared by type and message below
        return ("raised", type(error), str(error))
    return (dict(result.outputs.items()), result.radius_per_node, result.declared_radius)


def shared_and_oracle(graph, **kwargs):
    probe = DimensionLengthProbe()
    calls = []
    original = probe.run_targets

    def spy(*args):
        result = original(*args)
        calls.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(probe, "run_targets", spy)
        shared = outcome(graph, probe, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(probe, "run_targets", lambda *args: None)
        oracle = outcome(graph, probe, **kwargs)
    assert shared == oracle
    return shared, calls


def oriented(num_nodes, forward_edges):
    """A graph whose edge ``(u, v)`` points forward along dimension 0 from
    ``u`` to ``v``; nodes on no edge are isolated."""
    graph = Graph(num_nodes, forward_edges)
    inputs = HalfEdgeLabeling(graph)
    for u, v in forward_edges:
        inputs[(u, graph.port_to(u, v))] = (0, +1)
        inputs[(v, graph.port_to(v, u))] = (0, -1)
    return graph, inputs


def ring(nodes):
    return list(zip(nodes, nodes[1:] + nodes[:1]))


class TestSharedProbeMatchesPerTargetRuns:
    @pytest.mark.parametrize("sides", TORI, ids=lambda sides: "x".join(map(str, sides)))
    def test_tori(self, sides):
        grid = OrientedGrid(sides)
        (outputs, charges, _), calls = shared_and_oracle(
            grid.graph, inputs=grid.orientation_inputs()
        )
        assert calls == [True], "the torus fell back to per-target runs"
        assert set(outputs.values()) == {sides[0]}
        assert len(set(charges)) == 1

    @pytest.mark.parametrize("nodes", [[0], [7, 3, 7, 7], [24, 0, 12, 24], []])
    def test_sampled_and_duplicate_targets(self, nodes):
        grid = OrientedGrid([5, 5])
        (outputs, charges, _), calls = shared_and_oracle(
            grid.graph, inputs=grid.orientation_inputs(), nodes=nodes
        )
        assert calls == ([True] if nodes else [])
        assert len(charges) == len(nodes)

    @pytest.mark.parametrize("declared_n", [1, 3, 6])
    def test_declared_n_too_small_to_wrap(self, declared_n):
        grid = OrientedGrid([13, 13])
        shared, calls = shared_and_oracle(
            grid.graph, inputs=grid.orientation_inputs(), declared_n=declared_n
        )
        assert shared[0] == "raised" and "never wrapped" in shared[2]
        assert calls == [False]

    def test_declared_n_just_large_enough(self):
        grid = OrientedGrid([13, 13])
        (_, charges, declared), calls = shared_and_oracle(
            grid.graph, inputs=grid.orientation_inputs(), declared_n=7
        )
        assert calls == [True]
        assert set(charges) == {declared} == {7}

    def test_without_inputs(self):
        grid = OrientedGrid([5, 5])
        shared, calls = shared_and_oracle(grid.graph)
        assert shared[0] == "raised" and "missing orientation inputs" in shared[2]
        assert calls == [False]

    def test_isolated_node(self):
        graph, inputs = oriented(6, ring([0, 1, 2, 3, 4]))
        shared, calls = shared_and_oracle(graph, inputs=inputs)
        assert shared[0] == "raised" and "missing orientation inputs" in shared[2]
        assert calls == [False]
        # Targets away from the isolated node still share one execution.
        (outputs, _, _), calls = shared_and_oracle(graph, inputs=inputs, nodes=[4, 0, 2])
        assert calls == [True]
        assert set(outputs.values()) == {5}

    @pytest.mark.parametrize("tail", [1, 3])
    def test_walk_entering_a_cycle_that_skips_the_start(self, tail):
        # 0 -> ... -> tail -> loop of 3 back to `tail`: the walk from a
        # tail node never returns to it (and once looped forever in `run`).
        path = list(range(tail + 1))
        loop = [tail, tail + 1, tail + 2]
        graph, inputs = oriented(tail + 3, list(zip(path, path[1:])) + ring(loop))
        shared, calls = shared_and_oracle(graph, inputs=inputs)
        assert shared[0] == "raised" and "never wrapped" in shared[2]
        assert calls == [False]
        (outputs, charges, _), calls = shared_and_oracle(graph, inputs=inputs, nodes=loop)
        assert calls == [True]
        assert set(outputs.values()) == {3}
        assert charges == [2, 2, 2]

    def test_targets_with_different_charges(self):
        # Cycles of lengths 3 and 6 wrap at radii 2 and 3.
        graph, inputs = oriented(9, ring([0, 1, 2]) + ring([3, 4, 5, 6, 7, 8]))
        (outputs, charges, _), calls = shared_and_oracle(graph, inputs=inputs)
        assert calls == [False]
        assert sorted(set(charges)) == [2, 3]
        assert sorted(set(outputs.values())) == [3, 6]

    def test_a_probe_that_overrides_run_keeps_the_per_target_path(self):
        grid = OrientedGrid([5, 5])
        targets = range(grid.graph.num_nodes)
        inputs = grid.orientation_inputs()
        n = grid.graph.num_nodes
        assert RewalkingProbe().run_targets(grid.graph, targets, n, inputs, None, None) is None
        assert DimensionLengthProbe().run_targets(grid.graph, targets, n, inputs, None, None)
