"""Property tests: the iterative-replay equivalence (message passing = balls).

The :class:`IterativeAlgorithm` machinery rests on one claim: replaying a
synchronous schedule inside each node's radius-``T`` ball computes exactly
the state the global synchronous execution would.  These tests check that
claim directly by comparing the replay against a straightforward global
simulator on random trees and cycles.

The replay itself steps a flat BFS-ordered prefix of the ball over a
precomputed neighbor table; it is held identical (per-node states,
outputs, radius charges) to the per-round loop it replaced, which lives
on below as :func:`oracle_replay`.
"""

from types import MethodType
from typing import Any, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import cycle, path, random_ids, random_tree
from repro.graphs.balls import extract_ball
from repro.grids import GridProductColoring, OrientedGrid, prod_ids
from repro.local import IterativeAlgorithm, LubyMIS, run_local_algorithm
from repro.local.algorithms.cole_vishkin import (
    ColeVishkinColoring,
    orient_path_inputs,
    palette_schedule,
)
from repro.local.algorithms.linial import LinialColoring, reduction_schedule
from repro.local.algorithms.mis import ColorClassMIS
from repro.utils.rng import SplittableRNG


class SumOfIdsFlood(IterativeAlgorithm):
    """State: sum over ids seen so far via repeated neighbor folding."""

    name = "sum-flood"
    finalize_lookahead = 0

    def __init__(self, rounds):
        self._rounds = rounds

    def rounds(self, n):
        return self._rounds

    def initial_state(self, node_id, degree, inputs, bits, n):
        return (node_id, node_id)

    def step(self, round_index, state, neighbor_states, n):
        # Deliberately non-idempotent: accumulates with multiplicity, so
        # any replay discrepancy (wrong rounds, wrong neighbors) shows up.
        my_id, total = state
        folded = total + sum(s[1] for s in neighbor_states if s is not None)
        return (my_id, folded)

    def finalize(self, state, neighbor_states, degree, inputs, n):
        return {p: state[1] for p in range(degree)}


def global_simulation(graph, ids, rounds):
    states = [(i, i) for i in ids]
    for _ in range(rounds):
        nxt = []
        for v in range(graph.num_nodes):
            total = states[v][1] + sum(states[u][1] for u in graph.neighbors(v))
            nxt.append((states[v][0], total))
        states = nxt
    return [s[1] for s in states]


class TestReplayEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=18),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=4),
    )
    def test_property_matches_global_simulation_on_trees(self, n, seed, rounds):
        graph = random_tree(n, max_degree=3, seed=seed)
        ids = random_ids(graph, seed=seed)
        expected = global_simulation(graph, ids, rounds)
        result = run_local_algorithm(graph, SumOfIdsFlood(rounds), ids=ids)
        for v in range(graph.num_nodes):
            for port in range(graph.degree(v)):
                assert result.outputs[(v, port)] == expected[v]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=3, max_value=15), st.integers(min_value=0, max_value=4))
    def test_property_matches_on_cycles(self, n, rounds):
        graph = cycle(n)
        ids = random_ids(graph, seed=n)
        expected = global_simulation(graph, ids, rounds)
        result = run_local_algorithm(graph, SumOfIdsFlood(rounds), ids=ids)
        for v in range(graph.num_nodes):
            assert result.outputs[(v, 0)] == expected[v]

    def test_declared_radius_equals_rounds(self):
        graph = path(9)
        result = run_local_algorithm(
            graph, SumOfIdsFlood(3), ids=random_ids(graph, seed=1)
        )
        assert result.declared_radius == 3
        assert result.max_radius_used == 3


# ---------------------------------------------------------------------------
# Differential: the flat BFS-prefix replay against the per-round oracle loop.


def oracle_replay(self, ball, total_rounds, n):
    """The per-round replay loop the flat replay replaced, kept as its oracle."""
    states: List[Any] = [
        self.initial_state(ball.ids[v], ball.degrees[v], ball.inputs[v], ball.bits[v], n)
        for v in range(ball.num_nodes)
    ]
    horizon = ball.radius
    for round_index in range(total_rounds):
        # After this round, states are determined for nodes at distance
        # <= horizon - (round_index + 1) from the center.
        determined_up_to = horizon - (round_index + 1)
        next_states = list(states)
        for v in range(ball.num_nodes):
            if ball.distance[v] > determined_up_to:
                next_states[v] = None
                continue
            next_states[v] = self.step(
                round_index, states[v], self._neighbor_states(ball, v, states), n
            )
        states = next_states
    return states


def node_bits(graph, algorithm, seed):
    root = SplittableRNG(seed)
    return [
        root.child("node-bits", v).bits(algorithm.bits_per_node)
        for v in range(graph.num_nodes)
    ]


def assert_replay_matches_oracle(
    graph, algorithm, inputs=None, ids=None, bits=None, nodes=None
):
    n = graph.num_nodes
    total_rounds = algorithm.rounds(n)
    radius = algorithm.radius(n)
    targets = range(n) if nodes is None else nodes
    # Besides the run's own horizon (where a lookahead-0 algorithm ends
    # with the center's neighbors None): one too short to determine even
    # the center, and one wider than needed.
    horizons = sorted({radius, max(0, total_rounds - 1), radius + 2})
    for v in targets:
        for horizon in horizons:
            ball = extract_ball(graph, v, horizon, inputs, ids, bits)
            flat = algorithm._replay(ball, total_rounds, n)
            assert flat == oracle_replay(algorithm, ball, total_rounds, n), (v, horizon)
    flat_run = run_local_algorithm(
        graph, algorithm, inputs=inputs, ids=ids, bits=bits, nodes=nodes
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithm, "_replay", MethodType(oracle_replay, algorithm))
        oracle_run = run_local_algorithm(
            graph, algorithm, inputs=inputs, ids=ids, bits=bits, nodes=nodes
        )
    assert dict(flat_run.outputs.items()) == dict(oracle_run.outputs.items())
    assert flat_run.radius_per_node == oracle_run.radius_per_node
    assert flat_run.declared_radius == oracle_run.declared_radius


class TestFlatReplayMatchesOracle:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=100))
    def test_linial_on_random_trees(self, n, seed):
        graph = random_tree(n, max_degree=3, seed=seed)
        nodes = None if n <= 16 else range(seed % 5, n, 5)
        assert_replay_matches_oracle(
            graph, LinialColoring(max_degree=3),
            ids=random_ids(graph, seed=seed), nodes=nodes,
        )

    @pytest.mark.parametrize("n", [3, 8, 31])
    def test_cole_vishkin_on_oriented_cycles(self, n):
        graph = cycle(n)
        assert_replay_matches_oracle(
            graph, ColeVishkinColoring(),
            inputs=orient_path_inputs(graph), ids=random_ids(graph, seed=n),
        )

    @pytest.mark.parametrize("side", [3, 5])
    def test_grid_product_coloring_on_torus(self, side):
        grid = OrientedGrid([side, side])
        assert_replay_matches_oracle(
            grid.graph, GridProductColoring(dimensions=2),
            inputs=grid.orientation_inputs(), ids=prod_ids(grid, seed=side),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_color_class_mis_on_cycles(self, seed):
        graph = cycle(12)
        assert_replay_matches_oracle(
            graph, ColorClassMIS(ColeVishkinColoring()),
            inputs=orient_path_inputs(graph), ids=random_ids(graph, seed=seed),
        )

    def test_color_class_mis_on_trees(self):
        graph = random_tree(14, max_degree=3, seed=4)
        assert_replay_matches_oracle(
            graph, ColorClassMIS(LinialColoring(max_degree=3)),
            ids=random_ids(graph, seed=4),
        )

    @pytest.mark.parametrize("seed", [5, 6])
    def test_seeded_luby_mis(self, seed):
        graph = random_tree(30, max_degree=3, seed=seed)
        algorithm = LubyMIS(phases=4)
        assert_replay_matches_oracle(
            graph, algorithm,
            ids=random_ids(graph, seed=seed), bits=node_bits(graph, algorithm, seed),
        )

    def test_ports_missing_from_adj_read_none(self):
        # A hand-trimmed ball: ports absent from `adj` must read None in
        # both replays, not a neighbor's state.
        graph = random_tree(20, max_degree=3, seed=7)
        algorithm = SumOfIdsFlood(3)
        ball = extract_ball(graph, 0, 4, ids=random_ids(graph, seed=7))
        for v in range(ball.num_nodes):
            if ball.distance[v] == 1:
                ball.adj[v].pop(max(ball.adj[v]))
        assert algorithm._replay(ball, 3, 20) == oracle_replay(algorithm, ball, 3, 20)


# ---------------------------------------------------------------------------
# Invariants the flat replay relies on.


def _grid_graph(side):
    return OrientedGrid([side, side]).graph


class TestReplayInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["tree", "cycle", "grid"]),
        st.integers(min_value=3, max_value=30),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=8),
    )
    def test_ball_distance_never_decreases(self, family, size, seed, radius):
        if family == "tree":
            graph = random_tree(size, max_degree=4, seed=seed)
        elif family == "cycle":
            graph = cycle(size)
        else:
            graph = _grid_graph(3 + size % 5)
        center = seed % graph.num_nodes
        ball = extract_ball(graph, center, radius)
        assert ball.distance == sorted(ball.distance)
        assert ball.distance[0] == 0

    @pytest.mark.parametrize("palette", [2, 25, 10**3, 10**9, 2**64 + 1])
    @pytest.mark.parametrize("max_degree", [1, 3, 7])
    def test_reduction_schedule_memo_matches_uncached(self, palette, max_degree):
        cached = reduction_schedule(palette, max_degree)
        assert isinstance(cached, tuple)
        assert all(isinstance(entry, tuple) for entry in cached)
        assert cached == reduction_schedule.__wrapped__(palette, max_degree)
        assert reduction_schedule(palette, max_degree) is cached

    @pytest.mark.parametrize("palette", [2, 6, 7, 10**3, 10**9, 2**64 + 1])
    def test_palette_schedule_memo_matches_uncached(self, palette):
        cached = palette_schedule(palette)
        assert isinstance(cached, tuple)
        assert cached == palette_schedule.__wrapped__(palette)
        assert palette_schedule(palette) is cached
