"""Property tests: the iterative-replay equivalence (message passing = balls).

The :class:`IterativeAlgorithm` machinery rests on one claim: replaying a
synchronous schedule inside each node's radius-``T`` ball computes exactly
the state the global synchronous execution would.  These tests check that
claim directly by comparing the replay against a straightforward global
simulator on random trees and cycles.

Two differentials hold the fast paths to their oracles:

* the flat BFS-prefix replay of one ball against the per-round loop it
  replaced, which lives on below as :func:`oracle_replay`;
* the one shared schedule a simulator run executes over all its targets
  (:meth:`IterativeAlgorithm.run_targets`) against the per-target ball
  replay of :meth:`IterativeAlgorithm.run`: equal outputs, per-node
  charges, declared radius and errors.

Linial's colour-retirement rounds are sparse: the replay steps only the
nodes holding the retiring colour (:meth:`IterativeAlgorithm.moving_state`),
and both differentials above hold them to the dense oracle.
"""

from typing import Any, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AlgorithmError, NodeExecutionError
from repro.graphs import cycle, path, random_ids, random_tree
from repro.graphs.balls import extract_ball, extract_region
from repro.grids import GridProductColoring, OrientedGrid, prod_ids
from repro.local import (
    IterativeAlgorithm,
    LubyMIS,
    RandomizedTrialColoring,
    run_local_algorithm,
)
from repro.local.algorithms.cole_vishkin import (
    ColeVishkinColoring,
    orient_path_inputs,
    palette_schedule,
)
from repro.local.algorithms.linial import LinialColoring, reduction_schedule
from repro.local.algorithms.mis import ColorClassMIS, GreedyMatchingFromColoring
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


def per_target_run(graph, algorithm, **kwargs):
    """The simulator without the shared schedule: ``run`` replays each ball."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithm, "run_targets", lambda *args: None)
        return run_local_algorithm(graph, algorithm, **kwargs)


def shared_run(graph, algorithm, **kwargs):
    """The simulator as shipped, asserting the shared schedule really ran."""
    ran = []
    original = algorithm.run_targets

    def spy(*args):
        result = original(*args)
        ran.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithm, "run_targets", spy)
        result = run_local_algorithm(graph, algorithm, **kwargs)
    assert ran == [True], "the run fell back to per-target replays"
    return result


def assert_shared_matches_per_target(graph, algorithm, **kwargs):
    shared = shared_run(graph, algorithm, **kwargs)
    oracle = per_target_run(graph, algorithm, **kwargs)
    assert dict(shared.outputs.items()) == dict(oracle.outputs.items())
    assert shared.radius_per_node == oracle.radius_per_node
    assert shared.declared_radius == oracle.declared_radius
    assert shared.max_radius_used == oracle.max_radius_used
    return shared


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
    assert_shared_matches_per_target(
        graph, algorithm, inputs=inputs, ids=ids, bits=bits, nodes=nodes
    )


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
# Differential: Linial's sparse sweep rounds against the dense oracle.


def linial_graph(max_degree, seed):
    n = 20 + 11 * seed
    if max_degree == 2 and seed % 2:
        return cycle(n)
    return random_tree(n, max_degree=max_degree, seed=seed)


def sweep_rounds(algorithm, n):
    return range(len(algorithm.schedule(n)), algorithm.rounds(n))


class SweepRecorder(LinialColoring):
    """Records every (round, state) its ``step`` is called with."""

    def __init__(self, max_degree):
        super().__init__(max_degree)
        self.calls = []

    def step(self, round_index, state, neighbor_states, n):
        self.calls.append((round_index, state))
        return super().step(round_index, state, neighbor_states, n)


class TestLinialSparseSweep:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("max_degree", [2, 3, 4])
    def test_balls_match_oracle(self, max_degree, seed):
        graph = linial_graph(max_degree, seed)
        n = graph.num_nodes
        ids = random_ids(graph, seed=seed)
        algorithm = LinialColoring(max_degree)
        total_rounds = algorithm.rounds(n)
        assert len(sweep_rounds(algorithm, n)) > 0
        for center in range(0, n, 3):
            for horizon in (total_rounds, total_rounds + 2, total_rounds - 5, 6):
                ball = extract_ball(graph, center, horizon, ids=ids)
                assert algorithm._replay(ball, total_rounds, n) == oracle_replay(
                    algorithm, ball, total_rounds, n
                ), (center, horizon)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("max_degree", [2, 3, 4])
    def test_regions_match_oracle(self, max_degree, seed):
        graph = linial_graph(max_degree, seed)
        n = graph.num_nodes
        ids = random_ids(graph, seed=seed)
        algorithm = LinialColoring(max_degree)
        total_rounds = algorithm.rounds(n)
        targets = list(range(seed, n, 7))
        for horizon in (total_rounds, total_rounds - 9):
            region = extract_region(graph, targets, horizon, None, ids, None)
            assert algorithm._replay(region, total_rounds, n) == oracle_replay(
                algorithm, region, total_rounds, n
            ), horizon
        assert_shared_matches_per_target(graph, algorithm, ids=ids, nodes=targets)

    @pytest.mark.parametrize("max_degree", [2, 3, 4])
    def test_no_other_color_is_stepped_in_a_sweep_round(self, max_degree):
        graph = linial_graph(max_degree, 1)
        n = graph.num_nodes
        ids = random_ids(graph, seed=max_degree)
        recorder = SweepRecorder(max_degree)
        result = run_local_algorithm(graph, recorder, ids=ids)
        sweep = sweep_rounds(recorder, n)
        swept = [(r, state) for r, state in recorder.calls if r in sweep]
        assert swept, "no node held a retiring color"
        assert all(state == recorder.moving_state(r, n) for r, state in swept)
        dense = LinialColoring(max_degree)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dense, "moving_state", lambda round_index, n: None)
            oracle = run_local_algorithm(graph, dense, ids=ids)
        assert dict(result.outputs.items()) == dict(oracle.outputs.items())
        assert result.radius_per_node == oracle.radius_per_node

    def test_moving_state_is_the_retiring_color(self):
        algorithm = LinialColoring(3)
        n = 64
        reduction = len(algorithm.schedule(n))
        assert [algorithm.moving_state(r, n) for r in range(reduction)] == [None] * reduction
        palette = algorithm._intermediate_palette(n)
        assert [algorithm.moving_state(r, n) for r in sweep_rounds(algorithm, n)] == list(
            range(palette - 1, algorithm.max_degree, -1)
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ColorClassMIS(LinialColoring(3)),
            lambda: GreedyMatchingFromColoring(LinialColoring(3), max_degree=3),
        ],
        ids=["mis", "matching"],
    )
    def test_sweeps_over_a_coloring_stay_dense(self, build):
        algorithm = build()
        n = 64
        assert all(algorithm.moving_state(r, n) is None for r in range(algorithm.rounds(n)))


# ---------------------------------------------------------------------------
# Differential: one shared schedule per run against per-target ball replays.


class NeighborEcho(SumOfIdsFlood):
    """Outputs exactly what ``finalize`` is handed, at any lookahead."""

    def __init__(self, rounds, lookahead):
        super().__init__(rounds)
        self.finalize_lookahead = lookahead
        self.name = f"neighbor-echo(T={rounds}, L={lookahead})"

    def finalize(self, state, neighbor_states, degree, inputs, n):
        return {p: (state, neighbor_states, inputs) for p in range(degree)}


class UnderDeclared(SumOfIdsFlood):
    """Declares one round fewer than its schedule reads."""

    name = "under-declared-flood"

    def radius(self, n):
        return max(0, self.rounds(n) - 1)


class StepFailsAt(SumOfIdsFlood):
    """``step`` raises at the node carrying one identifier."""

    name = "step-fails-at"

    def __init__(self, rounds, bad_id, error=KeyError):
        super().__init__(rounds)
        self.bad_id = bad_id
        self.error = error

    def step(self, round_index, state, neighbor_states, n):
        if state[0] == self.bad_id:
            raise self.error(f"no table entry for id {self.bad_id}")
        return super().step(round_index, state, neighbor_states, n)


class TestSharedScheduleMatchesPerTargetReplay:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=100))
    def test_sampled_and_duplicate_targets(self, n, seed):
        graph = random_tree(n, max_degree=3, seed=seed)
        nodes = [(7 * seed + 13 * k) % n for k in range(1 + seed % 7)]
        nodes += nodes[: len(nodes) // 2]
        result = assert_shared_matches_per_target(
            graph, LinialColoring(max_degree=3),
            ids=random_ids(graph, seed=seed), nodes=nodes,
        )
        # One charge per occurrence, duplicates included.
        assert len(result.radius_per_node) == len(nodes)

    @pytest.mark.parametrize("lookahead", [0, 1, 2])
    @pytest.mark.parametrize("rounds", [0, 1, 3])
    @pytest.mark.parametrize("nodes", [None, [4, 5], [5, 4, 5, 11]])
    def test_lookahead_with_adjacent_targets(self, lookahead, rounds, nodes):
        # Adjacent targets share a region; with lookahead 0 each must
        # still see its neighbors' final states as None.
        graph = cycle(12)
        inputs = orient_path_inputs(graph)
        result = assert_shared_matches_per_target(
            graph, NeighborEcho(rounds, lookahead),
            inputs=inputs, ids=random_ids(graph, seed=rounds), nodes=nodes,
        )
        if lookahead == 0:
            for label in dict(result.outputs.items()).values():
                assert label[1] == (None, None)

    @pytest.mark.parametrize("declared_n", [40, 10**4, 10**9])
    def test_declared_n_override(self, declared_n):
        graph = random_tree(40, max_degree=3, seed=3)
        assert_shared_matches_per_target(
            graph, LinialColoring(max_degree=3),
            ids=random_ids(graph, seed=3), declared_n=declared_n, nodes=range(0, 40, 3),
        )

    @pytest.mark.parametrize(
        "algorithm",
        [LubyMIS(phases=4), RandomizedTrialColoring(max_degree=3, trial_rounds=3)],
        ids=["luby", "trial-coloring"],
    )
    @pytest.mark.parametrize("seed", [0, 9])
    def test_seeded_and_bit_replay(self, algorithm, seed):
        graph = random_tree(30, max_degree=3, seed=seed)
        ids = random_ids(graph, seed=seed)
        seeded = assert_shared_matches_per_target(graph, algorithm, ids=ids, seed=seed)
        replayed = assert_shared_matches_per_target(
            graph, algorithm, ids=ids, bits=node_bits(graph, algorithm, seed)
        )
        assert dict(seeded.outputs.items()) == dict(replayed.outputs.items())

    def test_under_declared_radius_without_enforcement(self):
        graph = random_tree(20, max_degree=3, seed=2)
        ids = random_ids(graph, seed=2)
        result = assert_shared_matches_per_target(
            graph, UnderDeclared(3), ids=ids, enforce_radius=False, nodes=[1, 7, 7]
        )
        assert result.radius_per_node == [3, 3, 3]
        assert result.declared_radius == 2
        assert not result.within_declared_radius

    def test_under_declared_radius_enforced_raises_identically(self):
        graph = random_tree(20, max_degree=3, seed=2)
        ids = random_ids(graph, seed=2)
        with pytest.raises(AlgorithmError) as shared:
            shared_run(graph, UnderDeclared(3), ids=ids, nodes=[7, 1])
        with pytest.raises(AlgorithmError) as oracle:
            per_target_run(graph, UnderDeclared(3), ids=ids, nodes=[7, 1])
        assert str(shared.value) == str(oracle.value)
        assert "at node 7" in str(shared.value)

    @pytest.mark.parametrize("n", [32, 256])
    def test_campaign_linial_cell(self, n):
        # The trees-panel cell: a sample of 8 targets on a 3-tree.
        graph = random_tree(n, 3, seed=n)
        result = assert_shared_matches_per_target(
            graph, LinialColoring(3), ids=random_ids(graph, seed=n),
            nodes=list(range(0, n, max(1, n // 8))),
        )
        assert max(result.radius_per_node) == 47

    @pytest.mark.parametrize("side", [4, 13])
    def test_campaign_product_coloring_cell(self, side):
        grid = OrientedGrid([side, side])
        result = assert_shared_matches_per_target(
            grid.graph, GridProductColoring(dimensions=2),
            inputs=grid.orientation_inputs(), ids=prod_ids(grid, seed=side),
        )
        assert result.max_radius_used == 7

    @pytest.mark.parametrize("side", [3, 6])
    def test_campaign_color_class_mis_on_torus(self, side):
        grid = OrientedGrid([side, side])
        assert_shared_matches_per_target(
            grid.graph, ColorClassMIS(LinialColoring(max_degree=4)),
            ids=random_ids(grid.graph, seed=side), nodes=[0, 1, side, 2 * side + 1],
        )


class StepRecorder(SumOfIdsFlood):
    """Records every ``(round, id)`` stepped and every id initialized."""

    name = "step-recorder"

    def __init__(self, rounds, lookahead):
        super().__init__(rounds)
        self.finalize_lookahead = lookahead
        self.stepped = []
        self.initialized = set()

    def initial_state(self, node_id, degree, inputs, bits, n):
        self.initialized.add(node_id)
        return super().initial_state(node_id, degree, inputs, bits, n)

    def step(self, round_index, state, neighbor_states, n):
        self.stepped.append((round_index, state[0]))
        return super().step(round_index, state, neighbor_states, n)


class TestSharedScheduleWork:
    @pytest.mark.parametrize("lookahead", [0, 1])
    @pytest.mark.parametrize("nodes", [[0, 1], [3, 17, 17, 30], list(range(0, 40, 8))])
    def test_steps_each_pair_of_the_union_once(self, lookahead, nodes):
        graph = random_tree(40, max_degree=3, seed=11)
        ids = random_ids(graph, seed=11)
        shared = StepRecorder(3, lookahead)
        shared_run(graph, shared, ids=ids, nodes=nodes)
        oracle = StepRecorder(3, lookahead)
        per_target_run(graph, oracle, ids=ids, nodes=nodes)
        # The shared schedule steps exactly the (node, round) pairs some
        # per-target replay steps, each once, and initializes no node
        # outside every target's ball.
        assert sorted(shared.stepped) == sorted(set(oracle.stepped))
        assert shared.initialized == oracle.initialized


class TestSharedScheduleErrors:
    """A failing schedule surfaces the per-target loop's first error."""

    @staticmethod
    def _both(graph, algorithm, expected, **kwargs):
        errors = []
        for run in (run_local_algorithm, per_target_run):
            with pytest.raises(expected) as excinfo:
                run(graph, algorithm, **kwargs)
            errors.append(excinfo.value)
        return errors

    @pytest.mark.parametrize("nodes", [None, [11, 0, 5, 5], [9, 7]])
    def test_step_key_error_names_the_same_node(self, nodes):
        graph = path(12)
        ids = list(range(100, 112))
        algorithm = StepFailsAt(2, bad_id=106)
        shared, oracle = self._both(
            graph, algorithm, NodeExecutionError, ids=ids, nodes=nodes
        )
        assert (shared.node, str(shared)) == (oracle.node, str(oracle))
        assert shared.algorithm == oracle.algorithm == "step-fails-at"
        assert isinstance(shared.__cause__, KeyError)
        # The first target whose replay steps node 6 (distance <= 1 at
        # horizon 2) names the failure.
        first = [v for v in (range(12) if nodes is None else nodes) if abs(v - 6) <= 1]
        assert shared.node == first[0]

    def test_shared_schedule_did_raise(self):
        graph = path(12)
        algorithm = StepFailsAt(2, bad_id=106)
        with pytest.raises(KeyError):
            algorithm.run_targets(graph, range(12), 12, None, list(range(100, 112)), None)

    def test_repro_error_from_step_passes_through_identically(self):
        graph = cycle(9)
        algorithm = StepFailsAt(3, bad_id=4, error=AlgorithmError)
        shared, oracle = self._both(
            graph, algorithm, AlgorithmError, ids=list(range(9))
        )
        assert type(shared) is type(oracle) is AlgorithmError
        assert str(shared) == str(oracle)

    def test_step_outside_every_ball_is_never_reached(self):
        # Node 6 lies beyond every sampled target's stepped region, so
        # neither path steps it and the run succeeds.
        graph = path(12)
        algorithm = StepFailsAt(2, bad_id=106)
        assert_shared_matches_per_target(
            graph, algorithm, ids=list(range(100, 112)), nodes=[0, 2, 10]
        )


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
