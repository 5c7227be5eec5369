"""Differential: grown balls against fresh extraction.

A :class:`~repro.local.model.NodeContext` asked for a wider ball than the
last one it handed out (in the same identifier mode) resumes that ball's
BFS at its outer layer instead of extracting afresh.  These tests hold
the grown balls identical to :func:`~repro.graphs.balls.extract_ball` in
every field and in :meth:`Ball.signature`, check that balls already
handed out are never mutated, and that charges are what a fresh
extraction charges.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AlgorithmError
from repro.graphs import cycle, random_ids, random_tree
from repro.graphs.balls import extract_ball, extract_region, grow_ball
from repro.grids import DimensionLengthProbe, OrientedGrid
from repro.local import model
from repro.local.algorithms.peeling import AdaptivePeeling
from repro.local.algorithms.three_coloring import RakeCompressColoring
from repro.local.model import NodeContext, run_local_algorithm
from repro.utils.rng import SplittableRNG

FIELDS = (
    "radius",
    "global_index",
    "distance",
    "degrees",
    "ids",
    "inputs",
    "bits",
    "adj",
    "_local_of_global",
)


def snapshot(ball):
    return copy.deepcopy({field: getattr(ball, field) for field in FIELDS})


def assert_same_ball(got, expected):
    assert snapshot(got) == snapshot(expected)
    for mode in ("exact", "rank", "none"):
        assert got.signature(ids=mode) == expected.signature(ids=mode)


def build(family, size, seed):
    """A graph with inputs, identifiers and bits on every node."""
    if family == "tree":
        graph = random_tree(size, max_degree=4, seed=seed)
        inputs = None
    elif family == "cycle":
        graph = cycle(size)
        inputs = None
    else:
        grid = OrientedGrid([3 + size % 4, 3 + seed % 4])
        graph, inputs = grid.graph, grid.orientation_inputs()
    ids = random_ids(graph, seed=seed)
    root = SplittableRNG(seed)
    bits = [root.child("bits", v).bits(3) for v in range(graph.num_nodes)]
    return graph, inputs, ids, bits


class TestGrownBallsMatchFreshExtraction:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["tree", "cycle", "torus"]),
        st.integers(min_value=3, max_value=30),
        st.integers(min_value=0, max_value=50),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.sampled_from(["exact", "none", "rank"]),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=2),
    )
    def test_context_ball_sequences(self, family, size, seed, requests, depth):
        graph, inputs, ids, bits = build(family, size, seed)
        ctx = NodeContext(graph, seed % graph.num_nodes, graph.num_nodes, inputs, ids, bits)
        for _ in range(depth):
            ctx = ctx.delegate(0)
        handed_out = []
        expected_charge = 0
        for radius, mode in requests:
            ball = ctx.ball(radius, ids=mode)
            fresh = extract_ball(
                graph, ctx.node, radius, inputs, None if mode == "none" else ids, bits
            )
            assert_same_ball(ball, fresh)
            expected_charge = max(expected_charge, depth + radius)
            assert ctx.charged_radius == expected_charge
            for earlier, before in handed_out:
                assert snapshot(earlier) == before
            handed_out.append((ball, snapshot(ball)))

    @pytest.mark.parametrize(
        "radii", [[0, 1, 2, 3, 4], [2, 2, 5, 5, 9], [1, 7], [3, 1, 4, 1, 5, 9, 2, 6]]
    )
    @pytest.mark.parametrize("family", ["tree", "cycle", "torus"])
    def test_fixed_sequences_with_repeats_and_gaps(self, family, radii):
        graph, inputs, ids, bits = build(family, 17, 4)
        ctx = NodeContext(graph, 5, graph.num_nodes, inputs, ids, bits)
        balls = [ctx.ball(radius) for radius in radii]
        for radius, ball in zip(radii, balls):
            assert_same_ball(ball, extract_ball(graph, 5, radius, inputs, ids, bits))
        assert ctx.charged_radius == max(radii)

    def test_wider_requests_grow_instead_of_extracting(self, monkeypatch):
        graph, inputs, ids, bits = build("torus", 9, 1)
        grown = []

        def spy(*args):
            grown.append(args[2])
            return grow_ball(*args)

        monkeypatch.setattr(model, "grow_ball", spy)
        ctx = NodeContext(graph, 0, graph.num_nodes, inputs, ids, bits)
        for radius, mode in [(1, "exact"), (3, "exact"), (3, "rank"), (2, "exact"),
                             (4, "none"), (6, "none"), (5, "exact")]:
            ctx.ball(radius, ids=mode)
        # A narrower request or a switch to or from hidden identifiers
        # extracts afresh; every other request grows the last ball.
        assert grown == [3, 3, 6]

    def test_grow_ball_leaves_its_source_alone(self):
        graph, inputs, ids, bits = build("torus", 6, 2)
        small = extract_ball(graph, 0, 2, inputs, ids, bits)
        before = snapshot(small)
        grown = grow_ball(graph, small, 4, inputs, ids, bits)
        assert snapshot(small) == before
        assert_same_ball(grown, extract_ball(graph, 0, 4, inputs, ids, bits))
        # The grown ball shares no mutable container with its source.
        grown.adj[0].clear()
        assert snapshot(small) == before

    def test_grow_ball_refuses_to_shrink(self):
        graph = cycle(8)
        with pytest.raises(ValueError):
            grow_ball(graph, extract_ball(graph, 0, 3), 2)

    @pytest.mark.parametrize("family", ["tree", "cycle", "torus"])
    def test_region_of_one_center_is_its_ball(self, family):
        graph, inputs, ids, bits = build(family, 20, 7)
        for radius in range(5):
            region = extract_region(graph, [3, 3], radius, inputs, ids, bits)
            assert_same_ball(region, extract_ball(graph, 3, radius, inputs, ids, bits))

    @pytest.mark.parametrize("family", ["tree", "cycle", "torus"])
    def test_region_distance_is_to_the_nearest_center(self, family):
        graph, inputs, ids, bits = build(family, 20, 7)
        centers = [4, 0, 4, graph.num_nodes - 1]
        region = extract_region(graph, centers, 3, inputs, ids, bits)
        assert region.global_index[:3] == [4, 0, graph.num_nodes - 1]
        assert region.distance == sorted(region.distance)
        reach = {}
        for center in centers:
            for v, d in graph.bfs_distances(center, limit=3).items():
                reach[v] = min(d, reach.get(v, d))
        assert dict(zip(region.global_index, region.distance)) == reach


# ---------------------------------------------------------------------------
# End to end: the algorithms that widen their ball in a loop.


def _fresh_extraction(graph, ball, radius, input_labeling=None, ids=None, bits=None):
    return extract_ball(graph, ball.global_index[0], radius, input_labeling, ids, bits)


def assert_growth_matches_fresh(graph, algorithm, **kwargs):
    # Per-target runs only: a shared execution (the probe's) grows no ball.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithm, "run_targets", lambda *args: None)
        grown = run_local_algorithm(graph, algorithm, **kwargs)
        patch.setattr(model, "grow_ball", _fresh_extraction)
        fresh = run_local_algorithm(graph, algorithm, **kwargs)
    assert dict(grown.outputs.items()) == dict(fresh.outputs.items())
    assert grown.radius_per_node == fresh.radius_per_node
    assert grown.declared_radius == fresh.declared_radius


class TestGrowingAlgorithmsMatchFreshExtraction:
    @pytest.mark.parametrize("side", [4, 7, 13])
    def test_dimension_length_probe(self, side):
        grid = OrientedGrid([side, side])
        assert_growth_matches_fresh(
            grid.graph, DimensionLengthProbe(), inputs=grid.orientation_inputs()
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adaptive_peeling(self, seed):
        graph = random_tree(40, max_degree=3, seed=seed)
        assert_growth_matches_fresh(graph, AdaptivePeeling())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rake_compress_three_coloring(self, seed):
        graph = random_tree(30, max_degree=3, seed=seed)
        assert_growth_matches_fresh(
            graph, RakeCompressColoring(), ids=random_ids(graph, seed=seed)
        )


class RewalkingProbe(DimensionLengthProbe):
    """The probe as it was before the walk resumed across radii: every
    radius walks dimension 0 again from the center."""

    def run(self, ctx):
        for radius in range(1, self.radius(ctx.declared_n) + 1):
            ball = ctx.ball(radius)
            length = self._walk_length(ball)
            if length is not None:
                return {port: length for port in range(ball.center_degree())}
        raise AlgorithmError("dimension-0 line never wrapped; not a torus?")

    @staticmethod
    def _walk_length(ball):
        current = 0
        steps = 0
        while True:
            forward_port = None
            for port in range(ball.degrees[current]):
                label = ball.inputs[current][port]
                if label == (0, +1):
                    forward_port = port
                    break
            if forward_port is None:
                raise AlgorithmError("missing orientation inputs")
            entry = ball.adj[current].get(forward_port)
            if entry is None:
                return None
            current = entry[0]
            steps += 1
            if current == 0:
                return steps


class TestDimensionLengthProbeResumesItsWalk:
    @pytest.mark.parametrize(
        "sides", [[side, side] for side in range(4, 14)] + [[5, 9], [11, 4], [4, 5, 6]]
    )
    def test_matches_the_rewalk_from_the_center(self, sides):
        grid = OrientedGrid(sides)
        inputs = grid.orientation_inputs()
        resumed = run_local_algorithm(grid.graph, DimensionLengthProbe(), inputs=inputs)
        rewalked = run_local_algorithm(grid.graph, RewalkingProbe(), inputs=inputs)
        assert dict(resumed.outputs.items()) == dict(rewalked.outputs.items())
        assert resumed.radius_per_node == rewalked.radius_per_node
        assert set(dict(resumed.outputs.items()).values()) == {sides[0]}
