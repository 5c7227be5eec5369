"""Differential tests: per-``n`` parameter memos and the replay's neighbor getters.

The iterative algorithms resolve their ``n``-only parameters (round
schedules, palettes, round counts) once per instance and ``n`` through
:func:`repro.local.iterative.memoize_per_n`, and the flat replay gathers
each node's neighbor states with one getter built per node.  These tests
hold both to uncached references:

* every memoized value equals its computation from first principles,
  queried across instances that differ only in ``id_exponent``,
  ``max_degree`` or a round override, so a memo shared between instances
  returns another instance's value and fails;
* a subclass that overrides ``initial_palette`` (or Linial's ``schedule``)
  still changes the round count and the outputs;
* :meth:`IterativeAlgorithm._replay` equals the per-round oracle loop on
  balls with isolated nodes, degree-1 nodes and ports missing from
  ``adj``, and hands ``step`` a port-indexed tuple at every arity;
* Linial's polynomial recoloring equals a digit-arithmetic reference.
"""

from typing import Any, Callable, Dict, List

import pytest

from repro.exceptions import AlgorithmError
from repro.graphs import cycle, path, random_ids, random_tree
from repro.graphs.balls import extract_ball, extract_region
from repro.graphs.core import Graph
from repro.graphs.generators import disjoint_union
from repro.grids import GridProductColoring
from repro.local import IterativeAlgorithm, run_local_algorithm
from repro.local.algorithms.cole_vishkin import (
    ColeVishkinColoring,
    orient_path_inputs,
    palette_schedule,
)
from repro.local.algorithms.linial import LinialColoring, reduction_schedule
from repro.local.algorithms.mis import ColorClassMIS, GreedyMatchingFromColoring
from repro.local.algorithms.shortcut import ShortcutColeVishkin
from repro.rooted.coloring import RootedCVColoring
from repro.volume import ChainColeVishkin
from tests.test_iterative_replay import SumOfIdsFlood, oracle_replay

NS = [1, 2, 3, 5, 8, 16, 33, 100, 256, 1000, 4096, 10**6]


# ---------------------------------------------------------------------------
# Uncached references, computed without any instance memo.


def id_palette(n: int, exponent: int) -> int:
    return max(2, n**exponent + 1)


def cv_rounds(palette: int) -> int:
    return len(palette_schedule.__wrapped__(palette))


def linial_reference(max_degree: int, palette: int) -> Dict[str, Any]:
    schedule = reduction_schedule.__wrapped__(palette, max_degree)
    intermediate = schedule[-1][2] if schedule else palette
    return {
        "schedule": schedule,
        "_intermediate_palette": intermediate,
        "color_rounds": len(schedule) + max(0, intermediate - (max_degree + 1)),
    }


def linial_expected(algorithm: LinialColoring, n: int) -> Dict[str, Any]:
    return linial_reference(
        algorithm.max_degree, id_palette(n, algorithm.id_exponent)
    )


def cv_expected(algorithm: ColeVishkinColoring, n: int) -> Dict[str, Any]:
    rounds = cv_rounds(id_palette(n, algorithm.id_exponent))
    return {"_cv_rounds": rounds, "color_rounds": rounds + 3}


def grid_expected(algorithm: GridProductColoring, n: int) -> Dict[str, Any]:
    palette = max(2, (algorithm.dimensions + 1) * n**algorithm.id_exponent + 1)
    rounds = cv_rounds(palette)
    return {"_cv_rounds": rounds, "color_rounds": rounds + 3}


def rooted_expected(algorithm: RootedCVColoring, n: int) -> Dict[str, Any]:
    rounds = cv_rounds(id_palette(n, algorithm.id_exponent))
    return {"_cv_rounds": rounds, "color_rounds": rounds + 6}


def shortcut_expected(algorithm: ShortcutColeVishkin, n: int) -> Dict[str, Any]:
    needed = cv_rounds(id_palette(n, algorithm.id_exponent))
    override = algorithm.cv_rounds_override
    return {"_cv_rounds": needed if override is None else max(override, needed)}


def chain_expected(algorithm: ChainColeVishkin, n: int) -> Dict[str, Any]:
    rounds = cv_rounds(id_palette(n, algorithm.id_exponent))
    return {"_cv_rounds": rounds, "probes": rounds + 7}


def coloring_expected(coloring: Any, n: int) -> int:
    for kind, expected in EXPECTED_BY_TYPE.items():
        if type(coloring) is kind:
            return expected(coloring, n)["color_rounds"]
    raise AssertionError(f"no reference for {coloring!r}")


def mis_expected(algorithm: ColorClassMIS, n: int) -> Dict[str, Any]:
    inner = algorithm.coloring
    return {"rounds": coloring_expected(inner, n) + inner.final_palette(n)}


def matching_expected(algorithm: GreedyMatchingFromColoring, n: int) -> Dict[str, Any]:
    inner = algorithm.coloring
    sweep = 3 * inner.final_palette(n) * algorithm.max_degree
    return {"rounds": coloring_expected(inner, n) + sweep}


EXPECTED_BY_TYPE: Dict[type, Callable[[Any, int], Dict[str, Any]]] = {
    LinialColoring: linial_expected,
    ColeVishkinColoring: cv_expected,
    GridProductColoring: grid_expected,
    RootedCVColoring: rooted_expected,
}

FAMILIES: Dict[str, Callable[[], List[Any]]] = {
    "linial": lambda: [
        LinialColoring(max_degree=delta, id_exponent=exponent)
        for exponent in (1, 2, 3)
        for delta in (2, 3, 5)
    ],
    "cole-vishkin": lambda: [ColeVishkinColoring(id_exponent=e) for e in (1, 2, 3, 4)],
    "grid-product": lambda: [
        GridProductColoring(dimensions=d, id_exponent=e) for e in (1, 3) for d in (1, 2, 3)
    ],
    "rooted-cv": lambda: [RootedCVColoring(id_exponent=e) for e in (1, 2, 3, 4)],
    "shortcut-cv": lambda: [
        ShortcutColeVishkin(id_exponent=e, cv_rounds_override=override)
        for e in (1, 3)
        for override in (None, 2, 9)
    ],
    "chain-cv": lambda: [ChainColeVishkin(id_exponent=e) for e in (1, 2, 3, 4)],
    "color-class-mis": lambda: [
        ColorClassMIS(LinialColoring(max_degree=3, id_exponent=1)),
        ColorClassMIS(LinialColoring(max_degree=4, id_exponent=3)),
        ColorClassMIS(ColeVishkinColoring(id_exponent=1)),
        ColorClassMIS(ColeVishkinColoring(id_exponent=3)),
        ColorClassMIS(RootedCVColoring(id_exponent=2)),
    ],
    "greedy-matching": lambda: [
        GreedyMatchingFromColoring(LinialColoring(max_degree=3, id_exponent=1), 3),
        GreedyMatchingFromColoring(LinialColoring(max_degree=5, id_exponent=3), 5),
        GreedyMatchingFromColoring(ColeVishkinColoring(id_exponent=2), 2),
        GreedyMatchingFromColoring(GridProductColoring(dimensions=2, id_exponent=1), 4),
    ],
}

REFERENCES: Dict[str, Callable[[Any, int], Dict[str, Any]]] = {
    "linial": linial_expected,
    "cole-vishkin": cv_expected,
    "grid-product": grid_expected,
    "rooted-cv": rooted_expected,
    "shortcut-cv": shortcut_expected,
    "chain-cv": chain_expected,
    "color-class-mis": mis_expected,
    "greedy-matching": matching_expected,
}


class TestMemoizedParametersMatchUncached:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_values_across_instances_and_n(self, family):
        instances = FAMILIES[family]()
        reference = REFERENCES[family]
        distinct_at_some_n = False
        for n in NS:
            expected = [reference(algorithm, n) for algorithm in instances]
            distinct_at_some_n |= len({repr(e) for e in expected}) > 1
            # Every instance is asked at the same n before the next n, so a
            # memo keyed by n alone hands later instances the first one's
            # value.
            for algorithm, values in zip(instances, expected):
                for name, value in values.items():
                    assert getattr(algorithm, name)(n) == value, (family, name, n)
        assert distinct_at_some_n, "the instances must disagree somewhere"

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_repeated_lookups_return_the_memoized_value(self, family):
        for algorithm in FAMILIES[family]():
            for n in (7, 300):
                for name, value in REFERENCES[family](algorithm, n).items():
                    first = getattr(algorithm, name)(n)
                    assert first == value
                    assert getattr(algorithm, name)(n) is first

    def test_rounds_follow_color_rounds(self):
        for algorithm in FAMILIES["linial"]() + FAMILIES["cole-vishkin"]():
            for n in NS:
                assert algorithm.rounds(n) == algorithm.color_rounds(n)

    def test_memo_is_per_instance(self):
        narrow = LinialColoring(max_degree=3, id_exponent=1)
        wide = LinialColoring(max_degree=3, id_exponent=3)
        assert narrow.schedule(256) != wide.schedule(256)
        assert LinialColoring(max_degree=3, id_exponent=1).schedule(256) == narrow.schedule(256)


# ---------------------------------------------------------------------------
# Subclass overrides are still honoured.


class QuarticPaletteLinial(LinialColoring):
    """Overrides the ID palette to ``n**4``: must act as ``id_exponent=4``."""

    def initial_palette(self, n):
        return max(2, n**4 + 1)


class QuarticPaletteCV(ColeVishkinColoring):
    def initial_palette(self, n):
        return max(2, n**4 + 1)


class OneReductionLinial(LinialColoring):
    """Stops the polynomial reduction after its first round."""

    def schedule(self, n):
        return reduction_schedule(self.initial_palette(n), self.max_degree)[:1]


def assert_proper_coloring(graph: Graph, result) -> None:
    outputs = dict(result.outputs.items())
    for u, pu, v, pv in graph.edges():
        assert outputs[(u, pu)] != outputs[(v, pv)]


class TestSubclassOverrides:
    @pytest.mark.parametrize("n", [20, 64])
    def test_initial_palette_override_on_linial(self, n):
        graph = random_tree(n, max_degree=3, seed=n)
        ids = random_ids(graph, seed=n)
        override = QuarticPaletteLinial(max_degree=3)
        equivalent = LinialColoring(max_degree=3, id_exponent=4)
        assert override.rounds(n) == equivalent.rounds(n)
        assert override.rounds(n) == linial_reference(3, n**4 + 1)["color_rounds"]
        assert override.schedule(n) != LinialColoring(max_degree=3).schedule(n)
        # Identifiers above n^3 are only legal under the overridden palette.
        ids = [i + n**3 for i in ids]
        with pytest.raises(AlgorithmError):
            run_local_algorithm(graph, LinialColoring(max_degree=3), ids=ids)
        got = run_local_algorithm(graph, override, ids=ids)
        want = run_local_algorithm(graph, equivalent, ids=ids)
        assert dict(got.outputs.items()) == dict(want.outputs.items())
        assert got.radius_per_node == want.radius_per_node
        assert_proper_coloring(graph, got)

    def test_initial_palette_override_on_cole_vishkin(self):
        # At n = 6 the palettes n^3 + 1 and n^4 + 1 need different CV rounds.
        n = 6
        graph = cycle(n)
        inputs = orient_path_inputs(graph)
        ids = random_ids(graph, seed=3)
        override = QuarticPaletteCV()
        equivalent = ColeVishkinColoring(id_exponent=4)
        assert override.rounds(n) == equivalent.rounds(n) == cv_rounds(n**4 + 1) + 3
        assert override.rounds(n) != ColeVishkinColoring().rounds(n)
        got = run_local_algorithm(graph, override, inputs=inputs, ids=ids)
        want = run_local_algorithm(graph, equivalent, inputs=inputs, ids=ids)
        assert dict(got.outputs.items()) == dict(want.outputs.items())
        assert got.radius_per_node == want.radius_per_node

    def test_schedule_override_drives_rounds_and_steps(self):
        n = 40
        graph = random_tree(n, max_degree=3, seed=5)
        ids = random_ids(graph, seed=5)
        override = OneReductionLinial(max_degree=3)
        first = reduction_schedule(n**3 + 1, 3)[0]
        assert override.schedule(n) == (first,)
        assert override._intermediate_palette(n) == first[2]
        assert override.rounds(n) == 1 + first[2] - 4
        assert override.rounds(n) != LinialColoring(max_degree=3).rounds(n)
        result = run_local_algorithm(graph, override, ids=ids)
        assert max(result.radius_per_node) == override.rounds(n)
        assert_proper_coloring(graph, result)


# ---------------------------------------------------------------------------
# The replay's per-node getters against the per-round oracle loop.


class ArityRecorder(IterativeAlgorithm):
    """Checks that ``step`` always gets a tuple with one entry per port."""

    name = "arity-recorder"
    finalize_lookahead = 0

    def rounds(self, n):
        return 3

    def initial_state(self, node_id, degree, inputs, bits, n):
        return (node_id, degree, 0)

    def step(self, round_index, state, neighbor_states, n):
        node_id, degree, total = state
        assert type(neighbor_states) is tuple
        assert len(neighbor_states) == degree
        seen = sum(s[0] + s[2] for s in neighbor_states if s is not None)
        return (node_id, degree, total + seen + round_index)

    def finalize(self, state, neighbor_states, degree, inputs, n):
        return {port: state[2] for port in range(degree)}


def forest_with_isolated_nodes() -> Graph:
    # Isolated nodes, an edge (two degree-1 nodes), a path, a star-like tree.
    return disjoint_union(
        [Graph(1, []), path(2), Graph(1, []), path(5), random_tree(12, 3, seed=2), Graph(1, [])]
    )


def trimmed(ball):
    """Drop one visible edge end at every distance-1 node, as a hand-made ball."""
    for v in range(ball.num_nodes):
        if ball.distance[v] == 1 and ball.adj[v]:
            ball.adj[v].pop(max(ball.adj[v]))
    return ball


ALGORITHMS = {
    "sum-flood": lambda: SumOfIdsFlood(3),
    "arity": ArityRecorder,
    "linial": lambda: LinialColoring(max_degree=3),
    "mis": lambda: ColorClassMIS(LinialColoring(max_degree=3)),
}


class TestReplayGettersMatchOracle:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("trim", [False, True])
    def test_balls_with_isolated_and_degree_one_nodes(self, name, trim):
        graph = forest_with_isolated_nodes()
        n = graph.num_nodes
        ids = random_ids(graph, seed=11)
        algorithm = ALGORITHMS[name]()
        total_rounds = algorithm.rounds(n)
        degrees = {graph.degree(v) for v in range(n)}
        assert {0, 1} <= degrees
        for horizon in sorted({total_rounds + 1, 4, 1}):
            for center in range(n):
                ball = extract_ball(graph, center, horizon, ids=ids)
                if trim:
                    ball = trimmed(ball)
                assert algorithm._replay(ball, total_rounds, n) == oracle_replay(
                    algorithm, ball, total_rounds, n
                ), (center, horizon)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_region_spanning_components(self, name):
        graph = forest_with_isolated_nodes()
        n = graph.num_nodes
        ids = random_ids(graph, seed=13)
        algorithm = ALGORITHMS[name]()
        total_rounds = algorithm.rounds(n)
        region = extract_region(graph, [0, 1, 3, 9, 21, 8], total_rounds + 1, None, ids, None)
        assert 0 in region.degrees and 1 in region.degrees
        assert algorithm._replay(region, total_rounds, n) == oracle_replay(
            algorithm, region, total_rounds, n
        )

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_cole_vishkin_path_ends(self, n):
        # Path ends are degree-1 nodes whose only port may be the
        # successor port the step indexes into.
        graph = path(n)
        inputs = orient_path_inputs(graph)
        ids = random_ids(graph, seed=n)
        algorithm = ColeVishkinColoring()
        total_rounds = algorithm.rounds(n)
        for center in range(n):
            for horizon in (total_rounds, total_rounds + 2):
                ball = extract_ball(graph, center, horizon, inputs, ids)
                assert algorithm._replay(ball, total_rounds, n) == oracle_replay(
                    algorithm, ball, total_rounds, n
                )

    def test_isolated_node_run(self):
        graph = Graph(3, [])
        result = run_local_algorithm(graph, ArityRecorder(), ids=[5, 6, 7])
        assert dict(result.outputs.items()) == {}
        assert result.radius_per_node == [3, 3, 3]


# ---------------------------------------------------------------------------
# Linial's polynomial recoloring against digit arithmetic.


def reference_polynomial_step(parameters, state, neighbor_states):
    q, d, _ = parameters

    def digits(value):
        return [(value // q**i) % q for i in range(d + 1)]

    def evaluate(coefficients, x):
        return sum(c * x**i for i, c in enumerate(coefficients)) % q

    mine = digits(state)
    others = [digits(c) for c in neighbor_states if c is not None]
    for x in range(q):
        value = evaluate(mine, x)
        if all(value != evaluate(other, x) for other in others):
            return x * q + value
    raise AlgorithmError("no distinguishing evaluation point")


class TestPolynomialStep:
    @pytest.mark.parametrize("max_degree", [3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduction_rounds_on_random_trees(self, max_degree, seed):
        n = 60
        graph = random_tree(n, max_degree=max_degree, seed=seed)
        algorithm = LinialColoring(max_degree=max_degree)
        colors = random_ids(graph, seed=seed)
        schedule = algorithm.schedule(n)
        assert schedule
        for parameters in schedule:
            updated = []
            for v in range(n):
                neighbor_colors = tuple(colors[u] for u in graph.neighbors(v))
                got = algorithm._polynomial_step(parameters, colors[v], neighbor_colors)
                assert got == reference_polynomial_step(parameters, colors[v], neighbor_colors)
                updated.append(got)
            colors = updated
            assert max(colors) < parameters[2]

    def test_missing_neighbors_are_skipped(self):
        parameters = reduction_schedule(10**6, 3)[0]
        neighbors = (None, 17, None)
        assert LinialColoring(3)._polynomial_step(
            parameters, 40, neighbors
        ) == reference_polynomial_step(parameters, 40, neighbors)
