"""Tests for the A_det construction (0-round decidability).

``TestPrunedSearchDifferential`` holds the pruned cover search of
:mod:`repro.roundelim.zero_round` to the exhaustive search it replaced
(kept below as :func:`exhaustive_search`): the same ``(clique, table)``,
or ``None`` on both sides, on every catalog walk problem ``f^0`` / ``f^1``
at degrees 3 and 4, on the 165-label step problem of 4-coloring@3 and on
a seeded population of random LCLs.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProblemDefinitionError
from repro.graphs import HalfEdgeLabeling, path, random_forest, random_ids, star
from repro.lcl import catalog, is_valid_solution
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.lcl.random_problems import random_lcl, solvable_random_lcl
from repro.local.model import run_local_algorithm
from repro.roundelim import zero_round
from repro.roundelim.lift import ZeroRoundLocalAlgorithm
from repro.roundelim.sequence import ProblemSequence
from repro.roundelim.zero_round import find_zero_round_algorithm
from repro.utils.multiset import Multiset, label_sort_key

NO = catalog.NO_INPUT


class TestExistence:
    def test_trivial_is_zero_round(self):
        assert find_zero_round_algorithm(catalog.trivial(3)) is not None

    def test_consensus_is_zero_round(self):
        # Consensus looks global but a deterministic constant choice works.
        assert find_zero_round_algorithm(catalog.consensus(3)) is not None

    def test_input_copy_is_zero_round(self):
        assert find_zero_round_algorithm(catalog.input_copy(3)) is not None

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: catalog.coloring(3, 2),
            lambda: catalog.mis(3),
            lambda: catalog.maximal_matching(3),
            lambda: catalog.sinkless_orientation(3),
            lambda: catalog.echo(2),
            lambda: catalog.two_coloring(2),
        ],
    )
    def test_nontrivial_problems_are_not_zero_round(self, builder):
        assert find_zero_round_algorithm(builder()) is None

    def test_self_loop_requirement(self):
        # Edge constraint allows only {a, b}: no label can face itself, so
        # no deterministic 0-round algorithm exists even though per-node
        # choices would.
        problem = NodeEdgeCheckableLCL(
            sigma_in=[NO],
            sigma_out=["a", "b"],
            node_constraints={1: [Multiset(["a"]), Multiset(["b"])]},
            edge_constraint=[Multiset(["a", "b"])],
            g={NO: ["a", "b"]},
        )
        assert find_zero_round_algorithm(problem) is None

    def test_degree_restriction_changes_answer(self):
        # Sinkless orientation constrains only degree-3 nodes; on a graph
        # class without degree-3 nodes it becomes 0-round solvable.
        problem = catalog.sinkless_orientation(3)
        assert find_zero_round_algorithm(problem, degrees=[1, 2]) is None or True
        # (orientation still needs asymmetric edges: {I,O} has no self-loop,
        #  so it stays unsolvable in 0 rounds even for degrees 1-2)
        assert find_zero_round_algorithm(problem, degrees=[1, 2]) is None

    def test_empty_degree_request_raises(self):
        problem = catalog.trivial(2)
        with pytest.raises(ProblemDefinitionError):
            find_zero_round_algorithm(problem, degrees=[])


class TestExtractedAlgorithm:
    def test_outputs_respect_constraints(self):
        problem = catalog.input_copy(3)
        algorithm = find_zero_round_algorithm(problem)
        for degree in (1, 2, 3):
            for inputs in itertools.product(sorted(problem.sigma_in), repeat=degree):
                outputs = algorithm.outputs_for(inputs)
                assert problem.allows_node(Multiset(outputs))
                for input_label, output_label in zip(inputs, outputs):
                    assert output_label in problem.allowed_outputs(input_label)

    def test_outputs_follow_port_permutation(self):
        problem = catalog.input_copy(2)
        algorithm = find_zero_round_algorithm(problem)
        forward = algorithm.outputs_for(("0", "1"))
        backward = algorithm.outputs_for(("1", "0"))
        assert forward == tuple(reversed(backward))

    def test_clique_labels_are_pairwise_edge_compatible(self):
        problem = catalog.trivial(3, labels=("x", "y"))
        algorithm = find_zero_round_algorithm(problem)
        for a in algorithm.clique:
            for b in algorithm.clique:
                assert problem.allows_edge(a, b)

    def test_memoized_orderings_match_a_fresh_ranking(self):
        problem = catalog.input_copy(3)
        algorithm = find_zero_round_algorithm(problem)
        table = algorithm.table
        for degree in (1, 2, 3):
            for inputs in itertools.product(sorted(problem.sigma_in), repeat=degree):
                ranking = sorted(range(degree), key=lambda j: label_sort_key(inputs[j]))
                sorted_outputs = table[tuple(inputs[j] for j in ranking)]
                expected = [None] * degree
                for position, port in enumerate(ranking):
                    expected[port] = sorted_outputs[position]
                first = algorithm.outputs_for(list(inputs))
                assert first == tuple(expected)
                assert algorithm.outputs_for(inputs) is first

    def test_unknown_input_tuple_raises(self):
        problem = catalog.input_copy(2)
        algorithm = find_zero_round_algorithm(problem)
        with pytest.raises(ProblemDefinitionError):
            algorithm.outputs_for(("0",) * 5)

    def test_covered_degrees(self):
        problem = catalog.trivial(3)
        algorithm = find_zero_round_algorithm(problem)
        assert algorithm.covered_degrees() == (1, 2, 3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_property_zero_round_solutions_are_globally_valid(self, seed):
        problem = catalog.input_copy(3)
        algorithm = find_zero_round_algorithm(problem)
        local = ZeroRoundLocalAlgorithm(algorithm)
        graph = random_forest([5, 3, 2], max_degree=3, seed=seed)
        import random as pyrandom

        rng = pyrandom.Random(seed)
        inputs = HalfEdgeLabeling(
            graph,
            {h: rng.choice(["0", "1"]) for h in graph.half_edges()},
        )
        result = run_local_algorithm(
            graph, local, inputs=inputs, ids=random_ids(graph, seed=seed)
        )
        assert result.max_radius_used == 0
        assert is_valid_solution(problem, graph, inputs, result.outputs)


# ---------------------------------------------------------------------------
# Differential: the pruned cover search against the exhaustive one.


def exhaustive_cover_with_clique(problem, clique, degrees):
    """The cover search as it was before pruning: every input tuple's
    outputs from the full product of per-port candidates."""
    inputs_sorted = sorted(problem.sigma_in, key=label_sort_key)
    table = {}
    for degree in degrees:
        allowed_configurations = problem.node_constraints.get(degree)
        if not allowed_configurations:
            return None
        for input_tuple in itertools.combinations_with_replacement(inputs_sorted, degree):
            choice = _choose_outputs(problem, clique, input_tuple, allowed_configurations)
            if choice is None:
                return None
            table[input_tuple] = choice
    return table


def _choose_outputs(problem, clique, input_tuple, allowed_configurations):
    """Backtracking: one output per port, multiset in N, g respected."""
    candidates = [
        sorted(problem.allowed_outputs(i) & clique, key=label_sort_key)
        for i in input_tuple
    ]
    chosen = []

    def recurse(index: int) -> bool:
        if index == len(candidates):
            return Multiset(chosen) in allowed_configurations
        for label in candidates[index]:
            chosen.append(label)
            if recurse(index + 1):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if recurse(0) else None


def exhaustive_search(problem, chosen_degrees):
    """``zero_round._search`` over :func:`exhaustive_cover_with_clique`."""
    cliques = zero_round._maximal_cliques(problem)
    cliques.sort(key=lambda c: (-len(c), sorted(map(label_sort_key, c))))
    for clique in cliques:
        table = exhaustive_cover_with_clique(problem, clique, chosen_degrees)
        if table is not None:
            return clique, table
    return None


def scan_partial_configurations(clique, weights, allowed_configurations):
    """``zero_round._partial_configurations`` as it was before the label
    index: every configuration of the degree, scanned once per clique."""
    partials = set()
    for configuration in allowed_configurations:
        items = configuration.items
        if not clique.issuperset(items):
            continue
        sums = {0}
        for label in items:
            weight = weights[label]
            sums |= {total + weight for total in sums}
        partials |= sums
    partials.discard(0)
    return partials


def assert_same_partials(problem):
    """The indexed partial configurations equal the full scan's, for
    every maximal clique and every degree the problem constrains."""
    cliques = zero_round._maximal_cliques(problem)
    indexes = zero_round._ConfigurationIndexes(problem, cliques)
    degrees = sorted(problem.node_constraints)
    base = max(degrees, default=0) + 1
    compared = 0
    for clique in cliques:
        ordered = sorted(clique, key=label_sort_key)
        weights = {label: base**position for position, label in enumerate(ordered)}
        for degree in degrees:
            indexed = zero_round._partial_configurations(
                clique, weights, indexes.of(degree)
            )
            scanned = scan_partial_configurations(
                clique, weights, problem.node_constraints[degree]
            )
            assert indexed == scanned, (problem.name, ordered, degree)
            compared += bool(scanned)
    return compared


def assert_same_search(problem, chosen_degrees):
    pruned = zero_round._search.__wrapped__(problem, chosen_degrees)
    assert pruned == exhaustive_search(problem, chosen_degrees), problem.name
    return pruned


#: Catalog problems whose ``f^1`` is not computed here: 4-coloring@3's is
#: the 165-label case below; the rest cost seconds to minutes per step
#: (5-coloring@4 trips its universe cap) and the walks of the perfbench
#: classify workloads leave them out for the same reason.
NO_STEP = {(3, "4-coloring"), (4, "5-coloring"), (4, "7-edge-coloring"), (4, "weak-2-coloring")}

WALK_CASES = [
    (max_degree, problem.name, step)
    for max_degree in (3, 4)
    for problem in catalog.standard_catalog(max_degree)
    for step in (0, 1)
    if step == 0 or (max_degree, problem.name) not in NO_STEP
]


@functools.lru_cache(maxsize=None)
def walk_problem(max_degree, name, step):
    (problem,) = [p for p in catalog.standard_catalog(max_degree) if p.name == name]
    return ProblemSequence(problem).problem(step)


def random_population(count=400):
    """Seeded random LCLs, half of them with a planted 0-round solution,
    with 2-7 labels, degrees up to 4 and up to three inputs."""
    population = []
    for seed in range(count):
        rng = random.Random(seed)
        build = solvable_random_lcl if seed % 2 else random_lcl
        problem = build(
            seed,
            num_labels=rng.randint(2, 7),
            max_degree=rng.randint(1, 4),
            density=rng.choice((0.3, 0.5, 0.7, 0.9)),
            num_inputs=rng.randint(1, 3),
        )
        degrees = problem.degrees()
        subset = tuple(sorted(rng.sample(degrees, rng.randint(1, len(degrees)))))
        population.append((problem, degrees, subset))
    return population


class TestPrunedSearchDifferential:
    @pytest.mark.parametrize(
        "max_degree, name, step", WALK_CASES, ids=[f"{d}-{n}-f{k}" for d, n, k in WALK_CASES]
    )
    def test_catalog_walk_problems(self, max_degree, name, step):
        problem = walk_problem(max_degree, name, step)
        assert_same_search(problem, problem.degrees())

    def test_four_coloring_step_problem(self):
        problem = walk_problem(3, "4-coloring", 1)
        assert len(problem.sigma_out) == 165
        assert assert_same_search(problem, problem.degrees()) is None

    def test_random_population(self):
        outcomes = []
        for problem, degrees, subset in random_population():
            outcomes.append(assert_same_search(problem, degrees) is not None)
            if subset != degrees:
                assert_same_search(problem, subset)
        # Both answers occur often, so the comparison exercises both the
        # tables the search returns and its proofs that none exists.
        assert 60 <= sum(outcomes) <= len(outcomes) - 60

    def test_requested_degree_subsets(self):
        problem = catalog.trivial(3)
        for degrees in [(4,), (1, 5), (2, 3)]:
            assert_same_search(problem, degrees)


class TestIndexedPartialConfigurations:
    """The label index of the cover search against the full scan it
    replaced (kept above as :func:`scan_partial_configurations`)."""

    @pytest.mark.parametrize(
        "max_degree, name, step", WALK_CASES, ids=[f"{d}-{n}-f{k}" for d, n, k in WALK_CASES]
    )
    def test_catalog_walk_problems(self, max_degree, name, step):
        assert_same_partials(walk_problem(max_degree, name, step))

    def test_four_coloring_step_problem(self):
        # 76 cliques: each holds degree-1 configurations, none a degree-2
        # or degree-3 one.
        assert assert_same_partials(walk_problem(3, "4-coloring", 1)) == 76

    def test_random_population(self):
        compared = sum(
            assert_same_partials(problem) for problem, _, _ in random_population(200)
        )
        assert compared >= 200
