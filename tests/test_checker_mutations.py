"""Failure injection: the checker against an independent oracle.

Takes valid solutions (from the brute-force solver), injects single
half-edge mutations, and compares the Definition 2.4 checker's verdict
against a from-scratch re-implementation of the definition written in
this test file — so a bug would need to appear identically in two
independent codings to slip through.

The 0-round block applies the same discipline to the evidence of the
Theorem 3.10 base decision.  ``A_det`` tables are mutated one choice at
a time — a flipped output label, a dropped rule, a table found for a
problem with one constraint relaxed — and :func:`check_zero_round_table`
must agree with a from-scratch re-coding of the two base conditions.
Refutation payloads with a dropped witness, a swapped clique, or an
undeclared degree must be caught by :func:`check_refutation`.  No
mutation may surface as an accepted but wrong witness.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import HalfEdgeLabeling, cycle, path, random_tree
from repro.lcl import catalog, check_solution, random_lcl
from repro.lcl.checker import brute_force_solution
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.lcl.random_problems import solvable_random_lcl
from repro.roundelim.zero_round import find_zero_round_algorithm
from repro.utils.multiset import Multiset, label_sort_key
from repro.verify.refute import (
    build_refutation,
    check_refutation,
    check_zero_round_table,
)

NO = catalog.NO_INPUT


def independent_verdict(problem, graph, inputs, outputs) -> bool:
    """Definition 2.4 re-coded from the paper text, independently."""
    for v in range(graph.num_nodes):
        if graph.degree(v) == 0:
            continue
        labels = []
        for port in range(graph.degree(v)):
            if (v, port) not in outputs:
                return False
            label = outputs[(v, port)]
            if label not in problem.g[inputs[(v, port)]]:
                return False
            labels.append(label)
        if Multiset(labels) not in problem.node_constraints.get(
            graph.degree(v), frozenset()
        ):
            return False
    for u, pu, v, pv in graph.edges():
        pair = Multiset((outputs[(u, pu)], outputs[(v, pv)]))
        if pair not in problem.edge_constraint:
            return False
    return True


PROBLEMS = [
    ("coloring", lambda: catalog.coloring(3, 2)),
    ("mis", lambda: catalog.mis(2)),
    ("matching", lambda: catalog.maximal_matching(2)),
    ("echo", lambda: catalog.echo(2)),
]


class TestMutationAgreement:
    @pytest.mark.parametrize("name, build", PROBLEMS)
    @pytest.mark.parametrize("seed", range(5))
    def test_single_mutations_agree_with_oracle(self, name, build, seed):
        problem = build()
        rng = random.Random(seed)
        graph = path(6) if seed % 2 == 0 else cycle(6)
        single = next(iter(problem.sigma_in))
        inputs = HalfEdgeLabeling(
            graph,
            {
                h: single
                if len(problem.sigma_in) == 1
                else rng.choice(sorted(problem.sigma_in))
                for h in graph.half_edges()
            },
        )
        solution = brute_force_solution(problem, graph, inputs)
        assert solution is not None
        labels = sorted(problem.sigma_out, key=str)
        half_edges = list(graph.half_edges())
        for _ in range(12):
            mutated = solution.copy()
            target = rng.choice(half_edges)
            mutated[target] = rng.choice(labels)
            report = check_solution(problem, graph, inputs, mutated)
            assert report.is_valid == independent_verdict(
                problem, graph, inputs, mutated
            )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_property_random_problems_random_labelings(self, seed):
        rng = random.Random(seed)
        problem = random_lcl(seed, num_labels=3, max_degree=3, num_inputs=2)
        graph = random_tree(6, max_degree=3, seed=seed % 50)
        inputs = HalfEdgeLabeling(
            graph,
            {h: rng.choice(sorted(problem.sigma_in)) for h in graph.half_edges()},
        )
        outputs = HalfEdgeLabeling(
            graph,
            {h: rng.choice(sorted(problem.sigma_out)) for h in graph.half_edges()},
        )
        report = check_solution(problem, graph, inputs, outputs)
        assert report.is_valid == independent_verdict(problem, graph, inputs, outputs)

    def test_localization_of_failures(self):
        # A single bad node color fails exactly its own node/edges.
        problem = catalog.coloring(3, 2)
        graph = path(5)
        inputs = HalfEdgeLabeling.constant(graph, NO)
        node_colors = ["c0", "c1", "c2", "c0", "c1"]
        outputs = HalfEdgeLabeling.from_node_labels(graph, node_colors)
        outputs[(2, 0)] = "c1"  # clashes toward node 1 and within node 2
        report = check_solution(problem, graph, inputs, outputs)
        assert 2 in report.failed_nodes
        assert (1, 2) in report.failed_edges
        assert 4 not in report.failed_nodes
        assert (3, 4) not in report.failed_edges


def independently_valid_table(problem, clique, table) -> bool:
    """The two base conditions of Theorem 3.10, re-coded independently."""
    used = {label for outputs in table.values() for label in outputs}
    if not used <= set(clique) <= problem.sigma_out:
        return False
    for a in used:
        for b in used:
            if Multiset((a, b)) not in problem.edge_constraint:
                return False
    inputs_sorted = sorted(problem.sigma_in, key=label_sort_key)
    for degree in problem.degrees():
        for inputs in itertools.combinations_with_replacement(inputs_sorted, degree):
            outputs = table.get(inputs)
            if outputs is None or len(outputs) != degree:
                return False
            for input_label, output in zip(inputs, outputs):
                if output not in problem.allowed_outputs(input_label):
                    return False
            if Multiset(outputs) not in problem.node_constraints.get(degree, ()):
                return False
    return True


def relaxations(problem):
    """``problem`` with one forbidden node or edge configuration allowed,
    once per forbidden configuration."""
    labels = sorted(problem.sigma_out, key=label_sort_key)
    g = {label: problem.allowed_outputs(label) for label in problem.sigma_in}

    def variant(node_constraints, edge_constraint):
        return NodeEdgeCheckableLCL(
            sigma_in=problem.sigma_in,
            sigma_out=problem.sigma_out,
            node_constraints=node_constraints,
            edge_constraint=edge_constraint,
            g=g,
            name=problem.name,
        )

    for pair in itertools.combinations_with_replacement(labels, 2):
        if Multiset(pair) not in problem.edge_constraint:
            yield variant(
                problem.node_constraints,
                list(problem.edge_constraint) + [Multiset(pair)],
            )
    for degree, allowed in sorted(problem.node_constraints.items()):
        for outputs in itertools.combinations_with_replacement(labels, degree):
            if Multiset(outputs) not in allowed:
                node_constraints = dict(problem.node_constraints)
                node_constraints[degree] = list(allowed) + [Multiset(outputs)]
                yield variant(node_constraints, problem.edge_constraint)


class TestSatMutations:
    """Mutated 0-round evidence must never be accepted wrongly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_flipped_literal_polarity_in_model(self, seed):
        # Every single-choice flip in a valid table: the checker's verdict
        # must match the independent re-coding, and some flip must fail.
        problem = solvable_random_lcl(seed, num_labels=4, max_degree=2)
        algorithm = find_zero_round_algorithm(problem)
        assert algorithm is not None, f"planted 0-round solution lost (seed {seed})"
        clique = sorted(algorithm.clique, key=label_sort_key)
        table = algorithm.table
        assert check_zero_round_table(problem, clique, table) == []
        rejected = 0
        for inputs, outputs in table.items():
            for port in range(len(outputs)):
                for label in sorted(problem.sigma_out, key=label_sort_key):
                    if label == outputs[port]:
                        continue
                    mutated = dict(table)
                    mutated[inputs] = outputs[:port] + (label,) + outputs[port + 1 :]
                    accepted = check_zero_round_table(problem, clique, mutated) == []
                    assert accepted == independently_valid_table(
                        problem, clique, mutated
                    ), f"seed {seed}: checker and re-coding disagree on {mutated!r}"
                    rejected += not accepted
        assert rejected, f"seed {seed}: no flip was rejected"

    @pytest.mark.parametrize(
        "name, build",
        [("mis", lambda: catalog.mis(2)), ("echo", lambda: catalog.echo(2))],
    )
    def test_dropped_clause_cannot_smuggle_a_witness(self, name, build):
        # Relaxing any single constraint lets the search find tables the
        # original problem never licensed; checking them against the
        # *original* problem must reject every one.
        problem = build()
        assert find_zero_round_algorithm(problem) is None
        smuggled = 0
        for relaxed in relaxations(problem):
            algorithm = find_zero_round_algorithm(relaxed)
            if algorithm is None:
                continue
            smuggled += 1
            clique = sorted(algorithm.clique, key=label_sort_key)
            assert check_zero_round_table(problem, clique, algorithm.table)
            assert not independently_valid_table(problem, clique, algorithm.table)
        assert smuggled, f"{name}: no relaxation admits a 0-round table"

    def test_truncated_model_is_rejected_outright(self):
        problem = catalog.trivial(3)
        algorithm = find_zero_round_algorithm(problem)
        clique = sorted(algorithm.clique, key=label_sort_key)
        for inputs in algorithm.table:
            truncated = algorithm.table
            del truncated[inputs]
            errors = check_zero_round_table(problem, clique, truncated)
            assert f"no rule for input tuple {inputs!r}" in errors

    def test_mutated_refutation_payloads_are_rejected(self):
        problem = catalog.maximal_matching(2)
        refutation = build_refutation(problem)
        assert refutation is not None and refutation["witnesses"], (
            "maximal-matching lost its 0-round refutation"
        )
        assert check_refutation(problem, refutation) == []

        import copy

        # Dropping a witness hides a clique from the exhaustion claim.
        dropped = copy.deepcopy(refutation)
        dropped["witnesses"].pop()
        assert check_refutation(problem, dropped)

        # Rewriting one recorded clique as a copy of another mismatches
        # the recomputed maximal clique list — a witness cannot quietly
        # swap its obligation for an easier one.
        swapped = copy.deepcopy(refutation)
        assert len(swapped["witnesses"]) >= 2, "need two cliques to swap"
        swapped["witnesses"][0]["clique"] = swapped["witnesses"][1]["clique"]
        assert check_refutation(problem, swapped)

        # An undeclared degree is rejected before any exhaustion runs.
        bad_degree = copy.deepcopy(refutation)
        bad_degree["witnesses"][0]["degree"] = 99
        assert check_refutation(problem, bad_degree)

        # And a problem with a 0-round algorithm must have no refutation
        # for a mutant to impersonate in the first place.
        assert build_refutation(catalog.trivial(2)) is None
