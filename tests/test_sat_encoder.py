"""Property tests for the 0-round search of :mod:`repro.roundelim.zero_round`.

The search is the trust anchor of the base decision of Theorem 3.10:
every verdict starts as a maximal-clique query and ends as an ``A_det``
table the engine-free checker re-proves.  The module keeps the name it
had when these properties were pinned on the retired CNF encoder, so its
test ids stay stable.  Pinned here:

* **round-trip** — on instances with a *planted* deterministic 0-round
  solution (:func:`solvable_random_lcl`), the search finds a table, the
  engine-free checker accepts it, and the algorithm serves every input
  tuple from inside its clique;
* **completeness** — querying only the maximal self-looped cliques
  decides exactly what a query over *every* self-looped clique decides
  (covering is monotone in the clique);
* **relabeling** — any renaming of output labels keeps the decision and
  maps a valid table to a valid table; one that preserves
  ``label_sort_key`` order yields the same clique and table, pushed
  through the renaming;
* **loud refusal** — an empty degree set raises instead of deciding.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProblemDefinitionError
from repro.lcl import catalog
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.lcl.random_problems import random_lcl, solvable_random_lcl
from repro.roundelim import zero_round
from repro.roundelim.canonical import canonical_hash
from repro.roundelim.zero_round import decide_zero_round, find_zero_round_algorithm
from repro.utils.multiset import Multiset, label_sort_key
from repro.verify.refute import check_zero_round_table

seeds = st.integers(min_value=0, max_value=9_999)


def relabel(problem, mapping):
    """``problem`` with every output label pushed through ``mapping``."""
    return NodeEdgeCheckableLCL(
        sigma_in=problem.sigma_in,
        sigma_out=[mapping[label] for label in problem.sigma_out],
        node_constraints={
            degree: [
                Multiset(mapping[x] for x in configuration.items)
                for configuration in configurations
            ]
            for degree, configurations in problem.node_constraints.items()
        },
        edge_constraint=[
            Multiset(mapping[x] for x in configuration.items)
            for configuration in problem.edge_constraint
        ],
        g={
            label: [mapping[output] for output in problem.allowed_outputs(label)]
            for label in problem.sigma_in
        },
        name=problem.name,
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_planted_instances_solve_and_decode(self, seed):
        problem = solvable_random_lcl(seed, num_labels=4, max_degree=3)
        algorithm = find_zero_round_algorithm(problem)
        assert algorithm is not None, f"planted 0-round solution lost (seed {seed})"
        clique = sorted(algorithm.clique, key=repr)
        assert check_zero_round_table(problem, clique, algorithm.table) == []
        for input_tuple in algorithm.table:
            for ordered in set(itertools.permutations(input_tuple)):
                outputs = algorithm.outputs_for(ordered)
                assert set(outputs) <= algorithm.clique
                for label, output in zip(ordered, outputs):
                    assert output in problem.allowed_outputs(label)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_global_solve_agrees_with_clique_queries(self, seed):
        # Some self-looped clique covers exactly when some *maximal* one
        # does: monotonicity of covering in the clique, which the
        # maximal-clique search relies on.
        problem = random_lcl(seed, num_labels=4, max_degree=2, num_inputs=1)
        degrees = problem.degrees()
        looped = [
            label
            for label in sorted(problem.sigma_out, key=label_sort_key)
            if problem.allows_edge(label, label)
        ]
        cliques = [
            frozenset(subset)
            for size in range(1, len(looped) + 1)
            for subset in itertools.combinations(looped, size)
            if all(
                problem.allows_edge(a, b) for a, b in itertools.combinations(subset, 2)
            )
        ]
        every_clique = any(
            zero_round._cover_with_clique(problem, clique, degrees) is not None
            for clique in cliques
        )
        assert decide_zero_round(problem) == every_clique


class TestRelabelingInvariance:
    @settings(max_examples=40, deadline=None)
    @given(seeds, st.data())
    def test_clause_set_invariant_under_any_relabeling(self, seed, data):
        # Renaming output labels permutes the problem's constraints
        # (same canonical hash), so it cannot change the decision, and a
        # table pushed through the renaming solves the renamed problem.
        problem = random_lcl(seed, num_labels=4, max_degree=2, num_inputs=2)
        labels = sorted(problem.sigma_out, key=label_sort_key)
        fresh = data.draw(
            st.permutations([f"relabeled-{index}" for index in range(len(labels))])
        )
        mapping = dict(zip(labels, fresh))
        renamed = relabel(problem, mapping)
        assert canonical_hash(renamed) == canonical_hash(problem)

        original = find_zero_round_algorithm(problem)
        assert decide_zero_round(renamed) == (original is not None)
        if original is None:
            return
        pushed = {
            inputs: tuple(mapping[x] for x in outputs)
            for inputs, outputs in original.table.items()
        }
        clique = sorted((mapping[x] for x in original.clique), key=label_sort_key)
        assert check_zero_round_table(renamed, clique, pushed) == []

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_order_preserving_relabeling_is_a_no_op(self, seed):
        # A renaming that preserves label_sort_key order preserves every
        # rank, so the search must pick the same clique and rules.
        problem = random_lcl(seed, num_labels=4, max_degree=2, num_inputs=1)
        labels = sorted(problem.sigma_out, key=label_sort_key)
        mapping = {label: f"q{index:03d}" for index, label in enumerate(labels)}
        renamed = relabel(problem, mapping)

        original = find_zero_round_algorithm(problem)
        relabeled = find_zero_round_algorithm(renamed)
        assert (original is None) == (relabeled is None)
        if original is None:
            return
        assert relabeled.clique == frozenset(mapping[x] for x in original.clique)
        assert relabeled.table == {
            inputs: tuple(mapping[x] for x in outputs)
            for inputs, outputs in original.table.items()
        }


class TestLoudRefusal:
    def test_no_degrees_is_unsupported(self):
        problem = catalog.trivial(2)
        with pytest.raises(ProblemDefinitionError, match="degrees"):
            find_zero_round_algorithm(problem, degrees=())
        with pytest.raises(ProblemDefinitionError, match="degrees"):
            decide_zero_round(problem, degrees=())
