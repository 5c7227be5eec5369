"""Differential: the checker's clique enumeration against ordered expansion.

:func:`repro.verify.refute.self_looped_cliques` lists the maximal cliques
of the self-looped edge-compatibility graph with a pivoted Bron–Kerbosch
search, then sorts them by their tuples of :func:`label_sort_key`
positions.  :func:`reference_self_looped_cliques` below is the ordered
expansion it replaced (every clique expanded, maximality filtered at the
leaves), which emits exactly that order; refutation payloads and their
certificate checksums depend on it, so the lists must be equal, order
included.  The expansion is exponential in the clique size, which the
last test pins the new search against.
"""

import itertools
import time
from typing import Any, Dict, FrozenSet, List, Tuple

import pytest

from repro.lcl import catalog
from repro.lcl.catalog import NO_INPUT, standard_catalog
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.lcl.random_problems import random_lcl, solvable_random_lcl
from repro.utils.multiset import Multiset, label_sort_key
from repro.verify.refute import self_looped_cliques


def reference_self_looped_cliques(problem) -> List[FrozenSet[Any]]:
    """Plain ordered expansion with an explicit maximality filter."""
    vertices = [
        label
        for label in sorted(problem.sigma_out, key=label_sort_key)
        if problem.allows_edge(label, label)
    ]
    adjacency: Dict[Any, FrozenSet[Any]] = {
        v: frozenset(u for u in vertices if u != v and problem.allows_edge(u, v))
        for v in vertices
    }
    cliques: List[FrozenSet[Any]] = []

    def expand(clique: Tuple[Any, ...], candidates: List[Any]) -> None:
        extended = False
        for index, vertex in enumerate(candidates):
            extended = True
            expand(
                clique + (vertex,),
                [u for u in candidates[index + 1 :] if u in adjacency[vertex]],
            )
        if not extended and clique:
            grown = frozenset(clique)
            # Maximal iff no vertex outside is adjacent to all members.
            if not any(
                grown <= adjacency[v] for v in vertices if v not in grown
            ):
                if grown not in cliques:
                    cliques.append(grown)

    expand((), vertices)
    return cliques


CATALOG_PROBLEMS = [
    (f"{p.name}@{degree}", p)
    for degree in (3, 4)
    for p in standard_catalog(max_degree=degree)
]


def random_problem(seed):
    """Random LCLs from sparse to dense compatibility graphs."""
    if seed % 3 == 0:
        return solvable_random_lcl(seed, num_labels=6, max_degree=3, num_inputs=2)
    density = (0.3, 0.5, 0.7, 0.9)[seed % 4]
    return random_lcl(seed, num_labels=5 + seed % 6, max_degree=2, density=density)


def all_compatible(num_labels):
    """Every label self-looped and compatible with every other: one clique."""
    labels = [f"l{i:02d}" for i in range(num_labels)]
    return NodeEdgeCheckableLCL(
        sigma_in=[NO_INPUT],
        sigma_out=labels,
        node_constraints={1: [Multiset([label]) for label in labels]},
        edge_constraint=[
            Multiset(pair) for pair in itertools.combinations_with_replacement(labels, 2)
        ],
        g={NO_INPUT: labels},
        name=f"all-compatible({num_labels})",
    )


class TestCliquesMatchOrderedExpansion:
    @pytest.mark.parametrize(
        "name, problem", CATALOG_PROBLEMS, ids=[n for n, _ in CATALOG_PROBLEMS]
    )
    def test_catalog(self, name, problem):
        assert self_looped_cliques(problem) == reference_self_looped_cliques(problem)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_problems(self, seed):
        problem = random_problem(seed)
        assert self_looped_cliques(problem) == reference_self_looped_cliques(problem)

    def test_derived_alphabet(self):
        from repro.roundelim.sequence import ProblemSequence

        f1 = ProblemSequence(catalog.coloring(3, 2), use_cache=False).problem(1)
        assert self_looped_cliques(f1) == reference_self_looped_cliques(f1)

    def test_no_self_looped_label_has_no_clique(self):
        problem = catalog.coloring(3, 2)
        assert self_looped_cliques(problem) == reference_self_looped_cliques(problem) == []

    @pytest.mark.parametrize("num_labels", [1, 12])
    def test_all_compatible_small(self, num_labels):
        problem = all_compatible(num_labels)
        assert self_looped_cliques(problem) == reference_self_looped_cliques(problem)
        assert self_looped_cliques(problem) == [problem.sigma_out]


class TestCliqueEnumerationScales:
    def test_one_clique_of_28_labels(self):
        # Ordered expansion visits all 2^28 cliques of this graph.
        problem = all_compatible(28)
        start = time.perf_counter()
        cliques = self_looped_cliques(problem)
        elapsed = time.perf_counter() - start
        assert cliques == [problem.sigma_out]
        assert elapsed < 0.5, f"28 compatible labels took {elapsed:.2f} s"
