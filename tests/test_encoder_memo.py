"""The memoized 0-round search is invisible to its callers.

:mod:`repro.roundelim.zero_round` answers both
:func:`find_zero_round_algorithm` and :func:`decide_zero_round` from one
search, memoized per ``(problem, degrees)`` on the problem's structural
equality.  That is only sound if solving never mutates the shared entry,
if a memo hit answers exactly what a fresh search would, and if the memo
never hands one caller's problem object to another: structural equality
ignores ``name``.  (The module keeps the name it had when the memo held
the retired CNF encoder, so its test ids stay stable.)
"""

import copy

import pytest

from repro.lcl import catalog
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.lcl.random_problems import random_lcl, solvable_random_lcl
from repro.roundelim import zero_round
from repro.roundelim.sequence import ProblemSequence
from repro.roundelim.zero_round import decide_zero_round, find_zero_round_algorithm

PROBLEMS = [
    catalog.trivial(3),
    catalog.consensus(3),
    catalog.coloring(3, 2),
    catalog.sinkless_orientation(3),
    ProblemSequence(catalog.coloring(3, 2), use_cache=False).problem(1),
    ProblemSequence(catalog.sinkless_orientation(3), use_cache=False).problem(1),
    random_lcl(seed=3, max_degree=3, num_inputs=2),
    solvable_random_lcl(seed=5, max_degree=3, num_inputs=2),
]


def outcome(problem):
    """The decision and algorithm, as plain values."""
    algorithm = find_zero_round_algorithm(problem)
    decision = decide_zero_round(problem)
    if algorithm is None:
        return decision, None
    return decision, (algorithm.clique, algorithm.table)


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
def test_cached_encoder_is_unchanged_by_solves(problem):
    degrees = problem.degrees()
    entry = zero_round._search(problem, degrees)
    before = copy.deepcopy(entry)
    for _ in range(3):
        outcome(problem)
        algorithm = find_zero_round_algorithm(problem)
        if algorithm is not None:
            # Callers get copies: scribbling on one must not reach the memo.
            algorithm.table.clear()
    assert zero_round._search(problem, degrees) is entry
    assert entry == before


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
def test_repeated_calls_equal_the_uncached_result(problem, monkeypatch):
    memo = zero_round._search
    memo.cache_clear()
    cached = [outcome(problem) for _ in range(3)]
    assert memo.cache_info().hits >= 3
    monkeypatch.setattr(zero_round, "_search", memo.__wrapped__)
    uncached = outcome(problem)
    assert cached == [uncached] * 3


def renamed(problem, name):
    """A structurally equal copy of ``problem`` under another name."""
    return NodeEdgeCheckableLCL(
        sigma_in=problem.sigma_in,
        sigma_out=problem.sigma_out,
        node_constraints=problem.node_constraints,
        edge_constraint=problem.edge_constraint,
        g={label: problem.allowed_outputs(label) for label in problem.sigma_in},
        name=name,
    )


def test_each_caller_gets_its_own_problem_back():
    zero_round._search.cache_clear()
    first = renamed(catalog.trivial(3), "first")
    second = renamed(catalog.trivial(3), "second")
    assert first == second and first is not second

    found_first = find_zero_round_algorithm(first)
    found_second = find_zero_round_algorithm(second)
    assert zero_round._search.cache_info().hits == 1

    assert found_first.problem is first
    assert found_second.problem is second
    assert (found_first.clique, found_first.table) == (
        found_second.clique,
        found_second.table,
    )
