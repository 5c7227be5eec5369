"""The memoized 0-round encoder is shared, read-only and invisible.

:mod:`repro.roundelim.zero_round` builds each problem's
:class:`~repro.sat.ZeroRoundEncoder` once per ``(problem, degrees)``
and reuses it, with its maximal cliques, for every later decision.  That is only sound if solving
never mutates the shared encoder and a memo hit answers exactly what a
freshly built encoder would.
"""

import pytest

from repro import sat
from repro.lcl import catalog
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
    """The SAT path's decision and algorithm, as plain values."""
    sat.configure_sat(enabled=True)
    try:
        algorithm = find_zero_round_algorithm(problem)
        decision = decide_zero_round(problem)
    finally:
        sat.configure_sat(enabled=None)
    if algorithm is None:
        return decision, None
    return decision, (algorithm.clique, algorithm.table)


def snapshot(encoder):
    return (
        list(encoder.formula.clauses),
        encoder.formula.num_vars,
        encoder.var_semantics(),
        encoder.decision_order(),
        encoder.maximal_cliques(),
    )


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
def test_cached_encoder_is_unchanged_by_solves(problem):
    degrees = problem.degrees()
    encoder, cliques = zero_round._sat_encoding(problem, degrees)
    before = snapshot(encoder)
    for _ in range(3):
        outcome(problem)
    assert zero_round._sat_encoding(problem, degrees) == (encoder, cliques)
    assert zero_round._sat_encoding(problem, degrees)[0] is encoder
    assert snapshot(encoder) == before
    assert list(cliques) == encoder.maximal_cliques()


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
def test_repeated_calls_equal_the_uncached_result(problem, monkeypatch):
    memo = zero_round._sat_encoding
    memo.cache_clear()
    cached = [outcome(problem) for _ in range(3)]
    assert memo.cache_info().hits >= 3
    monkeypatch.setattr(zero_round, "_sat_encoding", memo.__wrapped__)
    uncached = outcome(problem)
    assert cached == [uncached] * 3
