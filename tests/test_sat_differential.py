"""Differential harness for the 0-round (un)satisfiability decision.

The base decision of Theorem 3.10 has two independent builders: the
memoized maximal-clique search of :mod:`repro.roundelim.zero_round`
(which yields an ``A_det`` table) and :func:`build_refutation` (which
enumerates the maximal self-looped cliques with its own code and yields
one uncoverable input tuple per clique).  This suite drives every
catalog problem through both and asserts

* exactly one side has evidence, and :func:`decide_zero_round` agrees
  with it;
* a memo hit answers exactly what the uncached search answers, and the
  refutation payload and its certificate checksum are reproducible;
* the engine-free checkers (:func:`check_zero_round_table`,
  :func:`check_refutation`) accept whichever side was built.

The same checks run on a derived ``f^1`` alphabet and on eight seeded
random LCLs.

A second block pins the :func:`uncoverable_tuple` candidate hoist (one
candidate list per input label per clique, not one per port per
enumerated tuple), and a lint self-check keeps the checker half of
:mod:`repro.verify.refute` engine-free.

The module keeps the name it had when it compared the search against the
retired CNF backend, so its test ids stay stable.
"""

import json

import pytest

from repro.analysis import run_lint
from repro.lcl import catalog
from repro.lcl.catalog import standard_catalog
from repro.lcl.random_problems import random_lcl, solvable_random_lcl
from repro.roundelim import zero_round
from repro.roundelim.zero_round import decide_zero_round, find_zero_round_algorithm
from repro.verify import refute
from repro.verify.certificate import body_checksum
from repro.verify.refute import (
    build_refutation,
    check_refutation,
    check_zero_round_table,
    self_looped_cliques,
    uncoverable_tuple,
)

CATALOG_PROBLEMS = [(p.name, p) for p in standard_catalog(max_degree=3)]


def decision_trace(problem):
    """Everything decided for ``problem``, checksums included."""
    algorithm = find_zero_round_algorithm(problem)
    decision = decide_zero_round(problem)
    refutation = build_refutation(problem)
    trace = ["decision", decision]
    if algorithm is None:
        trace += ["no-algorithm"]
    else:
        trace += ["clique", algorithm.clique, "table", algorithm.table]
    if refutation is None:
        trace += ["no-refutation"]
    else:
        trace += [
            "refutation",
            json.dumps(refutation, sort_keys=True),
            body_checksum(refutation),
        ]
    return trace


def uncached_trace(problem, monkeypatch):
    """:func:`decision_trace` with the search memo bypassed."""
    with monkeypatch.context() as patch:
        patch.setattr(zero_round, "_search", zero_round._search.__wrapped__)
        return decision_trace(problem)


def assert_evidence_agrees(problem, monkeypatch):
    trace = decision_trace(problem)
    assert uncached_trace(problem, monkeypatch) == trace, (
        f"{problem.name}: memo hit diverged from a fresh search"
    )
    # The two sides of the decision are mutually exclusive evidence, and
    # the decision names the side that has it.
    assert ("no-algorithm" in trace) != ("no-refutation" in trace)
    assert trace[1] == ("no-algorithm" not in trace)


def assert_checkers_accept(problem):
    algorithm = find_zero_round_algorithm(problem)
    refutation = build_refutation(problem)
    if algorithm is not None:
        assert check_zero_round_table(
            problem, sorted(algorithm.clique, key=repr), algorithm.table
        ) == []
    if refutation is not None:
        assert check_refutation(problem, refutation) == []


class TestCatalogDifferential:
    @pytest.mark.parametrize(
        "name, problem", CATALOG_PROBLEMS, ids=[n for n, _ in CATALOG_PROBLEMS]
    )
    def test_decisions_and_witnesses_agree(self, name, problem, monkeypatch):
        assert_evidence_agrees(problem, monkeypatch)

    @pytest.mark.parametrize(
        "name, problem", CATALOG_PROBLEMS, ids=[n for n, _ in CATALOG_PROBLEMS]
    )
    def test_engine_free_checkers_accept_sat_witnesses(self, name, problem):
        assert_checkers_accept(problem)

    def test_derived_alphabet_agrees(self, monkeypatch):
        # The 17-label step problem of 3-coloring is the headline speedup
        # case (bench_roundelim measures it); its decision must be exact.
        from repro.roundelim.sequence import ProblemSequence

        f1 = ProblemSequence(catalog.coloring(3, 2), use_cache=False).problem(1)
        assert len(f1.sigma_out) >= 10
        assert_evidence_agrees(f1, monkeypatch)
        assert_checkers_accept(f1)


def _random_problem(seed):
    """Deterministic variety over generators, shapes, and inputs."""
    if seed % 4 == 1:
        return solvable_random_lcl(seed, num_inputs=2)
    if seed % 4 == 2:
        return random_lcl(seed, num_labels=4, max_degree=3, num_inputs=1)
    if seed % 4 == 3:
        return random_lcl(seed, num_labels=3, max_degree=2, num_inputs=2)
    return solvable_random_lcl(seed, num_labels=4, max_degree=3)


@pytest.mark.parametrize("seed", range(8))
def test_random_decisions_agree(seed, monkeypatch):
    problem = _random_problem(seed)
    assert_evidence_agrees(problem, monkeypatch)
    assert_checkers_accept(problem)


class TestCandidateHoist:
    """Regression guard for the per-tuple candidate recomputation bug.

    ``uncoverable_tuple`` used to rebuild ``g(input) ∩ clique`` for
    every port of every enumerated tuple; the lists depend only on the
    input label, so they are now hoisted to one computation per input
    label per call.
    """

    def setup_method(self):
        refute._candidate_stats.update(candidate_lists=0)

    def test_candidate_lists_computed_once_per_input_label(self):
        problem = dict(CATALOG_PROBLEMS)["echo"]
        cliques = self_looped_cliques(problem)
        assert cliques, "echo lost its self-looped cliques"
        for calls_so_far, clique in enumerate(cliques):
            uncoverable_tuple(problem, clique)
            assert refute._candidate_stats["candidate_lists"] == (
                (calls_so_far + 1) * len(problem.sigma_in)
            ), "candidate lists recomputed inside the tuple enumeration"

    def test_hoisted_scan_matches_per_tuple_covers(self):
        # The hoisted enumeration must agree with the checker's
        # independent per-tuple ``_covers`` on every clique.
        import itertools

        from repro.utils.multiset import label_sort_key

        problem = dict(CATALOG_PROBLEMS)["maximal-matching"]
        inputs_sorted = sorted(problem.sigma_in, key=label_sort_key)
        cliques = self_looped_cliques(problem)
        assert cliques, "maximal-matching lost its self-looped cliques"
        for clique in cliques:
            witness = uncoverable_tuple(problem, clique)
            expected = None
            for degree in problem.degrees():
                for input_tuple in itertools.combinations_with_replacement(
                    inputs_sorted, degree
                ):
                    if not refute._covers(problem, clique, input_tuple):
                        expected = (degree, input_tuple)
                        break
                if expected is not None:
                    break
            assert witness == expected


class TestLintSelfCheck:
    def test_encoder_module_is_order_audited(self):
        # Modules named ``encode`` emit ordered output and stay inside
        # the REP002 audit (the REP010 fixtures of test_lint_interproc
        # plant a ``pkg/encode.py`` that relies on it).
        from repro.analysis import contracts

        assert "encode" in contracts.ORDERED_OUTPUT_STEMS

    def test_refute_module_stays_engine_free(self):
        # REP003: the checker half of repro.verify must not reach the
        # engine via module-level imports.
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[1]
        result = run_lint([repo_root / "src"], root=repo_root, select=["REP003"])
        assert result.findings == [], "\n".join(f.render() for f in result.findings)
