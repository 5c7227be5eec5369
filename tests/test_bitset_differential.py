"""Differential-oracle harness for the compiled bitset backend.

The bitset kernels (:mod:`repro.roundelim.bitset`) promise to be
*representation-blind*: flipping ``REPRO_BITSET`` must never change a
single output bit.  This suite drives every catalog problem, a seeded
population of :func:`solvable_random_lcl` draws, and multi-step
``ProblemSequence`` walks through both backends and asserts

* identical operator outputs (``==`` on the problems themselves — the
  backends share input spellings, so equality is exact, not just
  canonical);
* identical canonical hashes (what the operator cache and certificates
  key on);
* identical gap-pipeline verdicts and *certificate checksums* — the
  strongest end-to-end statement: the bytes a certificate signs are the
  same bytes;
* identical budget verdicts when a budget trips mid-operator.

A second block pins the engine accounting: the compiled path must
actually run (``bitset_steps``), unsupported shapes must fall back
loudly (``bitset_fallbacks``), and the ``_nonempty_subsets`` memo must
stop rebuilding the powerset on every call (the latent perf bug fixed
alongside the backend).

The fuzz sweep scales with ``REPRO_BITSET_DIFF_COUNT`` (default 100) and
is marked ``fuzz`` like the conformance harness, so tier-1 runs the
catalog + accounting tests while nightly jobs widen the population.
"""

import itertools
import math
import re
import time
import traceback
from collections import Counter

import pytest

from repro.analysis import run_lint
from repro.exceptions import BudgetExceededError, ProblemDefinitionError
from repro.lcl import catalog
from repro.lcl.catalog import standard_catalog
from repro.lcl.random_problems import random_lcl, solvable_random_lcl
from repro.roundelim import ProblemSequence
from repro.roundelim import ops
from repro.roundelim.canonical import canonical_hash, clear_canonical_memo
from repro.roundelim.gap import speedup
from repro.roundelim.universe import maximal_boxes
from repro.roundelim.ops import (
    R,
    R_bar,
    configure_bitset,
    simplify,
)
from repro.utils import cache as operator_cache
from repro.utils import env
from repro.utils.budget import Budget
from repro.utils.multiset import Multiset, label_sort_key
from repro.verify.certificate import body_checksum

CATALOG_PROBLEMS = [(p.name, p) for p in standard_catalog(max_degree=3)]

#: Degree-4 catalog problems whose differential walk takes more than ~4 s
#: on one core; they run with the fuzz sweep (``-m fuzz``).  ``5-coloring``
#: spends ~22 s on 2 cores in the oracle leg alone (the pure-Python
#: ``R`` / ``R̄`` loops and the oracle order search over its 31-label
#: ``R``).
SLOW_DEGREE_4 = {"5-coloring"}

#: Universe cap for the harness: it only makes the (deliberate) blow-up
#: proofs raise after 512 closed sets or maximal boxes instead of 4096.
MAX_UNIVERSE = 512

#: Walks whose oracle leg takes more than a minute at ``MAX_UNIVERSE``:
#: the maximal-box enumeration reaches their ``R̄`` universes (165 labels
#: for ``4-coloring``, 127 for ``7-edge-coloring@4``), and the oracle's
#: pure-Python power-problem loops run over them.  Tier-1 walks them at
#: ``SLOW_WALK_CAP``, which ends in the ``R̄`` blow-up marker, as the
#: walks did when box enumeration tripped first; the full walk runs with
#: the fuzz sweep (``-m fuzz``) under the ``-full`` id.
SLOW_WALKS = {"4-coloring", "7-edge-coloring@4"}
SLOW_WALK_CAP = 64


def _catalog_params(name, problem, case_id, marks):
    if name not in SLOW_WALKS:
        return [pytest.param(name, problem, MAX_UNIVERSE, id=case_id, marks=marks)]
    return [
        pytest.param(name, problem, SLOW_WALK_CAP, id=case_id, marks=marks),
        pytest.param(
            name, problem, MAX_UNIVERSE, id=f"{case_id}-full", marks=[pytest.mark.fuzz]
        ),
    ]


#: The degree-3 catalog under its own names, then the degree-4 catalog.
CATALOG_CASES = [
    param
    for name, problem in CATALOG_PROBLEMS
    for param in _catalog_params(name, problem, name, [])
] + [
    param
    for problem in standard_catalog(max_degree=4)
    for param in _catalog_params(
        f"{problem.name}@4",
        problem,
        f"cat4-{problem.name}",
        [pytest.mark.fuzz] if problem.name in SLOW_DEGREE_4 else [],
    )
]

#: Fuzz population size (``REPRO_BITSET_DIFF_COUNT``, default 100).
DIFF_COUNT = int(env.get_int("REPRO_BITSET_DIFF_COUNT") or 100)
#: Seeds per parametrized fuzz chunk (narrow failure ranges, cheap collection).
CHUNK = 25


@pytest.fixture(autouse=True)
def fresh_engine():
    """Uncached, zeroed counters; backend restored to the env knob."""
    operator_cache.reset()
    operator_cache.reset_stats()
    operator_cache.configure(enabled=True, disk_dir=None)
    yield
    configure_bitset(enabled=None)
    operator_cache.reset()
    operator_cache.reset_stats()


class TickMeter(Budget):
    """An unlimited budget that sums every ``tick`` amount it receives."""

    def __init__(self):
        super().__init__()
        self.ticked = 0
        self.calls = 0

    def tick(self, iterations=1):
        self.ticked += iterations
        self.calls += 1
        super().tick(iterations)


def engine_trace(problem, enabled, max_universe=MAX_UNIVERSE):
    """Everything one backend produces for ``problem``, hashes included.

    Alphabet blow-ups are legitimate outcomes (they depend only on the
    *shared* universe code, never on the backend), so they appear in the
    trace as markers and must simply agree across backends.
    """
    configure_bitset(enabled=enabled)
    clear_canonical_memo()
    trace = []
    try:
        r = R(problem, max_universe=max_universe, use_cache=False)
    except ProblemDefinitionError:
        return trace + ["R blow-up"]
    trace += ["R", r, canonical_hash(r)]
    simplified = simplify(r, domination=True, use_cache=False)
    trace += ["simplify", simplified, canonical_hash(simplified)]
    try:
        rbar = R_bar(simplified, max_universe=max_universe, use_cache=False)
    except ProblemDefinitionError:
        return trace + ["Rbar blow-up"]
    trace += ["Rbar", rbar, canonical_hash(rbar)]
    final = simplify(rbar, domination=True, use_cache=False)
    trace += ["final", final, canonical_hash(final)]
    return trace


def _strip_wall_clock(value):
    """Certificate body minus ``elapsed`` diagnostics.

    Budget-exceeded certificates faithfully record the wall-clock time at
    the trip — the single legitimately nondeterministic byte source (two
    *oracle* runs differ in it too).  Everything else must be identical.
    """
    if isinstance(value, dict):
        return {k: _strip_wall_clock(v) for k, v in sorted(value.items()) if k != "elapsed"}
    if isinstance(value, list):
        return [_strip_wall_clock(v) for v in value]
    return value


def pipeline_trace(problem, enabled, seed=0, max_universe=MAX_UNIVERSE):
    """Gap-pipeline verdict + certificate checksum under one backend.

    The operator cache is cleared so both backends run *cold* — a warm
    cache would change which budget charges fire, which the unknown-
    verdict certificates faithfully record.
    """
    operator_cache.reset()
    operator_cache.reset_stats()
    configure_bitset(enabled=enabled)
    result = speedup(
        problem,
        max_steps=2,
        max_universe=max_universe,
        budget=Budget(max_configs=5_000),
    )
    certificate = result.certify(trials=2, seed=seed)
    return (
        result.status,
        result.constant_rounds,
        result.fixed_point_at,
        body_checksum(_strip_wall_clock(certificate.body)),
    )


class TestCatalogDifferential:
    @pytest.mark.parametrize("name, problem, cap", CATALOG_CASES)
    def test_operator_walks_agree(self, name, problem, cap):
        oracle = engine_trace(problem, enabled=False, max_universe=cap)
        bitset = engine_trace(problem, enabled=True, max_universe=cap)
        assert bitset == oracle, f"{name}: backends diverged"
        if cap == SLOW_WALK_CAP:
            assert oracle[-1] == "Rbar blow-up"

    @pytest.mark.parametrize("name, problem, cap", CATALOG_CASES)
    def test_verdicts_and_certificates_agree(self, name, problem, cap):
        oracle = pipeline_trace(problem, enabled=False, max_universe=cap)
        bitset = pipeline_trace(problem, enabled=True, max_universe=cap)
        assert bitset == oracle, f"{name}: verdict or certificate bytes diverged"

    def test_multi_step_sequences_agree(self):
        # mis stops at f^1: its f^2 alphabet legitimately blows up.
        for name, steps in (
            ("echo", 3),
            ("sinkless-orientation(delta=3)", 3),
            ("mis", 2),
        ):
            problem = dict(CATALOG_PROBLEMS)[name]
            configure_bitset(enabled=False)
            oracle_walk = [
                ProblemSequence(problem, use_cache=False).problem(k)
                for k in range(steps)
            ]
            configure_bitset(enabled=True)
            bitset_walk = [
                ProblemSequence(problem, use_cache=False).problem(k)
                for k in range(steps)
            ]
            assert bitset_walk == oracle_walk, f"{name}: sequence walk diverged"
            assert [canonical_hash(p) for p in bitset_walk] == [
                canonical_hash(p) for p in oracle_walk
            ]

    def test_deep_step_problem_agrees(self):
        # The 17-label step problem of 3-coloring is the headline speedup
        # case (bench_roundelim measures it); it must also be *exact*.
        # Only the forward operator is compared: the step problem's R̄
        # universe legitimately exceeds the default cap, and the oracle
        # spends minutes proving that.
        configure_bitset(enabled=True)
        f1 = ProblemSequence(catalog.coloring(3, 2), use_cache=False).problem(1)
        assert len(f1.sigma_out) >= 10
        traces = {}
        for enabled in (False, True):
            configure_bitset(enabled=enabled)
            r = R(f1, use_cache=False)
            simplified = simplify(r, domination=True, use_cache=False)
            traces[enabled] = (r, simplified, canonical_hash(r), canonical_hash(simplified))
        assert traces[True] == traces[False]

    def test_budget_verdicts_agree(self):
        # A budget that trips mid-operator must trip identically: the
        # bitset path charges the same counts at the same points.  The
        # message embeds elapsed wall-clock, which no backend controls —
        # normalize it away before comparing.
        problem = dict(CATALOG_PROBLEMS)["5-edge-coloring"]
        charges = {}
        for enabled in (False, True):
            configure_bitset(enabled=enabled)
            budget = Budget(max_configs=20)
            with budget:
                with pytest.raises(BudgetExceededError) as outcome:
                    R(problem, use_cache=False)
            message = re.sub(r"after \d+(\.\d+)?s", "after <elapsed>", str(outcome.value))
            charges[enabled] = (budget.configurations, message)
        assert charges[True] == charges[False]


def _fuzz_chunks(count):
    return [
        pytest.param(
            start,
            min(start + CHUNK, count),
            id=f"seeds{start}-{min(start + CHUNK, count) - 1}",
        )
        for start in range(0, count, CHUNK)
    ]


def _fuzz_problem(seed):
    """Deterministic variety over generators, shapes, inputs and degrees 2-5."""
    shape = seed % 8
    if shape == 1:
        return solvable_random_lcl(seed, num_inputs=2)
    if shape == 2:
        return random_lcl(seed, num_labels=4, max_degree=3, num_inputs=1)
    if shape == 3:
        return random_lcl(seed, num_labels=3, max_degree=2, num_inputs=2)
    if shape == 4:
        return random_lcl(seed, num_labels=4, max_degree=4, num_inputs=1)
    if shape == 5:
        return solvable_random_lcl(seed, num_labels=4, max_degree=4)
    if shape == 6:
        return random_lcl(seed, num_labels=3, max_degree=5, num_inputs=2)
    if shape == 7:
        return solvable_random_lcl(seed, num_labels=4, max_degree=5, num_inputs=2)
    return solvable_random_lcl(seed, num_labels=4, max_degree=3)


@pytest.mark.fuzz
@pytest.mark.parametrize(("start", "stop"), _fuzz_chunks(DIFF_COUNT))
def test_fuzzed_problems_agree(start, stop):
    for seed in range(start, stop):
        problem = _fuzz_problem(seed)
        oracle = engine_trace(problem, enabled=False)
        bitset = engine_trace(problem, enabled=True)
        assert bitset == oracle, f"seed {seed}: backends diverged"


@pytest.mark.fuzz
@pytest.mark.parametrize(("start", "stop"), _fuzz_chunks(max(20, DIFF_COUNT // 5)))
def test_fuzzed_certificates_agree(start, stop):
    for seed in range(start, stop):
        problem = _fuzz_problem(seed)
        oracle = pipeline_trace(problem, enabled=False, seed=seed)
        bitset = pipeline_trace(problem, enabled=True, seed=seed)
        assert bitset == oracle, f"seed {seed}: certificate bytes diverged"


class TestEngineAccounting:
    def test_bitset_path_actually_runs(self):
        configure_bitset(enabled=True)
        R(dict(CATALOG_PROBLEMS)["mis"], use_cache=False)
        counters = operator_cache.stats()["operators"]
        assert counters["R"]["bitset_steps"] >= 1

    def test_oracle_path_records_no_bitset_steps(self):
        configure_bitset(enabled=False)
        R(dict(CATALOG_PROBLEMS)["mis"], use_cache=False)
        counters = operator_cache.stats()["operators"]
        assert counters["R"]["bitset_steps"] == 0

    @pytest.mark.parametrize("labels", [64, 70])
    def test_word_width_decides_the_backend(self, labels):
        # 64 output labels fill the packing word exactly and stay compiled;
        # 70 exceed it, so the compiled path must decline and the oracle
        # must still answer.
        wide = catalog.trivial(2, labels=tuple(f"t{i}" for i in range(labels)))
        configure_bitset(enabled=True)
        result = R(wide, use_cache=False)
        counters = dict(operator_cache.stats()["operators"]["R"])
        configure_bitset(enabled=False)
        assert result == R(wide, use_cache=False)
        if labels <= 64:
            assert counters["bitset_steps"] >= 1
            assert counters["bitset_fallbacks"] == 0
        else:
            assert counters["bitset_fallbacks"] >= 1

    def test_degree_four_walk_never_falls_back(self):
        # The classify-d4 benchmark set: the degree-4 catalog without the
        # three problems whose depth-1 walk is too slow to benchmark.
        configure_bitset(enabled=True)
        for problem in standard_catalog(max_degree=4):
            if problem.name not in ("5-coloring", "7-edge-coloring", "weak-2-coloring"):
                speedup(problem, max_steps=1)
        counters = operator_cache.stats()["operators"]
        assert counters["R"]["bitset_steps"] >= 1
        assert {name: c["bitset_fallbacks"] for name, c in counters.items()} == {
            name: 0 for name in counters
        }

    def test_kernel_ticks_match_the_oracle_spread_over_the_walk(self):
        # The full universe makes every tick a power-problem tick.  The
        # oracle ticks once per combination; the kernel once per first
        # index, with the same total, so a degree-4 walk keeps polling.
        problem = {p.name: p for p in standard_catalog(max_degree=4)}["mis"]
        meters = {}
        for enabled in (False, True):
            configure_bitset(enabled=enabled)
            meters[enabled] = TickMeter()
            with meters[enabled]:
                R(problem, universe_mode="full", use_cache=False)
        assert 4 in problem.node_constraints
        assert meters[True].ticked == meters[False].ticked
        assert meters[True].calls > 1 + len(problem.node_constraints)

    def test_env_knob_disables_backend(self, monkeypatch):
        configure_bitset(enabled=None)  # defer to the environment
        monkeypatch.setenv("REPRO_BITSET", "0")
        R(dict(CATALOG_PROBLEMS)["mis"], use_cache=False)
        counters = operator_cache.stats()["operators"]
        assert counters["R"]["bitset_steps"] == 0
        monkeypatch.setenv("REPRO_BITSET", "1")
        R(dict(CATALOG_PROBLEMS)["mis"], use_cache=False)
        counters = operator_cache.stats()["operators"]
        assert counters["R"]["bitset_steps"] >= 1


#: Box cap for the universe-layer differential (the production default).
BOX_CAP = 4096

#: Cap for the BFS oracle, which counts search states rather than maximal
#: boxes: where it would trip at ``BOX_CAP`` it gets this much room.
ORACLE_CAP = 10**7

#: ``(max_degree, stage, name, degree)`` cases whose BFS oracle takes more
#: than ~1 s (seconds measured on a 2-core box in comments): it visits
#: every box, with one ``Multiset`` probe per selection of each candidate.
#: Tier-1 checks the enumerator's maximal boxes with
#: :func:`_check_maximal_boxes` there; ``test_deep_cases_match_oracle``
#: runs the oracle with the fuzz sweep (``-m fuzz``).
DEEP_BOX_CASES = {
    (3, "R", "echo", 3),  # 7.5 s
    (4, "R", "echo", 3),  # 8.1 s
    (3, "R", "weak-2-coloring", 3),  # 26 s
    (4, "R", "weak-2-coloring", 3),  # 16 s
    (3, "sR", "weak-2-coloring", 3),  # 1-2 s
    (4, "sR", "weak-2-coloring", 3),  # 1-2 s
    (4, "sR", "weak-2-coloring", 4),  # 40 s
    (4, "R", "7-edge-coloring", 3),  # 8.9 s
    (4, "R", "7-edge-coloring", 4),  # 28 s
    (3, "sR", "4-coloring", 2),  # 115 s
}

#: Cases the BFS oracle does not finish in 150 s: tier-1 checks them with
#: :func:`_check_maximal_boxes` only.
BEYOND_ORACLE = {
    (3, "R", "4-coloring", 2),
    (3, "R", "4-coloring", 3),
    (3, "sR", "4-coloring", 3),
    (4, "R", "echo", 4),
    (4, "R", "weak-2-coloring", 4),
}

#: Most candidate boxes :func:`_maximal_boxes_by_search` may try (about
#: 0.3 s at 8 labels and degree 3).  The deep cases that tier-1 compared
#: with the oracle before the enumerator (the degree-3 ``R`` stages of
#: ``echo``, ``weak-2-coloring`` and ``7-edge-coloring@4``) are below it.
#: Above it (``R`` and ``simplify(R)`` of ``4-coloring`` at degree 3,
#: ``weak-2-coloring@4`` at degree 4, ``R`` of ``echo@4`` and
#: ``7-edge-coloring@4`` at degree 4), the deep and beyond-oracle cases are
#: checked against the definition only, which cannot see a lost box whose
#: configurations other boxes cover.
SEARCH_LIMIT = 2**15

#: ``R`` and ``simplify(R(·))`` of ``5-coloring@4`` (31 and 30 labels):
#: the enumerator trips on closed sets; the oracle must trip too at
#: ``BOX_CAP``.  That takes the oracle 24-77 s below degree 4 and 2 s for
#: ``simplify(R)`` at degree 4 (``-m fuzz`` there); tier-1 keeps ``R`` at
#: degree 4 (under 1 s), the one it compared before the enumerator.
TRIPPING_CASES = {
    (4, stage, "5-coloring", degree) for stage in ("R", "sR") for degree in (2, 3, 4)
}
SLOW_TRIPS = TRIPPING_CASES - {(4, "R", "5-coloring", 4)}

_STAGES = {"p": "", "R": "R-", "sR": "sR-"}


def _box_cases():
    """``p``, ``R(p)`` and ``simplify(R(p))`` of ``standard_catalog(3|4)``
    at every degree >= 2."""
    cases = []
    for max_degree in (3, 4):
        for problem in standard_catalog(max_degree=max_degree):
            for stage, prefix in _STAGES.items():
                for degree in sorted(problem.node_constraints):
                    if degree < 2:
                        continue
                    key = (max_degree, stage, problem.name, degree)
                    cases.append(
                        pytest.param(
                            *key,
                            id=f"cat{max_degree}-{prefix}{problem.name}-deg{degree}",
                            marks=[pytest.mark.fuzz] if key in SLOW_TRIPS else [],
                        )
                    )
    return cases


_staged_problems = {}


def _box_problem(max_degree, stage, name):
    key = (max_degree, stage, name)
    if key not in _staged_problems:
        if stage == "p":
            problem = {p.name: p for p in standard_catalog(max_degree=max_degree)}[name]
        elif stage == "R":
            problem = R(_box_problem(max_degree, "p", name), use_cache=False)
        else:
            problem = simplify(
                _box_problem(max_degree, "R", name), domination=True, use_cache=False
            )
        _staged_problems[key] = problem
    return _staged_problems[key]


def _box_outcome(enumerate_boxes, problem, degree, cap=BOX_CAP):
    try:
        return enumerate_boxes(problem, degree, cap)
    except ProblemDefinitionError as error:
        return str(error)


def _maximal_boxes_by_search(problem, degree):
    """Every maximal box of ``N^degree``, as sorted tuples of label masks,
    straight from the definition.

    A maximal box is fixed by any ``degree - 1`` of its sides: the last
    side is every label completing all their selections.  So trying every
    multiset of ``degree - 1`` non-empty label sets, completing it, and
    keeping the boxes whose every side is also the completion of the
    others finds each maximal box.
    """
    labels = sorted(problem.sigma_out, key=label_sort_key)
    index = {label: i for i, label in enumerate(labels)}
    full = (1 << len(labels)) - 1
    completes = {}
    for configuration in problem.node_constraints.get(degree, frozenset()):
        items = sorted(index[x] for x in configuration.items)
        for position in range(degree):
            rest = tuple(items[:position] + items[position + 1 :])
            completes[rest] = completes.get(rest, 0) | (1 << items[position])
    members = [[i for i in range(len(labels)) if mask >> i & 1] for mask in range(full + 1)]

    def completion(sides):
        common = full
        for selection in itertools.product(*(members[side] for side in sides)):
            common &= completes.get(tuple(sorted(selection)), 0)
        return common

    found = set()
    for sides in itertools.combinations_with_replacement(range(1, full + 1), degree - 1):
        box = sides + (completion(sides),)
        if box[-1] and all(
            box[i] == completion(box[:i] + box[i + 1 :]) for i in range(degree - 1)
        ):
            found.add(tuple(sorted(box)))
    return found


def _searchable(problem, degree):
    label_sets = 2 ** len(problem.sigma_out) - 1
    return math.comb(label_sets + degree - 2, degree - 1) <= SEARCH_LIMIT


def _check_maximal_boxes(problem, degree, by_definition):
    """The enumerator's maximal boxes: none repeats, and they are
    :func:`_maximal_boxes_by_search` where that is cheap, else (when
    ``by_definition``) each is a maximal box and together they cover every
    allowed configuration."""
    boxes = maximal_boxes(problem, degree, BOX_CAP)
    assert len({frozenset(Counter(box).items()) for box in boxes}) == len(boxes)
    if _searchable(problem, degree):
        labels = sorted(problem.sigma_out, key=label_sort_key)
        index = {label: i for i, label in enumerate(labels)}
        as_masks = {
            tuple(sorted(sum(1 << index[x] for x in side) for side in box)) for box in boxes
        }
        assert as_masks == _maximal_boxes_by_search(problem, degree)
        return
    if not by_definition:
        return
    allowed = problem.node_constraints.get(degree, frozenset())
    covered = set()
    for box in boxes:
        selections = {Multiset(s) for s in itertools.product(*box)}
        assert selections <= allowed
        covered |= selections
        for position, side in enumerate(box):
            others = box[:position] + box[position + 1 :]
            for label in problem.sigma_out - side:
                assert not all(
                    Multiset(s + (label,)) in allowed for s in itertools.product(*others)
                ), (box, position, label)
    assert covered == allowed


class TestBoxComponentsDifferential:
    """The maximal-box enumerator (``universe.box_components``) against
    the BFS oracle ``_box_components_general``."""

    @pytest.mark.parametrize(("max_degree", "stage", "name", "degree"), _box_cases())
    def test_kernel_matches_oracle(self, max_degree, stage, name, degree):
        from repro.roundelim.universe import _box_components_general, box_components

        key = (max_degree, stage, name, degree)
        problem = _box_problem(max_degree, stage, name)
        components = _box_outcome(box_components, problem, degree)
        if key in TRIPPING_CASES:
            assert re.search(r"exceeds \d+ (closed sets|maximal boxes)$", components)
            assert "exceeds" in _box_outcome(_box_components_general, problem, degree)
            return
        slow_oracle = key in DEEP_BOX_CASES | BEYOND_ORACLE
        _check_maximal_boxes(problem, degree, by_definition=slow_oracle)
        if not slow_oracle:
            oracle = _box_outcome(_box_components_general, problem, degree, ORACLE_CAP)
            assert components == oracle

    @pytest.mark.fuzz
    @pytest.mark.parametrize(
        ("max_degree", "stage", "name", "degree"),
        [pytest.param(*key, id="-".join(map(str, key))) for key in sorted(DEEP_BOX_CASES)],
    )
    def test_deep_cases_match_oracle(self, max_degree, stage, name, degree):
        from repro.roundelim.universe import _box_components_general, box_components

        problem = _box_problem(max_degree, stage, name)
        oracle = _box_outcome(_box_components_general, problem, degree, ORACLE_CAP)
        assert _box_outcome(box_components, problem, degree) == oracle

    def test_both_legs_agree(self):
        # No REPRO_BITSET dispatch is left in universe generation, so both
        # legs give equal components and equal trip messages.
        from repro.roundelim.universe import box_components

        cases = [
            (_box_problem(3, "p", "mis"), 3, BOX_CAP),
            (_box_problem(3, "R", "weak-2-coloring"), 3, BOX_CAP),
            (_box_problem(3, "R", "4-coloring"), 2, BOX_CAP),
            (_box_problem(3, "R", "4-coloring"), 3, 64),
        ]
        outcomes = {}
        for enabled in (False, True):
            configure_bitset(enabled=enabled)
            outcomes[enabled] = [
                _box_outcome(box_components, problem, degree, cap)
                for problem, degree, cap in cases
            ]
        assert outcomes[True] == outcomes[False]
        assert "exceeds 64" in outcomes[True][-1]

    def test_wide_alphabet_needs_no_word(self):
        from repro.roundelim.universe import box_components

        # 70 values exceed a 64-bit word, which the enumerator does not
        # use; every maximal box of consensus is one value repeated, so
        # the components are singletons on both legs.
        wide = catalog.consensus(3, values=tuple(f"v{i}" for i in range(70)))
        expected = {frozenset({value}) for value in wide.sigma_out}
        for enabled in (False, True):
            configure_bitset(enabled=enabled)
            assert box_components(wide, 3, BOX_CAP) == expected

    @pytest.mark.parametrize(
        ("operator", "name", "enumerator"),
        [("R_bar", "4-coloring", "maximal_boxes"), ("R", "5-edge-coloring", "_closed_sets")],
    )
    def test_expired_deadline_raises_inside_the_enumerator(self, operator, name, enumerator):
        # R̄ of R(4-coloring) enumerates maximal boxes; R of
        # R̄(simplify(R(5-edge-coloring))) (31 labels) a closure lattice of
        # thousands of sets.  Hashing first keeps the trip out of the
        # canonical order search (which polls the budget too).
        problem = _box_problem(3, "R", name)
        if operator == "R":
            problem = R_bar(_box_problem(3, "sR", name), use_cache=False)
        canonical_hash(problem)
        with Budget(deadline=0.01):
            time.sleep(0.03)
            with pytest.raises(BudgetExceededError) as outcome:
                getattr(ops, operator)(problem)
        frames = [frame.name for frame in traceback.extract_tb(outcome.tb)]
        assert enumerator in frames
        assert len(operator_cache.get_cache()) == 0


class TestNonemptySubsetsMemo:
    """Regression guard for the powerset-rebuild perf bug.

    ``_nonempty_subsets`` used to rebuild the full powerset on *every*
    call; it is now memoized per-universe, so repeated calls with the
    same label set must not rebuild.
    """

    def setup_method(self):
        ops._NONEMPTY_SUBSETS_CACHE.clear()
        ops._nonempty_subsets_stats.update(calls=0, builds=0)

    def test_repeat_calls_build_once(self):
        labels = frozenset({"a", "b", "c"})
        first = ops._nonempty_subsets(labels)
        second = ops._nonempty_subsets(labels)
        assert first == second
        assert ops._nonempty_subsets_stats["calls"] == 2
        assert ops._nonempty_subsets_stats["builds"] == 1

    def test_distinct_universes_build_separately(self):
        ops._nonempty_subsets(frozenset({"a", "b"}))
        ops._nonempty_subsets(frozenset({"x", "y", "z"}))
        assert ops._nonempty_subsets_stats["builds"] == 2

    def test_callers_get_independent_copies(self):
        labels = frozenset({"a", "b"})
        first = ops._nonempty_subsets(labels)
        first.append("poison")
        assert "poison" not in ops._nonempty_subsets(labels)

    def test_full_universe_mode_builds_once_per_alphabet(self):
        # `universe_mode="full"` is the production caller; a whole R +
        # R_bar round over the same alphabet must reuse one build.
        problem = dict(CATALOG_PROBLEMS)["2-coloring"]
        configure_bitset(enabled=False)
        builds_before = ops._nonempty_subsets_stats["builds"]
        R(problem, universe_mode="full", use_cache=False)
        R_bar(problem, universe_mode="full", use_cache=False)
        assert ops._nonempty_subsets_stats["builds"] == builds_before + 1


class TestLintSelfCheck:
    """CI satellite: the compiled module itself passes REP002."""

    def test_bitset_module_is_order_audited(self):
        from repro.analysis import contracts

        assert "bitset" in contracts.ORDERED_OUTPUT_STEMS

    def test_bitset_module_passes_repro_lint(self):
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[1]
        module = repo_root / "src" / "repro" / "roundelim" / "bitset.py"
        result = run_lint([module], root=repo_root)
        assert result.findings == [], "\n".join(f.render() for f in result.findings)

    def test_bitset_module_passes_rep002_specifically(self):
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[1]
        module = repo_root / "src" / "repro" / "roundelim" / "bitset.py"
        result = run_lint([module], root=repo_root, select=["REP002"])
        assert result.findings == [], "\n".join(f.render() for f in result.findings)
