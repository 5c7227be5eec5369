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

import re

import pytest

from repro.analysis import run_lint
from repro.exceptions import BudgetExceededError, ProblemDefinitionError
from repro.lcl import catalog
from repro.lcl.catalog import standard_catalog
from repro.lcl.random_problems import random_lcl, solvable_random_lcl
from repro.roundelim import ProblemSequence
from repro.roundelim import ops
from repro.roundelim.canonical import canonical_hash
from repro.roundelim.gap import speedup
from repro.roundelim.ops import (
    R,
    R_bar,
    configure_bitset,
    configure_parallel,
    simplify,
)
from repro.utils import cache as operator_cache
from repro.utils import env
from repro.utils.budget import Budget
from repro.verify.certificate import body_checksum

CATALOG_PROBLEMS = [(p.name, p) for p in standard_catalog(max_degree=3)]

#: Universe cap for the harness: every live catalog universe is ≤ 31
#: labels, so this changes no outcome — it only makes the (deliberate)
#: blow-up proofs raise after 512 boxes instead of 4096.
MAX_UNIVERSE = 512

#: Fuzz population size (``REPRO_BITSET_DIFF_COUNT``, default 100).
DIFF_COUNT = int(env.get_int("REPRO_BITSET_DIFF_COUNT") or 100)
#: Seeds per parametrized fuzz chunk (narrow failure ranges, cheap collection).
CHUNK = 25


@pytest.fixture(autouse=True)
def fresh_engine():
    """Serial, uncached, zeroed counters; backend restored to the env knob."""
    operator_cache.reset()
    operator_cache.reset_stats()
    operator_cache.configure(enabled=True, disk_dir=None)
    configure_parallel(workers=1)
    yield
    configure_bitset(enabled=None)
    operator_cache.reset()
    operator_cache.reset_stats()
    configure_parallel(workers=None, threshold=None)


def engine_trace(problem, enabled):
    """Everything one backend produces for ``problem``, hashes included.

    Alphabet blow-ups are legitimate outcomes (they depend only on the
    *shared* universe code, never on the backend), so they appear in the
    trace as markers and must simply agree across backends.
    """
    configure_bitset(enabled=enabled)
    trace = []
    try:
        r = R(problem, max_universe=MAX_UNIVERSE, use_cache=False)
    except ProblemDefinitionError:
        return trace + ["R blow-up"]
    trace += ["R", r, canonical_hash(r)]
    simplified = simplify(r, domination=True, use_cache=False)
    trace += ["simplify", simplified, canonical_hash(simplified)]
    try:
        rbar = R_bar(simplified, max_universe=MAX_UNIVERSE, use_cache=False)
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


def pipeline_trace(problem, enabled, seed=0):
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
        max_universe=MAX_UNIVERSE,
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
    @pytest.mark.parametrize(
        "name, problem", CATALOG_PROBLEMS, ids=[n for n, _ in CATALOG_PROBLEMS]
    )
    def test_operator_walks_agree(self, name, problem):
        oracle = engine_trace(problem, enabled=False)
        bitset = engine_trace(problem, enabled=True)
        assert bitset == oracle, f"{name}: backends diverged"

    @pytest.mark.parametrize(
        "name, problem", CATALOG_PROBLEMS, ids=[n for n, _ in CATALOG_PROBLEMS]
    )
    def test_verdicts_and_certificates_agree(self, name, problem):
        oracle = pipeline_trace(problem, enabled=False)
        bitset = pipeline_trace(problem, enabled=True)
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
    """Deterministic variety over generators, shapes, and inputs."""
    if seed % 4 == 1:
        return solvable_random_lcl(seed, num_inputs=2)
    if seed % 4 == 2:
        return random_lcl(seed, num_labels=4, max_degree=3, num_inputs=1)
    if seed % 4 == 3:
        return random_lcl(seed, num_labels=3, max_degree=2, num_inputs=2)
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

    def test_unsupported_shape_falls_back_loudly(self):
        # 70 output labels exceed the 64-bit packing word: the compiled
        # path must decline and the oracle must still answer.
        wide = catalog.trivial(2, labels=tuple(f"t{i}" for i in range(70)))
        configure_bitset(enabled=True)
        result = R(wide, use_cache=False)
        configure_bitset(enabled=False)
        assert result == R(wide, use_cache=False)
        counters = operator_cache.stats()["operators"]
        assert counters["R"]["bitset_fallbacks"] >= 1

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

#: ``R(p)`` cases that take more than ~4 s on one core: oracle cap trips,
#: where the pure-Python BFS probes thousands of boxes before giving up,
#: and ``R(5-coloring)`` at degree 4, whose ``R`` alone takes ~8 s.  They
#: run with the fuzz sweep (``-m fuzz``).
DEEP_BOX_CASES = {
    (3, "4-coloring", 3),
    (3, "weak-2-coloring", 3),
    (4, "5-coloring", 3),
    (4, "5-coloring", 4),
    (4, "7-edge-coloring", 3),
    (4, "7-edge-coloring", 4),
    (4, "weak-2-coloring", 3),
    (4, "weak-2-coloring", 4),
    (4, "echo", 4),
}


def _box_cases():
    """``p`` and ``R(p)`` of ``standard_catalog(3|4)`` at every degree >= 3."""
    cases = []
    for max_degree in (3, 4):
        for problem in standard_catalog(max_degree=max_degree):
            for degree in sorted(problem.node_constraints):
                if degree < 3:
                    continue
                for lifted in (False, True):
                    deep = lifted and (max_degree, problem.name, degree) in DEEP_BOX_CASES
                    cases.append(
                        pytest.param(
                            max_degree,
                            problem.name,
                            lifted,
                            degree,
                            id=f"cat{max_degree}-{'R-' if lifted else ''}{problem.name}-deg{degree}",
                            marks=[pytest.mark.fuzz] if deep else [],
                        )
                    )
    return cases


_lifted_problems = {}


def _box_problem(max_degree, name, lifted):
    problem = {p.name: p for p in standard_catalog(max_degree=max_degree)}[name]
    if not lifted:
        return problem
    key = (max_degree, name)
    if key not in _lifted_problems:
        _lifted_problems[key] = R(problem, use_cache=False)
    return _lifted_problems[key]


class TickMeter(Budget):
    """An unlimited budget that sums every ``tick`` amount it receives."""

    def __init__(self):
        super().__init__()
        self.ticked = 0

    def tick(self, iterations=1):
        self.ticked += iterations
        super().tick(iterations)


def _box_outcome(enumerate_boxes, problem, degree):
    meter = TickMeter()
    with meter:
        try:
            return enumerate_boxes(problem, degree, BOX_CAP), meter.ticked
        except ProblemDefinitionError as error:
            # Where a cap trip happens depends on BFS order, so the ticks
            # spent before it may differ; only the message must agree.
            return str(error), None


class TestBoxComponentsDifferential:
    """The mask-space ``box_components`` kernel against its oracle."""

    @pytest.mark.parametrize(("max_degree", "name", "lifted", "degree"), _box_cases())
    def test_kernel_matches_oracle(self, max_degree, name, lifted, degree):
        from repro.roundelim import bitset
        from repro.roundelim.universe import _box_components_general

        problem = _box_problem(max_degree, name, lifted)
        oracle = _box_outcome(_box_components_general, problem, degree)
        kernel = _box_outcome(bitset.box_components, problem, degree)
        assert kernel == oracle

    def test_dispatch_follows_the_knob(self, monkeypatch):
        from repro.roundelim import bitset, universe

        problem = dict(CATALOG_PROBLEMS)["mis"]
        calls = []
        kernel = bitset.box_components

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(bitset, "box_components", spy)
        configure_bitset(enabled=False)
        oracle = universe.box_components(problem, 3, BOX_CAP)
        assert calls == []
        configure_bitset(enabled=True)
        assert universe.box_components(problem, 3, BOX_CAP) == oracle
        assert len(calls) == 1

    def test_wide_alphabet_falls_back_to_oracle(self):
        from repro.roundelim import bitset
        from repro.roundelim.universe import box_components

        # 70 values exceed the 64-bit word; every maximal box of
        # consensus is one value repeated, so the components are singletons.
        wide = catalog.consensus(3, values=tuple(f"v{i}" for i in range(70)))
        with pytest.raises(bitset.BitsetUnsupported):
            bitset.box_components(wide, 3, BOX_CAP)
        configure_bitset(enabled=True)
        expected = {frozenset({value}) for value in wide.sigma_out}
        assert box_components(wide, 3, BOX_CAP) == expected


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
        from repro.analysis.rules import ordering

        assert "bitset" in ordering.ORDERED_OUTPUT_STEMS

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
