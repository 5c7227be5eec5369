"""Differential harness for the memoized round-elimination engine.

For every catalog problem plus a batch of seeded random problems, the
operators ``R``, ``R_bar`` and ``simplify`` are run through three
configurations — cache disabled, cache cold, and cache warm — and the
results must be canonically identical (in fact exactly equal, since the
inputs have identical spellings).  A second set of tests locks the
*accounting*: warm runs must hit the cache, and a warm
``ProblemSequence`` walk must perform zero operator recomputations.
"""

import pytest

from repro.exceptions import ProblemDefinitionError
from repro.lcl.catalog import standard_catalog
from repro.lcl.random_problems import random_lcl
from repro.roundelim import ProblemSequence
from repro.roundelim.canonical import (
    canonical_hash,
    canonically_equal,
    clear_canonical_memo,
)
from repro.roundelim.ops import R, R_bar, simplify
from repro.utils import cache as operator_cache
from repro.utils.faults import configure_faults, reset_faults

CATALOG_PROBLEMS = [(p.name, p) for p in standard_catalog(max_degree=3)]

RANDOM_PROBLEMS = [
    (f"random-{seed}", random_lcl(seed, num_labels=3, max_degree=2, num_inputs=1))
    for seed in range(35)
] + [
    (f"random-wide-{seed}", random_lcl(seed, num_labels=4, max_degree=3, num_inputs=2))
    for seed in range(15)
]

ALL_PROBLEMS = CATALOG_PROBLEMS + RANDOM_PROBLEMS


@pytest.fixture(autouse=True)
def fresh_engine():
    """Memory-only cache, zeroed counters for every test."""
    operator_cache.reset()
    operator_cache.reset_stats()
    operator_cache.configure(enabled=True, disk_dir=None)
    yield
    operator_cache.reset()
    operator_cache.reset_stats()


def apply_operators(problem, use_cache):
    """The tuple of engine outputs whose agreement the harness asserts."""
    try:
        r = R(problem, use_cache=use_cache)
    except ProblemDefinitionError:
        return ("R blow-up",)
    simplified = simplify(r, domination=True, use_cache=use_cache)
    try:
        rbar = R_bar(simplified, use_cache=use_cache)
    except ProblemDefinitionError:
        return ("R", r, "simplify", simplified, "Rbar blow-up")
    return ("R", r, "simplify", simplified, "Rbar", rbar)


class TestDifferential:
    @pytest.mark.parametrize("name, problem", ALL_PROBLEMS, ids=[n for n, _ in ALL_PROBLEMS])
    def test_cached_paths_agree(self, name, problem):
        baseline = apply_operators(problem, use_cache=False)

        cold = apply_operators(problem, use_cache=True)
        assert cold == baseline, "cold cache run diverged from the uncached engine"

        warm = apply_operators(problem, use_cache=True)
        assert warm == baseline, "warm cache run diverged from the uncached engine"

    @pytest.mark.parametrize(
        "name, problem", CATALOG_PROBLEMS, ids=[n for n, _ in CATALOG_PROBLEMS]
    )
    def test_warm_run_hits_cache(self, name, problem):
        first = apply_operators(problem, use_cache=True)
        hits_before = operator_cache.hit_rate()
        counters = operator_cache.stats()["operators"]
        misses_before = sum(c["misses"] for c in counters.values())

        second = apply_operators(problem, use_cache=True)
        assert second == first

        counters = operator_cache.stats()["operators"]
        misses_after = sum(c["misses"] for c in counters.values())
        assert misses_after == misses_before, "warm run should not miss"
        assert operator_cache.hit_rate() > hits_before

    def test_relabeled_problem_hits_same_entries(self):
        # A structurally-identical problem under different label names
        # must reuse the cache, and the decoded result must live in *its*
        # alphabet, matching a direct computation exactly.
        problem = CATALOG_PROBLEMS[4][1]  # mis
        renaming = {
            label: f"alias_{i}" for i, label in enumerate(sorted(problem.sigma_out, key=repr))
        }
        twin = problem.rename_outputs(renaming)
        assert canonical_hash(twin) == canonical_hash(problem)

        direct = R(twin, use_cache=False)
        R(problem, use_cache=True)  # populate
        misses = operator_cache.stats()["operators"]["R"]["misses"]
        via_cache = R(twin, use_cache=True)
        assert operator_cache.stats()["operators"]["R"]["misses"] == misses
        assert operator_cache.stats()["operators"]["R"]["hits"] >= 1
        assert via_cache == direct


class TestSequenceMemoization:
    def test_warm_sequence_recomputes_nothing(self):
        problem = dict(CATALOG_PROBLEMS)["sinkless-orientation(delta=3)"]
        ProblemSequence(problem).problem(2)

        before = {
            op: dict(c) for op, c in operator_cache.stats()["operators"].items()
        }
        rerun = ProblemSequence(problem)  # fresh object, warm global cache
        result = rerun.problem(2)
        after = operator_cache.stats()["operators"]

        for op, counters in after.items():
            assert counters["computes"] == before.get(op, {}).get("computes", 0), (
                f"warm walk recomputed {op}"
            )
        cold = ProblemSequence(problem, use_cache=False).problem(2)
        assert result == cold

    def test_sequence_respects_use_cache_flag(self):
        problem = dict(CATALOG_PROBLEMS)["mis"]
        ProblemSequence(problem, use_cache=False).problem(1)
        counters = operator_cache.stats()["operators"]
        assert all(c["hits"] == 0 and c["misses"] == 0 for c in counters.values())
        assert any(c["computes"] > 0 for c in counters.values())


class TestFixedPointUpToRelabeling:
    def test_find_fixed_point_modulo_isomorphism(self):
        # Force the sequence's step-1 problem to be a *relabeled* copy of
        # step 0: `==` fails but the canonical check must still detect
        # stabilization at step 0.
        problem = dict(CATALOG_PROBLEMS)["sinkless-orientation(delta=3)"]
        sequence = ProblemSequence(problem)
        renaming = {
            label: ("spin", i)
            for i, label in enumerate(sorted(problem.sigma_out, key=repr))
        }
        twin = problem.rename_outputs(renaming)
        sequence._problems.append(twin)  # simulate a relabeling-only step

        assert twin != problem
        assert canonically_equal(twin, problem)
        assert sequence.find_fixed_point(3) == 0

    def test_sinkless_orientation_is_a_fixed_point(self):
        problem = dict(CATALOG_PROBLEMS)["sinkless-orientation(delta=3)"]
        assert ProblemSequence(problem).find_fixed_point(2) == 1


class TestInterruptedThenResumed:
    """Resume differential: killing a walk after any step and resuming it
    from the operator cache's disk layer must yield identical problems,
    names included, with zero operator recomputation for the completed
    prefix."""

    STEPS = 3
    #: echo's walk repeats itself from step 2 on (Pi_2 is isomorphic to
    #: Pi_1), and resume stops at the first repeat: every later step is a
    #: hit on entries it already restored.
    ECHO_REPEATS_AT = 2

    @pytest.fixture(autouse=True)
    def no_faults(self):
        # The chaos job runs tier-1 under REPRO_FAULTS=cache_corrupt:...,
        # which would poison the disk reads the zero-recompute assertions
        # below rely on.
        configure_faults(None)
        yield
        reset_faults()

    def _uninterrupted(self, problem):
        sequence = ProblemSequence(problem, use_cache=False)
        return [sequence.problem(k) for k in range(self.STEPS + 1)]

    @staticmethod
    def _computes():
        return sum(c["computes"] for c in operator_cache.stats()["operators"].values())

    @staticmethod
    def _fresh_process(directory):
        """Forget everything but the disk layer, as a new process would."""
        operator_cache.configure(enabled=True, disk_dir=directory)
        operator_cache.reset_stats()
        clear_canonical_memo()

    def test_resume_after_every_step_is_bit_identical(self, tmp_path):
        problem = dict(CATALOG_PROBLEMS)["echo"]
        expected = self._uninterrupted(problem)
        for kill_after in range(self.STEPS + 1):
            directory = tmp_path / f"kill-{kill_after}"
            # Walk to step `kill_after`, then "die" (drop the object).
            operator_cache.configure(enabled=True, disk_dir=directory)
            first = ProblemSequence(problem)
            first.problem(kill_after)
            del first

            # A fresh process-equivalent: the memory layer is dropped, so
            # only the disk layer can supply the prefix.
            self._fresh_process(directory)
            resumed = ProblemSequence(problem)
            restored = resumed.resume()
            assert restored == min(kill_after, self.ECHO_REPEATS_AT)
            assert self._computes() == 0, "resume itself must not compute"

            # Restored prefix: identical, names included, and free.
            for k in range(kill_after + 1):
                assert resumed.problem(k) == expected[k]
                assert resumed.problem(k).name == expected[k].name
            assert self._computes() == 0, (
                f"resumed walk recomputed the completed prefix (kill_after={kill_after})"
            )

            # Continuing past the kill point matches the uninterrupted walk.
            for k in range(self.STEPS + 1):
                assert resumed.problem(k) == expected[k]
                assert resumed.problem(k).name == expected[k].name

    def test_resume_restores_intermediates_for_lifting(self, tmp_path):
        problem = dict(CATALOG_PROBLEMS)["echo"]
        operator_cache.configure(enabled=True, disk_dir=tmp_path)
        first = ProblemSequence(problem)
        first.problem(2)
        expected_half = first.intermediate(1)

        self._fresh_process(tmp_path)
        resumed = ProblemSequence(problem)
        resumed.resume()
        assert resumed.intermediate(1) == expected_half
        assert resumed.intermediate(1).name == expected_half.name
        assert self._computes() == 0, (
            "R(Pi_1) must come from the disk cache, not a fresh kernel run"
        )

    def test_checkpoint_ignores_mismatched_options(self, tmp_path):
        problem = dict(CATALOG_PROBLEMS)["echo"]
        operator_cache.configure(enabled=True, disk_dir=tmp_path)
        first = ProblemSequence(problem)
        first.problem(2)

        self._fresh_process(tmp_path)
        for options in ({"use_domination": False}, {"max_universe": 512}):
            other = ProblemSequence(problem, **options)
            assert other.resume() == 0, f"{options} must not share state"
        assert self._computes() == 0

    def test_resume_restores_a_half_finished_step(self, tmp_path):
        """Killed between R(Pi_k) and Rbar: R(Pi_k) comes back, Pi_{k+1}
        does not, and finishing the step computes only the Rbar half."""
        problem = dict(CATALOG_PROBLEMS)["consensus"]
        expected = self._uninterrupted(problem)
        operator_cache.configure(enabled=True, disk_dir=tmp_path)
        first = ProblemSequence(problem)
        first.problem(1)
        expected_half = first.intermediate(1)

        self._fresh_process(tmp_path)
        resumed = ProblemSequence(problem)
        assert resumed.resume() == 1
        assert resumed.completed_steps() == 1
        assert resumed._intermediates[1] == expected_half
        assert resumed._intermediates[1].name == expected_half.name
        assert self._computes() == 0

        assert resumed.problem(2) == expected[2]
        assert resumed.problem(2).name == expected[2].name
        computes = {
            name: c["computes"]
            for name, c in operator_cache.stats()["operators"].items()
            if c["computes"]
        }
        assert computes == {"Rbar": 1, "simplify": 1}

    def test_resume_with_nothing_cached_restores_nothing(self):
        problem = dict(CATALOG_PROBLEMS)["echo"]
        ProblemSequence(problem, use_cache=False).problem(2)
        assert ProblemSequence(problem).resume() == 0
        assert ProblemSequence(problem, use_cache=False).resume() == 0
