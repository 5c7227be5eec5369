"""Unit and end-to-end tests for the cooperative resource governor
(:mod:`repro.utils.budget`).

The budget is the anytime-algorithm contract of the engine: a bounded
walk must *stop* — quickly, with machine-readable diagnostics and a
structured ``UNKNOWN(>= step k)`` verdict — rather than hang or die with
a bare exception, and a generous budget must not change any result.
"""

import time

import pytest

from repro.exceptions import BudgetExceededError
from repro.lcl import catalog
from repro.roundelim.gap import speedup
from repro.utils import budget as budget_scope
from repro.utils.budget import Budget, BudgetDiagnostics, active_budget


@pytest.fixture(autouse=True)
def serial_engine():
    from repro.utils import cache as operator_cache

    operator_cache.reset()
    operator_cache.reset_stats()
    yield
    operator_cache.reset()
    operator_cache.reset_stats()


class TestBudgetPrimitive:
    def test_charge_trips_max_configs(self):
        budget = Budget(max_configs=100)
        budget.charge(99)
        with pytest.raises(BudgetExceededError) as info:
            budget.charge(50)
        diagnostics = info.value.diagnostics
        assert diagnostics.reason == "configs"
        assert diagnostics.limit == 100
        assert diagnostics.observed == 149

    def test_deadline_trips(self):
        budget = Budget(deadline=0.01)
        time.sleep(0.03)
        with pytest.raises(BudgetExceededError) as info:
            budget.check()
        assert info.value.diagnostics.reason == "deadline"

    def test_max_alphabet_trips(self):
        budget = Budget(max_alphabet=8)
        budget.note_alphabet(8)  # at the limit is fine
        with pytest.raises(BudgetExceededError) as info:
            budget.note_alphabet(9)
        assert info.value.diagnostics.reason == "alphabet"
        assert info.value.diagnostics.alphabet_size == 9

    def test_tick_polls_deadline(self):
        from repro.utils.budget import TICK_EVERY

        budget = Budget(deadline=0.01)
        time.sleep(0.03)
        with pytest.raises(BudgetExceededError):
            budget.tick(TICK_EVERY)

    def test_diagnostics_record_step_and_are_machine_readable(self):
        budget = Budget(max_configs=10)
        budget.note_step(3)
        with pytest.raises(BudgetExceededError) as info:
            budget.charge(11)
        payload = info.value.diagnostics.as_dict()
        assert payload["reason"] == "configs"
        assert payload["step"] == 3
        assert isinstance(payload["elapsed"], float)
        assert isinstance(info.value.diagnostics, BudgetDiagnostics)

    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        budget.charge(10**9)
        budget.tick(10**6)
        budget.note_alphabet(10**6)
        budget.check()

    def test_ambient_activation_via_context_manager(self):
        assert active_budget() is None
        with Budget(max_configs=5) as budget:
            assert active_budget() is budget
            with pytest.raises(BudgetExceededError):
                budget_scope.charge(6)
        assert active_budget() is None

    def test_module_helpers_are_noops_without_budget(self):
        budget_scope.charge(10**9)
        budget_scope.tick(10**9)
        budget_scope.check()
        budget_scope.note_alphabet(10**9)
        budget_scope.note_step(10**9)


class TestBudgetedWalks:
    def test_deadline_yields_structured_unknown_quickly(self):
        """Acceptance: 2-second budget on a non-stabilizing problem ends in
        UNKNOWN(>= step k) — no hang, no bare exception."""
        from repro.decidability.constant_time import (
            INCONCLUSIVE,
            semidecide_constant_time,
        )

        start = time.monotonic()
        verdict = semidecide_constant_time(
            catalog.mis(3),
            max_steps=50,
            max_universe=10**9,
            use_cache=False,
            budget=Budget(deadline=2.0),
        )
        elapsed = time.monotonic() - start
        assert elapsed < 15, "budgeted walk must stop promptly"
        assert verdict.verdict == INCONCLUSIVE
        assert verdict.unknown_since_step is not None
        assert verdict.budget_diagnostics is not None
        assert verdict.budget_diagnostics.reason == "deadline"
        assert f"UNKNOWN(>= step {verdict.unknown_since_step})" in verdict.summary()

    def test_max_configs_yields_structured_unknown(self):
        result = speedup(
            catalog.mis(3),
            max_steps=10,
            max_universe=10**9,
            use_cache=False,
            budget=Budget(max_configs=500),
        )
        assert result.status == "unknown"
        assert result.unknown_since_step is not None
        assert result.budget_diagnostics.reason == "configs"
        assert result.verdict_label().startswith("UNKNOWN(>= step ")
        assert "configurations" in result.summary()

    def test_ambient_budget_governs_walk(self):
        with Budget(max_configs=500):
            result = speedup(
                catalog.mis(3), max_steps=10, max_universe=10**9, use_cache=False
            )
        assert result.status == "unknown"
        assert result.budget_diagnostics is not None

    def test_generous_budget_changes_nothing(self):
        baseline = speedup(catalog.echo(3), max_steps=4, use_cache=False)
        budgeted = speedup(
            catalog.echo(3),
            max_steps=4,
            use_cache=False,
            budget=Budget(deadline=3600.0, max_configs=10**12),
        )
        assert budgeted.status == baseline.status == "constant"
        assert budgeted.constant_rounds == baseline.constant_rounds
        assert budgeted.sequence.problem(
            budgeted.constant_rounds
        ) == baseline.sequence.problem(baseline.constant_rounds)
        assert budgeted.budget_diagnostics is None

    def test_fixed_point_still_detected_under_budget(self):
        result = speedup(
            catalog.sinkless_orientation(3),
            max_steps=3,
            use_cache=False,
            budget=Budget(deadline=3600.0),
        )
        assert result.status == "fixed-point"
