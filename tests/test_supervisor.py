"""Unit tests for :mod:`repro.supervisor`: cells, journal, isolation,
campaign supervision, and the landscape measurement plans.

Process isolation is exercised through the campaign engine itself: a
one-worker ``run_campaign`` is the only way a cell runs isolated.

The end-to-end chaos contract (faulty run + resume bit-identical to a
clean serial run) lives in ``tests/test_supervisor_chaos.py``; this file
covers each layer in isolation.
"""

import json
import os
import signal

import pytest

from repro.exceptions import LandscapeError, SupervisorError
from repro.landscape import LandscapePanel
from repro.supervisor import (
    CampaignConfig,
    CampaignJournal,
    CellResult,
    CellSpec,
    STATUS_OK,
    STATUS_QUARANTINED,
    cell_rng,
    campaign_key,
    open_journal,
    register_runner,
    resolve_runner,
    run_campaign,
)
from repro.supervisor.isolation import run_attempt_inline
from repro.supervisor.measurements import assemble_panel, plan_panel
from repro.utils import faults


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    monkeypatch.delenv("REPRO_JOURNAL_DIR", raising=False)
    monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_CELL_MEM_MB", raising=False)
    monkeypatch.delenv("REPRO_CELL_RETRIES", raising=False)
    faults.reset_faults()
    yield
    faults.reset_faults()


# ---------------------------------------------------------------- test runners
@register_runner("test.square")
def _square(spec, rng):
    return spec.n * spec.n


@register_runner("test.rng-bits")
def _rng_bits(spec, rng):
    return rng.child("draw").bits(32)


@register_runner("test.always-raises")
def _always_raises(spec, rng):
    raise ArithmeticError(f"division disaster at n={spec.n}")


@register_runner("test.hang")
def _hang(spec, rng):
    import time

    time.sleep(120.0)
    return None


@register_runner("test.hard-exit")
def _hard_exit(spec, rng):
    os._exit(0)


@register_runner("test.self-kill")
def _self_kill(spec, rng):
    os.kill(os.getpid(), signal.SIGKILL)


@register_runner("test.self-interrupt")
def _self_interrupt(spec, rng):
    # What a Ctrl-C sent to the whole process group does to a worker.
    os.kill(os.getpid(), signal.SIGINT)
    return spec.n


@register_runner("test.allocate")
def _allocate(spec, rng):
    # One allocation of ``mb`` MiB: under an address-space cap below
    # that, it fails as a real MemoryError, not an injected one.
    return len(bytearray(spec.param("mb") * 1024 * 1024))


@register_runner("test.pid")
def _pid(spec, rng):
    return os.getpid()


def cells_for(runner, ns, seed=0):
    return [CellSpec.make(runner, "p", n, seed=seed) for n in ns]


def isolated(spec, seed=0, **overrides):
    """One cell through a one-worker campaign, no retries: the cell's
    attempt runs inside the engine's persistent worker process."""
    options = dict(seed=seed, isolation="process", retries=0, timeout=30.0)
    options.update(overrides)
    return run_campaign([spec], CampaignConfig(**options)).results[0]


def first_fires_seed(kind):
    """A fault seed whose first ``kind`` occurrence fires and whose
    second does not: attempt (or dispatch) 1 is hit, 2 is clean."""
    for s in range(1000):
        plan = faults.FaultPlan({kind: 0.5}, seed=s)
        if [plan.fire(kind) for _ in range(2)] == [True, False]:
            return s
    raise AssertionError(f"no fire-once {kind} seed in range")


def address_space_mb():
    """This process's current virtual address space, in MiB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[0])
    return pages * os.sysconf("SC_PAGE_SIZE") // (1024 * 1024)


# -------------------------------------------------------------------- CellSpec
class TestCellSpec:
    def test_cell_id_canonical(self):
        spec = CellSpec.make("r", "prob", 8, seed=3)
        assert spec.cell_id() == "r:prob:n=8:seed=3"

    def test_params_sorted_into_identity(self):
        a = CellSpec.make("r", "p", 4, seed=0, params={"b": 2, "a": 1})
        b = CellSpec.make("r", "p", 4, seed=0, params={"a": 1, "b": 2})
        assert a == b
        assert a.cell_id() == b.cell_id()
        assert "a=1" in a.cell_id() and "b=2" in a.cell_id()

    def test_param_lookup(self):
        spec = CellSpec.make("r", "p", 4, seed=0, params={"side": 7})
        assert spec.param("side") == 7
        assert spec.param("absent", 42) == 42

    def test_payload_roundtrip(self):
        spec = CellSpec.make("r", "p", 4, seed=9, params={"side": 7})
        assert CellSpec.from_payload(spec.payload()) == spec

    def test_payload_roundtrip_through_json(self):
        spec = CellSpec.make("r", "p", 4, seed=9, params={"side": 7})
        assert CellSpec.from_payload(json.loads(json.dumps(spec.payload()))) == spec


class TestCellResult:
    def test_payload_roundtrip_marks_resumed(self):
        spec = CellSpec.make("r", "p", 4, seed=0)
        result = CellResult(spec=spec, status=STATUS_OK, value=16, attempts=2)
        restored = CellResult.from_payload(result.payload())
        assert restored.spec == spec
        assert restored.value == 16
        assert restored.attempts == 2
        assert restored.resumed and not result.resumed
        assert restored == result  # resumed is excluded from equality


class TestRunnerRegistry:
    def test_reregistering_same_function_is_idempotent(self):
        assert register_runner("test.square")(_square) is _square

    def test_conflicting_registration_rejected(self):
        with pytest.raises(SupervisorError):
            register_runner("test.square")(_rng_bits)

    def test_unknown_runner_named_loudly(self):
        with pytest.raises(SupervisorError) as excinfo:
            resolve_runner("test.no-such-runner")
        assert "test.no-such-runner" in str(excinfo.value)

    def test_builtin_measurement_runners_lazily_importable(self):
        assert resolve_runner("landscape.trees") is not None


class TestCellRng:
    def test_pure_function_of_seed_and_cell(self):
        spec = CellSpec.make("r", "p", 4, seed=0)
        assert (
            cell_rng(7, spec).child("x").bits(64)
            == cell_rng(7, spec).child("x").bits(64)
        )

    def test_cells_and_campaigns_get_distinct_streams(self):
        a = CellSpec.make("r", "p", 4, seed=0)
        b = CellSpec.make("r", "p", 8, seed=0)
        assert cell_rng(7, a).child("x").bits(64) != cell_rng(7, b).child("x").bits(64)
        assert cell_rng(7, a).child("x").bits(64) != cell_rng(8, a).child("x").bits(64)


# --------------------------------------------------------------------- journal
class TestJournal:
    def test_requires_a_directory(self):
        with pytest.raises(SupervisorError):
            CampaignJournal({"seed": 0, "cells": []})

    def test_env_knob_supplies_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path))
        journal = CampaignJournal({"seed": 0, "cells": []})
        assert journal.directory == tmp_path

    def test_append_and_load_roundtrip(self, tmp_path):
        cells = cells_for("test.square", [2, 3])
        journal = open_journal(cells, seed=0, directory=tmp_path)
        journal.append_cell({"cell": "a", "value": 1})
        journal.append_cell({"cell": "b", "value": 2})
        completed = journal.completed_cells()
        assert set(completed) == {"a", "b"}
        assert completed["a"]["value"] == 1

    def test_same_campaign_same_file_different_campaign_different_file(self, tmp_path):
        cells = cells_for("test.square", [2, 3])
        assert (
            open_journal(cells, seed=0, directory=tmp_path).path
            == open_journal(list(reversed(cells)), seed=0, directory=tmp_path).path
        )
        assert (
            open_journal(cells, seed=0, directory=tmp_path).path
            != open_journal(cells, seed=1, directory=tmp_path).path
        )

    def test_torn_line_skipped_later_lines_survive(self, tmp_path):
        cells = cells_for("test.square", [2, 3])
        journal = open_journal(cells, seed=0, directory=tmp_path)
        journal.append_cell({"cell": "a", "value": 1})
        journal.append_cell({"cell": "b", "value": 2})
        journal.append_cell({"cell": "c", "value": 3})
        lines = journal.path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # tear the "b" record
        journal.path.write_text("\n".join(lines) + "\n")
        completed = journal.completed_cells()
        assert set(completed) == {"a", "c"}

    def test_later_records_win(self, tmp_path):
        cells = cells_for("test.square", [2])
        journal = open_journal(cells, seed=0, directory=tmp_path)
        journal.append_cell({"cell": "a", "value": 1})
        journal.append_cell({"cell": "a", "value": 99})
        assert journal.completed_cells()["a"]["value"] == 99

    def test_foreign_header_rejected(self, tmp_path):
        cells = cells_for("test.square", [2])
        journal = open_journal(cells, seed=0, directory=tmp_path)
        journal.ensure_header()
        other = open_journal(cells, seed=1, directory=tmp_path)
        other.ensure_header()
        journal.path.write_text(other.path.read_text())
        with pytest.raises(SupervisorError):
            journal.load()

    def test_checksum_guards_against_bit_rot(self, tmp_path):
        cells = cells_for("test.square", [2])
        journal = open_journal(cells, seed=0, directory=tmp_path)
        journal.append_cell({"cell": "a", "value": 1})
        text = journal.path.read_text().replace('"value":1', '"value":7')
        journal.path.write_text(text)
        assert journal.completed_cells() == {}


# ------------------------------------------------------------------- isolation
class TestIsolation:
    def test_inline_ok(self):
        spec = CellSpec.make("test.square", "p", 5, seed=0)
        outcome = run_attempt_inline(spec, 0)
        assert outcome.ok and outcome.value == 25

    def test_inline_error_captures_traceback(self):
        spec = CellSpec.make("test.always-raises", "p", 5, seed=0)
        outcome = run_attempt_inline(spec, 0)
        assert not outcome.ok
        assert outcome.classification == "error"
        assert "division disaster" in outcome.reason
        assert "ArithmeticError" in outcome.traceback

    def test_process_matches_inline(self):
        spec = CellSpec.make("test.rng-bits", "p", 5, seed=0)
        inline = run_attempt_inline(spec, 3)
        result = isolated(spec, seed=3)
        assert result.ok
        assert result.value == inline.value

    def test_process_error_classified(self):
        result = isolated(CellSpec.make("test.always-raises", "p", 5, seed=0))
        assert result.quarantined and result.classification == "error"
        assert "ArithmeticError" in result.traceback

    def test_process_timeout_kills_cell(self):
        result = isolated(CellSpec.make("test.hang", "p", 5, seed=0), timeout=0.5)
        assert result.quarantined and result.classification == "timeout"

    def test_process_hard_exit_is_lost(self):
        result = isolated(CellSpec.make("test.hard-exit", "p", 5, seed=0))
        assert result.quarantined and result.classification == "lost"

    def test_process_signal_death_classified(self):
        result = isolated(CellSpec.make("test.self-kill", "p", 5, seed=0))
        assert result.quarantined and result.classification == "signal"
        assert str(signal.SIGKILL.value) in result.reason

    def test_worker_leaves_interrupts_to_the_parent(self):
        result = isolated(CellSpec.make("test.self-interrupt", "p", 5, seed=0))
        assert result.ok and result.value == 5

    def test_worker_abort_is_a_reclaim_but_a_cell_death_is_an_attempt(
        self, monkeypatch
    ):
        # A worker lost before the cell starts (dead, or wedged until its
        # lease expires) costs no retry ...
        monkeypatch.setenv("REPRO_SCHED_LEASE_SECS", "0.5")
        for kind in ("worker_abort", "heartbeat_stall"):
            faults.configure_faults({kind: 0.5}, seed=first_fires_seed(kind))
            report = run_campaign(
                [CellSpec.make("test.square", "p", 4, seed=0)],
                CampaignConfig(isolation="process", retries=0, timeout=30.0),
            )
            assert report.results[0].ok and report.results[0].value == 16, kind
            assert report.results[0].attempts == 1
            assert report.stats.reclaims == 1
        # ... while a worker killed by its running cell uses one up.
        faults.configure_faults(None)
        result = isolated(CellSpec.make("test.self-kill", "p", 5, seed=0), retries=1)
        assert result.quarantined and result.classification == "signal"
        assert result.attempts == 2

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/statm"), reason="needs /proc address-space sizes"
    )
    def test_memory_cap_quarantines_oom_and_the_worker_runs_on(self):
        # The cap covers the whole worker, which starts as a fork of this
        # process: a margin above our address space leaves room to run
        # cells, and one allocation of the full cap cannot fit.
        cap = address_space_mb() + 256
        cells = [
            CellSpec.make("test.pid", "p", 1, seed=0),
            CellSpec.make("test.allocate", "p", 2, seed=0, params={"mb": cap}),
            CellSpec.make("test.pid", "p", 3, seed=0),
        ]
        report = run_campaign(
            cells,
            CampaignConfig(isolation="process", retries=0, timeout=30.0, mem_mb=cap),
        )
        before, hog, after = report.results
        assert hog.quarantined and hog.classification == "oom"
        assert "MemoryError" in hog.reason and "bytearray" in hog.traceback
        assert before.ok and after.ok
        # The same worker process ran the cells on both sides of the OOM.
        assert after.value == before.value != os.getpid()
        assert report.stats.worker_deaths == 0

    def test_sim_oom_instruction_classified_oom(self):
        spec = CellSpec.make("test.square", "p", 5, seed=0)
        outcome = run_attempt_inline(spec, 0, instructions=("sim_oom",))
        assert not outcome.ok and outcome.classification == "oom"

    def test_inline_skips_sim_hang(self):
        spec = CellSpec.make("test.square", "p", 5, seed=0)
        outcome = run_attempt_inline(spec, 0, instructions=("sim_hang",))
        assert outcome.ok and outcome.value == 25


# -------------------------------------------------------------------- campaign
class TestCampaignConfig:
    def test_unknown_isolation_rejected(self):
        with pytest.raises(SupervisorError):
            CampaignConfig(isolation="thread")

    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_CELL_MEM_MB", "256")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "3")
        config = CampaignConfig()
        assert config.resolved_timeout() == 12.5
        assert config.resolved_mem_mb() == 256
        assert config.resolved_retries() == 3

    def test_explicit_values_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "3")
        assert CampaignConfig(retries=0).resolved_retries() == 0

    def test_negative_retries_floored(self):
        assert CampaignConfig(retries=-5).resolved_retries() == 0


class TestSupervision:
    def test_quarantine_after_retry_exhaustion(self):
        spec = CellSpec.make("test.always-raises", "p", 3, seed=0)
        result = run_campaign(
            [spec], CampaignConfig(retries=2, isolation="inline")
        ).results[0]
        assert result.quarantined
        assert result.status == STATUS_QUARANTINED
        assert result.attempts == 3
        assert result.classification == "error"
        assert "ArithmeticError" in result.traceback

    def test_crash_retried_then_succeeds(self):
        faults.configure_faults({"sim_crash": 0.5}, seed=first_fires_seed("sim_crash"))
        spec = CellSpec.make("test.square", "p", 4, seed=0)
        result = run_campaign(
            [spec], CampaignConfig(retries=1, isolation="inline")
        ).results[0]
        assert result.ok
        assert result.attempts == 2
        assert result.value == 16

    def test_retried_cell_value_bit_identical(self):
        spec = CellSpec.make("test.rng-bits", "p", 4, seed=0)
        config = CampaignConfig(retries=1, isolation="inline")
        clean = run_campaign([spec], config).results[0]
        faults.configure_faults({"sim_crash": 0.5}, seed=first_fires_seed("sim_crash"))
        retried = run_campaign([spec], config).results[0]
        assert retried.ok and retried.attempts == 2
        assert retried.value == clean.value

    def test_campaign_never_aborts(self):
        cells = cells_for("test.square", [2, 3]) + cells_for(
            "test.always-raises", [4]
        )
        report = run_campaign(cells, CampaignConfig(retries=0, isolation="inline"))
        assert len(report.results) == 3
        assert len(report.ok_results) == 2
        assert len(report.quarantined) == 1
        assert report.values() == {
            "test.square:p:n=2:seed=0": 4,
            "test.square:p:n=3:seed=0": 9,
        }

    def test_resume_requires_journal(self):
        with pytest.raises(SupervisorError):
            run_campaign([], resume=True)

    def test_resume_restores_bit_identically(self, tmp_path):
        cells = cells_for("test.rng-bits", [2, 3, 4])
        config = CampaignConfig(seed=5, isolation="inline")
        journal = open_journal(cells, seed=5, directory=tmp_path)
        first = run_campaign(cells, config, journal=journal)
        resumed = run_campaign(cells, config, journal=journal, resume=True)
        assert resumed.values() == first.values()
        assert resumed.resumed_count == 3
        assert all(result.resumed for result in resumed.results)

    def test_partial_journal_runs_only_the_rest(self, tmp_path):
        cells = cells_for("test.rng-bits", [2, 3, 4])
        config = CampaignConfig(seed=5, isolation="inline")
        journal = open_journal(cells, seed=5, directory=tmp_path)
        full = run_campaign(cells, config, journal=journal)
        lines = journal.path.read_text().splitlines()
        journal.path.write_text("\n".join(lines[:3]) + "\n")  # drop last cell
        resumed = run_campaign(cells, config, journal=journal, resume=True)
        assert resumed.resumed_count == 2
        assert resumed.values() == full.values()

    def test_resume_refuses_mismatched_campaign_key(self, tmp_path):
        cells = cells_for("test.rng-bits", [2, 3])
        journal = open_journal(cells, seed=5, directory=tmp_path)
        run_campaign(cells, CampaignConfig(seed=5, isolation="inline"), journal=journal)
        # Same journal object, different campaign seed: the recorded
        # values would be silently wrong for seed=6, so resume refuses.
        with pytest.raises(SupervisorError, match="different campaign"):
            run_campaign(
                cells,
                CampaignConfig(seed=6, isolation="inline"),
                journal=journal,
                resume=True,
            )
        # The matching key still resumes cleanly (the happy path).
        resumed = run_campaign(
            cells,
            CampaignConfig(seed=5, isolation="inline"),
            journal=journal,
            resume=True,
        )
        assert resumed.resumed_count == 2

    def test_campaign_key_excludes_supervision(self):
        cells = cells_for("test.square", [2])
        assert campaign_key(cells, 0) == {
            "seed": 0,
            "cells": ["test.square:p:n=2:seed=0"],
        }


class TestBackoffDelays:
    def test_transient_failures_record_positive_seeded_delays(self):
        faults.configure_faults({"sim_oom": 1.0}, seed=1)
        spec = CellSpec.make("test.square", "p", 3, seed=0)
        config = CampaignConfig(
            seed=5, retries=2, isolation="inline", backoff_base=0.001
        )
        result = run_campaign([spec], config).results[0]
        assert result.quarantined and result.classification == "oom"
        assert len(result.delays) == 2
        assert all(d > 0.0 for d in result.delays)
        assert result.delays[0] < result.delays[1]  # exponential growth
        # Deterministic: the same cell re-run draws the same delays.
        faults.configure_faults({"sim_oom": 1.0}, seed=1)
        again = run_campaign([spec], config).results[0]
        assert again.delays == result.delays

    def test_permanent_failures_retry_without_pausing(self):
        spec = CellSpec.make("test.always-raises", "p", 3, seed=0)
        result = run_campaign(
            [spec], CampaignConfig(retries=2, isolation="inline")
        ).results[0]
        assert result.quarantined and result.classification == "error"
        assert result.delays == (0.0, 0.0)

    def test_successful_first_attempt_records_no_delays(self):
        result = run_campaign(
            [CellSpec.make("test.square", "p", 3, seed=0)],
            CampaignConfig(retries=2, isolation="inline"),
        ).results[0]
        assert result.ok and result.delays == ()

    def test_delays_survive_payload_roundtrip(self):
        faults.configure_faults({"sim_oom": 1.0}, seed=1)
        spec = CellSpec.make("test.square", "p", 3, seed=0)
        config = CampaignConfig(
            seed=5, retries=1, isolation="inline", backoff_base=0.001
        )
        result = run_campaign([spec], config).results[0]
        restored = CellResult.from_payload(
            json.loads(json.dumps(result.payload()))
        )
        assert restored.delays == result.delays


# ---------------------------------------------------------------- measurements
class TestMeasurementPlans:
    def test_unknown_panel_rejected(self):
        with pytest.raises(SupervisorError):
            plan_panel("re", 3)

    @pytest.mark.parametrize(
        "panel,series_count", [("trees", 2), ("volume", 3), ("grids", 3)]
    )
    def test_plan_shape(self, panel, series_count):
        plan = plan_panel(panel, 3)
        assert len(plan.series) == series_count
        assert len(plan.cells) == 3 * series_count
        assert len({spec.cell_id() for spec in plan.cells}) == len(plan.cells)

    def test_assemble_complete_panel(self):
        plan = plan_panel("volume", 3)
        report = run_campaign(plan.cells, CampaignConfig(isolation="inline"))
        panel = assemble_panel(plan, report)
        assert panel.complete
        assert len(panel.rows) == 3
        assert not panel.gap_violations()

    def test_assemble_partial_series_notes_degradation(self):
        plan = plan_panel("volume", 3)
        report = run_campaign(plan.cells, CampaignConfig(isolation="inline"))
        # Quarantine one cell of the first series after the fact.
        victim = plan.series[0].cells[1]
        for result in report.results:
            if result.spec == victim:
                result.status = STATUS_QUARANTINED
                result.classification = "timeout"
        panel = assemble_panel(plan, report)
        assert not panel.complete
        row = next(r for r in panel.rows if r.problem == plan.series[0].problem)
        assert "quarantined" in row.note and "timeout" in row.note
        assert len(row.ns) == 2
        assert "degraded panel" in panel.render()

    def test_assemble_dead_series_becomes_quarantined_row(self):
        plan = plan_panel("volume", 2)
        report = run_campaign(plan.cells, CampaignConfig(isolation="inline"))
        for result in report.results:
            if result.spec.problem == plan.series[0].problem:
                result.status = STATUS_QUARANTINED
                result.classification = "oom"
                result.reason = "MemoryError"
        panel = assemble_panel(plan, report)
        assert len(panel.rows) == 2
        assert len(panel.quarantined) == 1
        assert panel.quarantined[0].classification == "oom"
        assert "QUARANTINED [oom]" in panel.render()


# -------------------------------------------------------- panel validation
class TestPanelValidation:
    def test_empty_series_rejected(self):
        panel = LandscapePanel("t")
        with pytest.raises(LandscapeError) as excinfo:
            panel.add("prob", "O(1)", [], [])
        assert "prob" in str(excinfo.value)

    def test_mismatched_lengths_rejected(self):
        panel = LandscapePanel("t")
        with pytest.raises(LandscapeError):
            panel.add("prob", "O(1)", [2, 4, 8], [1.0, 1.0])

    def test_non_finite_values_rejected(self):
        panel = LandscapePanel("t")
        with pytest.raises(LandscapeError) as excinfo:
            panel.add("prob", "O(1)", [2, 4], [1.0, float("nan")])
        assert "non-finite" in str(excinfo.value)

    def test_quarantined_rows_never_count_as_gap_evidence(self):
        from repro.utils.numbers import iterated_log

        panel = LandscapePanel("t")
        ns = [2**k for k in range(4, 12)]
        # A genuinely gap-inhabiting measured row is reported...
        panel.add(
            "in-gap", "Theta(log log* n)", ns, [float(max(1, iterated_log(n) - 1).bit_length()) for n in ns]
        )
        in_gap_before = [row.problem for row in panel.gap_violations()]
        # ...while a quarantined series with the same expected class is not.
        panel.quarantine("crashed", "Theta(log log* n)", classification="error")
        assert [row.problem for row in panel.gap_violations()] == in_gap_before
        assert all(row.problem != "crashed" for row in panel.gap_violations())
