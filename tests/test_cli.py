"""Tests for the lcl-landscape command-line interface."""

import pytest

from repro.cli import CATALOG, main, resolve_problem
from repro.exceptions import ReproError


class TestResolveProblem:
    def test_bare_names(self):
        for name in CATALOG:
            problem = resolve_problem(name)
            assert problem.sigma_out

    def test_parameterized(self):
        assert resolve_problem("sinkless:4").max_degree == 4
        assert len(resolve_problem("coloring:5").sigma_out) == 5

    def test_unknown_name(self):
        with pytest.raises(ReproError):
            resolve_problem("nonsense")

    def test_file_spec(self, tmp_path):
        from repro.lcl import catalog
        from repro.lcl.fmt import serialize

        target = tmp_path / "problem.lcl"
        target.write_text(serialize(catalog.mis(2)), encoding="utf-8")
        problem = resolve_problem(f"file:{target}")
        assert problem.name == "mis"


class TestCommands:
    def test_show(self, capsys):
        assert main(["show", "sinkless"]) == 0
        out = capsys.readouterr().out
        assert "node[3]" in out

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "sinkless" in out and "echo2" in out

    def test_classify(self, capsys):
        assert main(["classify", "2-coloring"]) == 0
        out = capsys.readouterr().out
        assert "Theta(n)" in out

    def test_speedup_constant(self, capsys):
        assert main(["speedup", "echo:2", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "constant" in out and "PASS" in out

    def test_speedup_fixed_point(self, capsys):
        assert main(["speedup", "sinkless", "--max-steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "fixed-point" in out

    def test_landscape_volume(self, capsys):
        assert main(["landscape", "volume", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "VOLUME landscape" in out
        assert "gap" in out

    def test_error_exit_code(self, capsys):
        assert main(["show", "nonsense"]) == 2
        assert "unknown problem" in capsys.readouterr().err


class TestSupervisedLandscape:
    def test_inline_isolation_matches_default_output(self, capsys):
        assert main(["landscape", "volume", "--points", "3", "--isolate", "inline"]) == 0
        out = capsys.readouterr().out
        assert "VOLUME landscape" in out
        assert "component-count" in out

    def test_journal_then_resume_bit_identical(self, tmp_path, capsys):
        args = [
            "landscape", "grids", "--points", "2",
            "--isolate", "inline", "--journal", str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "journal:" in first
        assert "0 resumed" in first
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "6 resumed" in second  # 3 series x 2 points, all restored

        def panel_lines(text):
            return [line for line in text.splitlines() if not line.startswith("  campaign:")]

        assert panel_lines(first) == panel_lines(second)

    def test_journal_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path))
        assert main(
            ["landscape", "volume", "--points", "3", "--isolate", "inline", "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert list(tmp_path.glob("run-*.jsonl"))

    def test_campaign_seed_names_a_fresh_journal(self, tmp_path, capsys):
        base = [
            "landscape", "volume", "--points", "3",
            "--isolate", "inline", "--journal", str(tmp_path),
        ]
        assert main(base) == 0
        assert main(base + ["--campaign-seed", "1"]) == 0
        capsys.readouterr()
        assert len(list(tmp_path.glob("run-*.jsonl"))) == 2


class TestCheckpointResume:
    """``--checkpoint DIR`` persists a walk in the operator cache's disk
    layer; ``--resume`` in a later call restores its completed steps."""

    @pytest.fixture(autouse=True)
    def isolated_cache(self):
        from repro.utils import cache as operator_cache
        from repro.utils.faults import configure_faults, reset_faults

        # Injected cache_corrupt faults would turn the resumed lookups
        # into misses.
        configure_faults(None)
        operator_cache.reset()
        yield
        operator_cache.reset()
        reset_faults()

    @staticmethod
    def _computes():
        from repro.utils import cache as operator_cache

        operators = operator_cache.stats()["operators"].values()
        return sum(c["computes"] for c in operators)

    def test_roundelim_checkpoint_then_resume(self, tmp_path, capsys):
        argv = ["roundelim", "sinkless", "--steps", "2", "--checkpoint", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()
        assert list(tmp_path.glob("*.json"))

        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out.splitlines()
        assert second[1] == "  resumed 2 completed step(s) from the operator cache"
        assert [second[0]] + second[2:] == first
        assert self._computes() == 0

    @pytest.mark.parametrize("verb", ["speedup", "certify"])
    def test_pipeline_verbs_checkpoint_then_resume(self, verb, tmp_path, capsys):
        argv = [verb, "sinkless", "--max-steps", "2", "--checkpoint", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*.json"))

        from repro.utils import cache as operator_cache

        operator_cache.reset_stats()
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        assert self._computes() == 0

    def test_checkpoint_with_no_cache_exits_2(self, tmp_path, capsys):
        argv = ["roundelim", "sinkless", "--steps", "1", "--no-cache"]
        assert main(argv + ["--checkpoint", str(tmp_path)]) == 2
        assert "--no-cache" in capsys.readouterr().err


class TestInterruptExitCode:
    def test_keyboard_interrupt_exits_130_for_any_verb(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        import repro.cli as cli_module

        monkeypatch.setattr(cli_module, "cmd_show", interrupted)
        assert main(["show", "mis"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_interrupt_mid_campaign_preserves_journal(self, capsys, monkeypatch):
        # SIGINT during the landscape verb must still exit 130 while the
        # journal keeps every completed cell (flushed per record).
        # Inline isolation runs each attempt in this process, through the
        # engine's zero-worker attempt call.
        import repro.scheduler.engine as engine_module

        real = engine_module.run_attempt_inline
        state = {"count": 0}

        def interrupt_third(spec, campaign_seed, instructions=()):
            state["count"] += 1
            if state["count"] == 3:
                raise KeyboardInterrupt
            return real(spec, campaign_seed, instructions)

        monkeypatch.setattr(engine_module, "run_attempt_inline", interrupt_third)
        import tempfile

        with tempfile.TemporaryDirectory() as journal_dir:
            argv = [
                "landscape", "volume", "--points", "3",
                "--isolate", "inline", "--journal", journal_dir,
            ]
            assert main(argv) == 130
            assert "interrupted" in capsys.readouterr().err
            from pathlib import Path

            journal = next(Path(journal_dir).glob("run-*.jsonl"))
            recorded = journal.read_text().count('"kind":"cell"')
            assert recorded == 2  # the two cells finished before SIGINT

            # The resumed run restores them and completes the panel.
            monkeypatch.setattr(engine_module, "run_attempt_inline", real)
            assert main(argv + ["--resume"]) == 0
            out = capsys.readouterr().out
            assert "2 resumed" in out
            assert "VOLUME landscape" in out
