"""Framework-level tests: suppressions, baseline grandfathering,
reporters, fingerprints, and the CLI entry points."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.report import render_json, render_rule_list, render_text
from repro.cli import main as landscape_main

BARE_EXCEPT = "def f():\n    try:\n        return 1\n    except:\n        return 2\n"


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestSuppressions:
    def test_same_line_comment_silences(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:  # repro-lint: disable=REP007\n"
            "        return 2\n",
        )
        result = run_lint([tmp_path], root=tmp_path)
        assert result.findings == []
        assert result.suppressed == 1

    def test_line_above_comment_silences(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    # repro-lint: disable=REP007\n"
            "    except:\n"
            "        return 2\n",
        )
        result = run_lint([tmp_path], root=tmp_path)
        assert result.findings == []
        assert result.suppressed == 1

    def test_disable_file_silences_whole_module(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "# repro-lint: disable-file=REP007\n" + BARE_EXCEPT + BARE_EXCEPT.replace("f()", "g()"),
        )
        result = run_lint([tmp_path], root=tmp_path)
        assert result.findings == []
        assert result.suppressed == 2

    def test_wrong_code_does_not_silence(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:  # repro-lint: disable=REP008\n"
            "        return 2\n",
        )
        result = run_lint([tmp_path], root=tmp_path)
        assert [f.rule for f in result.findings] == ["REP007"]
        assert result.suppressed == 0

    def test_comma_list_silences_multiple_codes(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "def f(x=[]):  # repro-lint: disable=REP007, REP008\n    return x\n",
        )
        result = run_lint([tmp_path], root=tmp_path)
        assert result.findings == []


class TestBaseline:
    def test_round_trip_grandfathers_existing_findings(self, tmp_path):
        write(tmp_path, "mod.py", BARE_EXCEPT)
        first = run_lint([tmp_path], root=tmp_path)
        assert len(first.findings) == 1 and not first.ok

        baseline_file = tmp_path / "baseline.json"
        write_baseline(first.findings, baseline_file)
        baseline = load_baseline(baseline_file)

        second = run_lint([tmp_path], root=tmp_path, baseline=baseline)
        assert second.findings == []
        assert second.baselined == 1
        assert second.ok

    def test_new_findings_are_not_grandfathered(self, tmp_path):
        write(tmp_path, "mod.py", BARE_EXCEPT)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(run_lint([tmp_path], root=tmp_path).findings, baseline_file)

        write(tmp_path, "other.py", "def g(x={}):\n    return x\n")
        result = run_lint(
            [tmp_path], root=tmp_path, baseline=load_baseline(baseline_file)
        )
        assert [f.rule for f in result.findings] == ["REP008"]
        assert result.baselined == 1

    def test_fingerprint_survives_line_shift(self, tmp_path):
        write(tmp_path, "mod.py", BARE_EXCEPT)
        before = run_lint([tmp_path], root=tmp_path).findings[0]
        write(tmp_path, "mod.py", "\n\nVERSION = 1\n\n" + BARE_EXCEPT)
        after = run_lint([tmp_path], root=tmp_path).findings[0]
        assert after.line != before.line
        assert after.fingerprint == before.fingerprint

    def test_malformed_baseline_is_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestReporters:
    def make_result(self, tmp_path):
        write(tmp_path, "mod.py", BARE_EXCEPT)
        return run_lint([tmp_path], root=tmp_path)

    def test_text_report_has_location_and_summary(self, tmp_path):
        text = render_text(self.make_result(tmp_path))
        assert "mod.py:4" in text
        assert "REP007" in text
        assert "1 finding(s) in 1 file(s)" in text

    def test_json_report_parses_and_counts(self, tmp_path):
        body = json.loads(render_json(self.make_result(tmp_path)))
        assert body["summary"]["total"] == 1
        assert body["summary"]["by_rule"] == {"REP007": 1}
        (finding,) = body["findings"]
        assert finding["rule"] == "REP007"
        assert finding["path"] == "mod.py"
        assert finding["fingerprint"]

    def test_rule_list_names_every_registered_rule(self):
        listing = render_rule_list()
        for code in ("REP001", "REP002", "REP003", "REP005", "REP006",
                     "REP007", "REP008", "REP009", "REP010", "REP011", "REP012"):
            assert code in listing
        assert "REP004" not in listing

    def test_syntax_error_becomes_rep000_finding(self, tmp_path):
        write(tmp_path, "mod.py", "def broken(:\n")
        result = run_lint([tmp_path], root=tmp_path)
        assert [f.rule for f in result.findings] == ["REP000"]
        assert not result.ok


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "mod.py", "VALUE = 1\n")
        assert lint_main([str(tmp_path), "--root", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write(tmp_path, "mod.py", BARE_EXCEPT)
        assert lint_main([str(tmp_path), "--root", str(tmp_path)]) == 1
        assert "REP007" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        write(tmp_path, "mod.py", "VALUE = 1\n")
        assert lint_main([str(tmp_path), "--select", "REP999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_write_then_use_baseline(self, tmp_path, capsys):
        write(tmp_path, "mod.py", BARE_EXCEPT)
        baseline = tmp_path / "baseline.json"
        args = [str(tmp_path), "--root", str(tmp_path)]
        assert lint_main(args + ["--write-baseline", str(baseline)]) == 0
        assert "1 finding(s) grandfathered" in capsys.readouterr().out
        assert lint_main(args + ["--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        write(tmp_path, "mod.py", BARE_EXCEPT)
        assert lint_main([str(tmp_path), "--root", str(tmp_path), "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["summary"]["total"] == 1

    def test_env_flag_prints_knob_table(self, capsys):
        assert lint_main(["--env"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_CACHE" in out and "REPRO_SCHED_WORKERS" in out

    def test_landscape_lint_verb_matches_repro_lint(self, tmp_path, capsys):
        write(tmp_path, "mod.py", BARE_EXCEPT)
        code = landscape_main(["lint", str(tmp_path), "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP007" in out


#: Two byte-identical violations in one module: under the v1 fingerprint
#: scheme these collapsed into one hash, so baselining the first
#: silently grandfathered its twin.
TWINS = BARE_EXCEPT + BARE_EXCEPT


class TestOccurrenceFingerprints:
    def test_twin_findings_get_distinct_fingerprints(self, tmp_path):
        write(tmp_path, "mod.py", TWINS)
        findings = run_lint([tmp_path], root=tmp_path).findings
        assert [f.rule for f in findings] == ["REP007", "REP007"]
        assert findings[0].fingerprint != findings[1].fingerprint

    def test_first_occurrence_keeps_its_v1_fingerprint(self, tmp_path):
        """The occurrence suffix is only added for the second twin
        onward, so singleton fingerprints — i.e. every fingerprint a v1
        baseline can contain — are unchanged."""
        write(tmp_path, "mod.py", BARE_EXCEPT)
        singleton = run_lint([tmp_path], root=tmp_path).findings[0]
        write(tmp_path, "mod.py", TWINS)
        first, second = run_lint([tmp_path], root=tmp_path).findings
        assert first.fingerprint == singleton.fingerprint
        assert second.fingerprint != singleton.fingerprint

    def test_v1_baseline_no_longer_hides_the_twin(self, tmp_path):
        """A v1 baseline written before the twin existed matches exactly
        the first occurrence; the twin surfaces as a new finding."""
        write(tmp_path, "mod.py", TWINS)
        first = run_lint([tmp_path], root=tmp_path).findings[0]
        v1 = tmp_path / "baseline-v1.json"
        v1.write_text(
            json.dumps({"version": 1, "findings": {first.fingerprint: 1}}),
            encoding="utf-8",
        )
        result = run_lint([tmp_path], root=tmp_path, baseline=load_baseline(v1))
        assert result.baselined == 1
        assert len(result.findings) == 1
        assert result.findings[0].line > first.line

    def test_v2_baseline_grandfathers_both_twins(self, tmp_path):
        write(tmp_path, "mod.py", TWINS)
        first = run_lint([tmp_path], root=tmp_path)
        baseline_file = tmp_path / "baseline.json"
        counts = write_baseline(first.findings, baseline_file)
        assert len(counts) == 2 and all(n == 1 for n in counts.values())
        second = run_lint(
            [tmp_path], root=tmp_path, baseline=load_baseline(baseline_file)
        )
        assert second.findings == [] and second.baselined == 2

    def test_occurrence_is_stable_under_reordering_unrelated_findings(self, tmp_path):
        """Occurrence indices are assigned per (rule, path, line text)
        after the final sort, so adding an unrelated finding elsewhere
        must not renumber the twins."""
        write(tmp_path, "mod.py", TWINS)
        before = run_lint([tmp_path], root=tmp_path).findings
        write(tmp_path, "aaa.py", "def g(x={}):\n    return x\n")
        after = [
            f for f in run_lint([tmp_path], root=tmp_path).findings
            if f.rule == "REP007"
        ]
        assert [f.fingerprint for f in before] == [f.fingerprint for f in after]


class TestSuppressionEdgeCases:
    def test_justification_suffix_is_accepted(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            BARE_EXCEPT.replace(
                "except:", "except:  # repro-lint: disable=REP007 -- probing legacy API"
            ),
        )
        result = run_lint([tmp_path], root=tmp_path)
        assert result.findings == [] and result.suppressed == 1

    def test_same_line_wins_and_file_directive_goes_stale(self, tmp_path):
        """When a same-line directive already silences the finding, a
        redundant whole-file directive for the same code is *unused* —
        the stale-suppression report must surface it for removal."""
        write(
            tmp_path,
            "mod.py",
            "# repro-lint: disable-file=REP007\n"
            + BARE_EXCEPT.replace("except:", "except:  # repro-lint: disable=REP007"),
        )
        result = run_lint([tmp_path], root=tmp_path)
        assert result.findings == [] and result.suppressed == 1
        assert [(u.line, u.code) for u in result.unused_suppressions] == [(0, "REP007")]

    def test_multi_code_directive_reports_only_the_unused_code(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "def f(x=[]):  # repro-lint: disable=REP007, REP008\n    return x\n",
        )
        result = run_lint([tmp_path], root=tmp_path)
        assert result.findings == [] and result.suppressed == 1
        assert [u.code for u in result.unused_suppressions] == ["REP007"]

    def test_inactive_codes_are_not_reported_stale(self, tmp_path):
        """A directive for a rule that is not running this invocation
        cannot be judged stale (it may well be load-bearing)."""
        write(
            tmp_path,
            "mod.py",
            "def f(x=[]):  # repro-lint: disable=REP007, REP008\n    return x\n",
        )
        result = run_lint([tmp_path], root=tmp_path, select=["REP008"])
        assert result.unused_suppressions == []

    def test_directive_inside_a_string_literal_is_inert(self, tmp_path):
        """Only genuine comments are directives: a directive-shaped
        string literal (a lint-test fixture, a docstring quoting the
        syntax) must neither silence findings nor be reported stale."""
        write(
            tmp_path,
            "mod.py",
            'FIXTURE = "except:  # repro-lint: disable=REP007"\n'
            + BARE_EXCEPT,
        )
        result = run_lint([tmp_path], root=tmp_path)
        assert [f.rule for f in result.findings] == ["REP007"]
        assert result.suppressed == 0
        assert result.unused_suppressions == []

    def test_unused_directives_survive_the_warm_cache(self, tmp_path):
        """Directive usage is recomputed per run from replayed facts —
        a warm run must report the same stale directives as a cold one."""
        write(tmp_path, "mod.py", "VALUE = 1  # repro-lint: disable=REP007\n")
        cold = run_lint([tmp_path], root=tmp_path, cache_dir=tmp_path / "cache")
        warm = run_lint([tmp_path], root=tmp_path, cache_dir=tmp_path / "cache")
        assert warm.cache_hits == 1
        assert (
            [(u.path, u.line, u.code) for u in cold.unused_suppressions]
            == [(u.path, u.line, u.code) for u in warm.unused_suppressions]
            == [("mod.py", 1, "REP007")]
        )
