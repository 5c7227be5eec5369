"""Incremental-cache tests: byte-identical cold/warm reports, content
and salt invalidation, and the REPRO_LINT_CACHE* knobs.

The cache stores *per-file* facts only (findings + the summaries that
feed the whole-program analysis); every cross-file judgment is
recomputed on each run, so a warm run must be observationally identical
to a cold one — these tests pin that equivalence at the byte level for
all three report formats.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import cache as lint_cache
from repro.analysis import run_lint
from repro.analysis.cache import LintCache, compute_salt
from repro.analysis.report import render_json, render_sarif, render_text
from repro.analysis.suppressions import Suppressions

BARE_EXCEPT = "def f():\n    try:\n        return 1\n    except:\n        return 2\n"

#: A two-file interprocedural flow: the taint originates in ``feed.py``
#: and only becomes a REP010 finding through the whole-program pass, so
#: replaying cached per-file facts must still reproduce it.
TAINT_FILES = {
    "pkg/__init__.py": "",
    "pkg/feed.py": """\
        import random


        def draw():
            return random.random()  # repro-lint: disable=REP001 -- planted source
        """,
    "pkg/codec.py": """\
        def encode_row(value):
            return repr(value)
        """,
    "pkg/app.py": """\
        from pkg.codec import encode_row
        from pkg.feed import draw


        def publish():
            return encode_row(draw())
        """,
}


def write_tree(tmp_path: Path, files: dict) -> Path:
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def lint(tmp_path: Path, **kwargs):
    kwargs.setdefault("cache_dir", tmp_path / "lint-cache")
    return run_lint([tmp_path / "pkg"], root=tmp_path, **kwargs)


class TestWarmReplay:
    def test_cold_misses_then_warm_hits_every_file(self, tmp_path):
        write_tree(tmp_path, TAINT_FILES)
        cold = lint(tmp_path)
        assert cold.cache_misses == len(TAINT_FILES)
        assert cold.cache_hits == 0
        warm = lint(tmp_path)
        assert warm.cache_hits == len(TAINT_FILES)
        assert warm.cache_misses == 0

    def test_cold_and_warm_reports_are_byte_identical(self, tmp_path):
        write_tree(tmp_path, TAINT_FILES)
        cold = lint(tmp_path)
        warm = lint(tmp_path)
        assert warm.cache_hits and not warm.cache_misses
        for renderer in (render_text, render_json, render_sarif):
            assert renderer(cold) == renderer(warm)

    def test_interprocedural_finding_survives_warm_replay(self, tmp_path):
        """REP010 is a *cross-file* judgment: it must come out of the
        warm run even though no file is re-parsed."""
        write_tree(tmp_path, TAINT_FILES)
        cold = lint(tmp_path)
        warm = lint(tmp_path)
        for result in (cold, warm):
            codes = [f.rule for f in result.findings]
            assert "REP010" in codes, codes
        assert [f.fingerprint for f in cold.findings] == [
            f.fingerprint for f in warm.findings
        ]

    def test_warm_run_reads_suppressions_from_the_cache(self, tmp_path, monkeypatch):
        """A fully warm run tokenizes nothing: the directives come back
        with each record, and the suppression verdicts match the cold
        run's."""
        files = {
            **TAINT_FILES,
            "pkg/stale.py": "X = 1  # repro-lint: disable=REP007 -- silences nothing\n",
        }
        write_tree(tmp_path, files)
        cold = lint(tmp_path)
        scans = []
        scan = Suppressions.scan.__func__

        def counting_scan(cls, source):
            scans.append(source)
            return scan(cls, source)

        monkeypatch.setattr(Suppressions, "scan", classmethod(counting_scan))
        warm = lint(tmp_path)
        assert warm.cache_hits == len(files)
        assert scans == []
        assert warm.findings == cold.findings
        assert warm.suppressed == cold.suppressed == 1
        assert warm.unused_suppressions == cold.unused_suppressions
        assert [u.code for u in warm.unused_suppressions] == ["REP007"]

    def test_parse_error_is_cached(self, tmp_path):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/broken.py": "def f(:\n"})
        cold = lint(tmp_path)
        warm = lint(tmp_path)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        for result in (cold, warm):
            assert "REP000" in [f.rule for f in result.findings]
        assert render_json(cold) == render_json(warm)


class TestInvalidation:
    def test_edited_file_misses_while_others_hit(self, tmp_path):
        write_tree(tmp_path, TAINT_FILES)
        lint(tmp_path)
        (tmp_path / "pkg" / "feed.py").write_text(
            "def draw():\n    return 4\n", encoding="utf-8"
        )
        result = lint(tmp_path)
        assert result.cache_misses == 1
        assert result.cache_hits == len(TAINT_FILES) - 1
        assert "REP010" not in [f.rule for f in result.findings]

    def test_rule_selection_changes_the_salt(self, tmp_path):
        """Records written under one active-rule set must not be
        replayed under another (suppression bookkeeping differs)."""
        assert compute_salt(("REP007",)) != compute_salt(("REP008",))
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        lint(tmp_path, select=["REP007"])
        result = lint(tmp_path, select=["REP008"])
        assert result.cache_hits == 0
        assert result.cache_misses == 2

    def test_corrupt_cache_record_is_treated_as_a_miss(self, tmp_path):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        cold = lint(tmp_path)
        for record in (tmp_path / "lint-cache").glob("*.json"):
            record.write_text("{not json", encoding="utf-8")
        warm = lint(tmp_path)
        assert warm.cache_hits == 0
        assert render_text(cold) == render_text(warm)

    def test_record_from_an_older_analysis_version_is_a_miss(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        current = lint_cache.ANALYSIS_VERSION
        monkeypatch.setattr(lint_cache, "ANALYSIS_VERSION", current - 1)
        lint(tmp_path)
        monkeypatch.setattr(lint_cache, "ANALYSIS_VERSION", current)
        result = lint(tmp_path)
        assert result.cache_hits == 0 and result.cache_misses == 2

    def test_record_in_an_older_format_is_a_miss(self, tmp_path):
        """A v1 record (no suppressions) never replays: neither under
        its own format marker nor relabelled as the current one."""
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        cold = lint(tmp_path)
        for marker in ("repro-lint-cache-v1", lint_cache._FORMAT):
            for record in (tmp_path / "lint-cache").glob("*.json"):
                payload = json.loads(record.read_text(encoding="utf-8"))
                payload["format"] = marker
                payload.pop("suppressions", None)
                record.write_text(json.dumps(payload), encoding="utf-8")
            result = lint(tmp_path)
            assert result.cache_hits == 0 and result.cache_misses == 2
            assert render_text(result) == render_text(cold)

    def test_clear_removes_every_record(self, tmp_path):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        lint(tmp_path)
        cache = LintCache.open(
            (), enabled=True, directory=tmp_path / "lint-cache", root=tmp_path
        )
        assert cache is not None
        assert cache.clear() == 2
        result = lint(tmp_path)
        assert result.cache_hits == 0 and result.cache_misses == 2


class TestKnobs:
    def test_cache_disabled_by_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE", "0")
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        lint(tmp_path, cache_dir=None)
        result = lint(tmp_path, cache_dir=None)
        assert result.cache_hits == 0 and result.cache_misses == 0
        assert not (tmp_path / ".repro-lint-cache").exists()

    def test_cache_dir_knob_is_anchored_at_the_lint_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE_DIR", "knob-cache")
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        lint(tmp_path, cache_dir=None)
        assert (tmp_path / "knob-cache").is_dir()
        assert list((tmp_path / "knob-cache").glob("*.json"))

    def test_explicit_argument_beats_the_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE", "0")
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        lint(tmp_path, use_cache=True)
        result = lint(tmp_path, use_cache=True)
        assert result.cache_hits == 2


class TestReportPurity:
    def test_no_renderer_leaks_cache_statistics(self, tmp_path):
        """Byte-identity depends on reports being a pure function of the
        findings — cache counters must never appear in any format."""
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        result = lint(tmp_path)
        assert result.cache_misses > 0
        for renderer in (render_text, render_json, render_sarif):
            rendered = renderer(result)
            for counter in ("cache_hits", "cache_misses", "hit rate"):
                assert counter not in rendered

    def test_json_report_omits_cache_keys(self, tmp_path):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": BARE_EXCEPT})
        body = json.loads(render_json(lint(tmp_path)))
        assert set(body) == {"findings", "summary"}
        assert "cache_hits" not in body["summary"]
