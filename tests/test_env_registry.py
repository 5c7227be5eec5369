"""Tests for the central REPRO_* environment-knob registry
(:mod:`repro.utils.env`)."""

from __future__ import annotations

import logging

import pytest

from repro.utils import env

EXPECTED_KNOBS = {
    "REPRO_CACHE": "bool",
    "REPRO_CACHE_DIR": "str",
    "REPRO_CACHE_MAX_BYTES": "int",
    "REPRO_FAULTS": "str",
    "REPRO_FAULTS_SEED": "int",
    "REPRO_CHECKPOINT_DIR": "str",
    "REPRO_CONFORMANCE_COUNT": "int",
    "REPRO_CELL_TIMEOUT": "float",
    "REPRO_CELL_MEM_MB": "int",
    "REPRO_CELL_RETRIES": "int",
    "REPRO_JOURNAL_DIR": "str",
    "REPRO_BITSET": "bool",
    "REPRO_BITSET_DIFF_COUNT": "int",
    "REPRO_SAT": "bool",
    "REPRO_SCHED_WORKERS": "int",
    "REPRO_SCHED_LEASE_SECS": "float",
    "REPRO_SCHED_BACKOFF_BASE": "float",
    "REPRO_SCHED_BACKOFF_FACTOR": "float",
    "REPRO_SCHED_BACKOFF_MAX": "float",
    "REPRO_SCHED_BACKOFF_JITTER": "float",
    "REPRO_LINT_CACHE": "bool",
    "REPRO_LINT_CACHE_DIR": "str",
}

#: Knobs that configure the supervising process and must never be
#: re-read inside a forked worker or cell child (lint rule REP011).
EXPECTED_PARENT_SCOPED = {
    "REPRO_CELL_TIMEOUT",
    "REPRO_CELL_MEM_MB",
    "REPRO_CELL_RETRIES",
    "REPRO_JOURNAL_DIR",
    "REPRO_SCHED_WORKERS",
    "REPRO_SCHED_LEASE_SECS",
    "REPRO_SCHED_BACKOFF_BASE",
    "REPRO_SCHED_BACKOFF_FACTOR",
    "REPRO_SCHED_BACKOFF_MAX",
    "REPRO_SCHED_BACKOFF_JITTER",
}


class TestRegistry:
    def test_every_knob_is_declared_with_its_type(self):
        assert {name: knob.type for name, knob in env.REGISTRY.items()} == (
            EXPECTED_KNOBS
        )

    def test_parent_scoped_knobs(self):
        assert env.parent_scoped_knobs() == frozenset(EXPECTED_PARENT_SCOPED)
        for name in EXPECTED_PARENT_SCOPED:
            assert env.REGISTRY[name].scope == "parent"

    def test_declare_rejects_bad_scope(self):
        with pytest.raises(ValueError, match="scope"):
            # repro-lint: disable=REP006 -- deliberately undeclared fixture knob
            env.declare("REPRO_BOGUS_SCOPE", "bool", False, "doc", scope="child")
        assert not any(k.endswith("BOGUS_SCOPE") for k in env.REGISTRY)

    def test_every_knob_has_a_docstring(self):
        for knob in env.REGISTRY.values():
            assert knob.doc, f"{knob.name} has no doc"

    def test_declare_rejects_unprefixed_names(self):
        with pytest.raises(ValueError, match="REPRO_-prefixed"):
            env.declare("OTHER_KNOB", "bool", False, "nope")

    def test_declare_rejects_unknown_types(self):
        with pytest.raises(ValueError, match="knob type"):
            # Intentionally bogus name: never reaches the registry.
            env.declare("REPRO_X_TEST_ONLY", "complex", None, "nope")  # repro-lint: disable=REP006

    def test_declare_is_idempotent_but_rejects_conflicts(self):
        knob = env.REGISTRY["REPRO_CACHE"]
        assert env.declare(knob.name, knob.type, knob.default, knob.doc) == knob
        with pytest.raises(ValueError, match="conflicting"):
            env.declare(knob.name, "str", None, "different")

    def test_render_table_lists_every_knob(self):
        table = env.render_table()
        for name in EXPECTED_KNOBS:
            assert name in table


@pytest.fixture
def propagating_repro_logger(monkeypatch):
    """CLI tests set ``propagate=False`` on the ``repro`` logger (see
    ``repro.cli.configure_logging``); undo that here so ``caplog`` sees
    the registry's warnings regardless of test order."""
    repro_logger = logging.getLogger("repro")
    monkeypatch.setattr(repro_logger, "propagate", True)
    monkeypatch.setattr(repro_logger, "handlers", [])


class TestAccessors:
    def test_undeclared_knob_is_a_keyerror(self):
        with pytest.raises(KeyError, match="undeclared"):
            env.get_raw("REPRO_NO_SUCH_KNOB")  # repro-lint: disable=REP006
        with pytest.raises(KeyError, match="undeclared"):
            env.get_bool("REPRO_NO_SUCH_KNOB")  # repro-lint: disable=REP006

    @pytest.mark.parametrize("raw", ["0", "false", "FALSE", "off", "No"])
    def test_get_bool_false_strings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CACHE", raw)
        assert env.get_bool("REPRO_CACHE") is False

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "anything"])
    def test_get_bool_truthy_strings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CACHE", raw)
        assert env.get_bool("REPRO_CACHE") is True

    def test_get_bool_unset_reads_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert env.get_bool("REPRO_CACHE") is True

    def test_get_int_parses_and_falls_back(
        self, monkeypatch, caplog, propagating_repro_logger
    ):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "5")
        assert env.get_int("REPRO_CELL_RETRIES") == 5
        monkeypatch.setenv("REPRO_CELL_RETRIES", "banana")
        with caplog.at_level(logging.WARNING, logger="repro.utils.env"):
            assert env.get_int("REPRO_CELL_RETRIES") == 1
        assert "REPRO_CELL_RETRIES" in caplog.text

    def test_get_float_parses_and_falls_back(
        self, monkeypatch, caplog, propagating_repro_logger
    ):
        monkeypatch.setenv("REPRO_SCHED_LEASE_SECS", "1.5")
        assert env.get_float("REPRO_SCHED_LEASE_SECS") == 1.5
        monkeypatch.setenv("REPRO_SCHED_LEASE_SECS", "soon")
        with caplog.at_level(logging.WARNING, logger="repro.utils.env"):
            assert env.get_float("REPRO_SCHED_LEASE_SECS") == 5.0
        assert "REPRO_SCHED_LEASE_SECS" in caplog.text

    def test_get_str_empty_reads_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert env.get_str("REPRO_CACHE_DIR") is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/cache")
        assert env.get_str("REPRO_CACHE_DIR") == "/tmp/cache"

    def test_get_raw_passes_through_verbatim(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "  /tmp/cache  ")
        assert env.get_raw("REPRO_CACHE_DIR") == "  /tmp/cache  "
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert env.get_raw("REPRO_CACHE_DIR") is None


class TestMigratedCallSites:
    """The declared defaults must match what the consuming modules use."""

    def test_cache_respects_registry_accessors(self, monkeypatch, tmp_path):
        from repro.utils import cache as cache_mod

        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        built = cache_mod._build_from_env()
        assert built.enabled is False

    def test_faults_spec_reads_through_registry(self, monkeypatch):
        from repro.utils import faults as faults_mod

        monkeypatch.setenv("REPRO_FAULTS", "")
        monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
        plan = faults_mod._build_from_env()
        assert not plan.active
