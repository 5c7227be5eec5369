"""Coverage tests for the shared sink/fork/engine contract registry.

``repro.analysis.contracts`` is the single source of truth for what the
rules consider a serialization sink, a fork boundary, or an engine
module.  These tests pin the registry against the *live tree*: every
serializing entrypoint the pipeline actually exposes must classify as a
sink (so REP010 cannot silently lose coverage when a module is renamed),
and the obvious non-sinks must not.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis import contracts

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The serialization surface REP010 guards, by qualname.  Adding a new
#: ordered-output entrypoint?  It belongs here *and* must classify.
KNOWN_SINKS = [
    "repro.lcl.codec.encode_label",
    "repro.lcl.codec.encode_problem",
    "repro.roundelim.canonical.canonical_order",
    "repro.roundelim.canonical.canonical_encoding",
    "repro.roundelim.canonical.canonical_hash",
    "repro.supervisor.journal.CampaignJournal.append_cell",
    "repro.roundelim.canonical.encode_result",
]

#: Same modules, read-side entrypoints: decoding/loading is not a sink.
KNOWN_NON_SINKS = [
    "repro.lcl.codec.decode_label",
    "repro.lcl.codec.decode_problem",
    "repro.supervisor.journal.CampaignJournal.load",
    "repro.roundelim.canonical.decode_result",
    "repro.graphs.generators.random_tree",  # sink verb shape needs an ordered-output module
]


class TestSinkRegistry:
    @pytest.mark.parametrize("qualname", KNOWN_SINKS)
    def test_known_serialization_entrypoints_classify(self, qualname):
        assert contracts.is_sink_function(qualname), qualname

    @pytest.mark.parametrize("qualname", KNOWN_NON_SINKS)
    def test_read_side_entrypoints_do_not_classify(self, qualname):
        assert not contracts.is_sink_function(qualname), qualname

    def test_known_sinks_exist_in_the_tree(self):
        """The pinned qualnames must stay real: a rename that orphans an
        entry here means REP010's coverage claim went stale."""
        for qualname in KNOWN_SINKS + [q for q in KNOWN_NON_SINKS if q.startswith("repro.")]:
            parts = qualname.split(".")
            assert parts[0] == "repro"
            found = False
            for split in range(1, len(parts)):
                module_path = SRC.joinpath(*parts[1:split]).with_suffix(".py")
                if not module_path.is_file():
                    continue
                tree = ast.parse(module_path.read_text(encoding="utf-8"))
                names = _defined_names(tree)
                if ".".join(parts[split:]) in names:
                    found = True
                    break
            assert found, f"{qualname} no longer exists under src/repro"

    def test_every_sink_verb_function_in_ordered_modules_classifies(self):
        """Drift guard: walk the tree; any public function whose *name*
        has a sink verb shape and whose module is ordered-output must be
        classified by :func:`contracts.is_sink_function`."""
        checked = 0
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC.parent)
            segments = [p for p in rel.with_suffix("").parts]
            stem = segments[-1]
            if not contracts.is_ordered_output_module(stem, segments):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            module = ".".join(segments)
            for name in _defined_names(tree):
                leaf = name.rsplit(".", 1)[-1]
                if leaf.startswith("_") or not contracts.is_sink_name(leaf):
                    continue
                assert contracts.is_sink_function(f"{module}.{name}"), name
                checked += 1
        assert checked >= len(KNOWN_SINKS)

    def test_receiver_hint_sinks(self):
        assert contracts.sink_method_receiver(("self", "_journal"), "append")
        assert contracts.sink_method_receiver(("run_checkpoint",), "write")
        assert contracts.sink_method_receiver(("certificate",), "save")
        assert contracts.sink_method_receiver(("results",), "append") is None
        assert contracts.sink_method_receiver(("self", "_journal"), "tolist") is None


class TestModuleClassification:
    def test_ordered_output_stems(self):
        assert contracts.is_ordered_output_module("codec", ["repro", "lcl", "codec"])
        assert contracts.is_ordered_output_module("journal", ["repro", "supervisor", "journal"])
        assert not contracts.is_ordered_output_module("ops", ["repro", "roundelim", "ops"])

    def test_verify_package_is_ordered_output_throughout(self):
        assert contracts.is_ordered_output_module("bounds", ["repro", "verify", "bounds"])

    def test_engine_checker_producer_split(self):
        assert contracts.is_checker_module("repro.verify.certificate")
        assert not contracts.is_checker_module("repro.roundelim.ops")
        assert contracts.is_producer_module("repro.verify.certify")
        assert contracts.is_engine_module("repro.roundelim.ops")
        assert contracts.is_engine_module("repro.decidability.classifier")
        assert not contracts.is_engine_module("repro.lcl.problem")


class TestForkRegistry:
    def test_fork_entrypoints_exist(self):
        import importlib

        for suffix in contracts.FORK_ENTRYPOINT_SUFFIXES:
            module_path, name = suffix.rsplit(".", 1)
            module = importlib.import_module(f"repro.{module_path}")
            assert hasattr(module, name), suffix


def _defined_names(tree: ast.Module):
    """Top-level function names plus ``Class.method`` pairs."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(f"{node.name}.{child.name}")
    return names
