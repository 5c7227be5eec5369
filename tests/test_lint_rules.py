"""Fixture tests for every REP rule: a snippet that must fire and a
close sibling that must stay silent."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_lint


def lint_file(tmp_path: Path, name: str, source: str, **kwargs):
    """Write one fixture file (as a package member when nested) and lint
    it; returns the findings."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    parent = path.parent
    while parent != tmp_path:
        (parent / "__init__.py").touch()
        parent = parent.parent
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([tmp_path], root=tmp_path, **kwargs).findings


def codes(findings):
    return [finding.rule for finding in findings]


# ------------------------------------------------------------------- REP001
class TestUnseededRandomness:
    def test_global_function_fires(self, tmp_path):
        findings = lint_file(
            tmp_path, "mod.py", "import random\nx = random.randint(0, 7)\n"
        )
        assert codes(findings) == ["REP001"]
        assert findings[0].line == 2

    def test_unseeded_constructor_fires(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", "import random\nr = random.Random()\n")
        assert codes(findings) == ["REP001"]

    def test_from_import_of_global_function_fires(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", "from random import shuffle\n")
        assert codes(findings) == ["REP001"]

    def test_numpy_global_fires_through_alias(self, tmp_path):
        findings = lint_file(
            tmp_path, "mod.py", "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert codes(findings) == ["REP001"]

    def test_seeded_generators_stay_silent(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "mod.py",
            """
            import random
            import numpy

            def draw(seed):
                rng = random.Random(seed)
                gen = numpy.random.default_rng(seed)
                return rng.randint(0, 7), gen.integers(7)
            """,
        )
        assert findings == []

    def test_tests_are_out_of_scope(self, tmp_path):
        findings = lint_file(
            tmp_path, "test_mod.py", "import random\nx = random.random()\n"
        )
        assert findings == []


# ------------------------------------------------------------------- REP002
class TestUnorderedIteration:
    def test_dict_view_for_loop_fires_in_codec(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "codec.py",
            """
            def encode(table):
                out = []
                for key, value in table.items():
                    out.append((key, value))
                return out
            """,
        )
        assert codes(findings) == ["REP002"]

    def test_set_comprehension_iterable_fires_in_verify(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "pkg/verify/certificate.py",
            "def labels(x):\n    return [a for a in set(x)]\n",
        )
        assert codes(findings) == ["REP002"]

    def test_sorted_wrapper_is_silent(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "codec.py",
            """
            def encode(table, x):
                rows = [pair for pair in sorted(table.items())]
                view = tuple(sorted(v for v in table.values()))
                count = len(set(x))
                return rows, view, count
            """,
        )
        assert findings == []

    def test_variable_holding_a_set_fires(self, tmp_path):
        """The iterable is judged by its dataflow, not its spelling."""
        findings = lint_file(
            tmp_path,
            "codec.py",
            """
            def encode(x):
                pool = set(x)
                return [a for a in pool]
            """,
        )
        assert codes(findings) == ["REP002"]
        assert findings[0].line == 4
        assert "built at line 3" in findings[0].message

    def test_building_a_set_from_a_set_is_silent(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "codec.py",
            "def encode(x):\n    return sorted({a for a in set(x)})\n",
        )
        assert findings == []

    def test_out_of_scope_module_is_silent(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "pipeline.py",
            "def f(table):\n    return [k for k in table.keys()]\n",
        )
        assert findings == []

    def test_deleting_sorted_from_real_codec_fires(self, tmp_path):
        """The acceptance canary: strip the ``sorted()`` from the real
        codec's canonical-serialization call site and REP002 must fire."""
        repo_root = Path(__file__).resolve().parents[1]
        source = (repo_root / "src/repro/lcl/codec.py").read_text(encoding="utf-8")
        needle = "sorted(problem.node_constraints.items())"
        assert needle in source, "codec.py no longer matches the canary premise"
        broken = source.replace(needle, "problem.node_constraints.items()")
        findings = lint_file(tmp_path, "codec.py", broken, select=["REP002"])
        assert "REP002" in codes(findings)
        # And the unmodified module is clean, so the finding is the deletion's.
        assert lint_file(tmp_path, "codec.py", source, select=["REP002"]) == []


# ------------------------------------------------------------------- REP003
_PKG_FILES = {
    "proj/__init__.py": "",
    "proj/util.py": "VALUE = 1\n",
    "proj/roundelim/__init__.py": "from proj.roundelim import ops\n",
    "proj/roundelim/ops.py": "def R(x):\n    return x\n",
}


class TestEngineFreeImports:
    def write_tree(self, tmp_path, files):
        for name, source in {**_PKG_FILES, **files}.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        return run_lint([tmp_path], root=tmp_path, select=["REP003"]).findings

    def test_direct_engine_import_fires(self, tmp_path):
        findings = self.write_tree(
            tmp_path,
            {
                "proj/verify/__init__.py": "from proj.verify.check import check\n",
                "proj/verify/check.py": (
                    "from proj.roundelim.ops import R\n\ndef check(c):\n    return R(c)\n"
                ),
            },
        )
        assert codes(findings) == ["REP003"]
        assert findings[0].path.endswith("check.py")
        assert "roundelim" in findings[0].message

    def test_transitive_engine_import_fires(self, tmp_path):
        findings = self.write_tree(
            tmp_path,
            {
                "proj/helper.py": "import proj.roundelim\n",
                "proj/verify/__init__.py": "from proj.helper import *\n",
            },
        )
        assert codes(findings) == ["REP003"]

    def test_function_level_import_is_the_sanctioned_idiom(self, tmp_path):
        findings = self.write_tree(
            tmp_path,
            {
                "proj/verify/__init__.py": (
                    "def produce(c):\n"
                    "    from proj.roundelim.ops import R\n"
                    "    return R(c)\n"
                ),
            },
        )
        assert findings == []

    def test_declared_producer_module_is_exempt(self, tmp_path):
        findings = self.write_tree(
            tmp_path,
            {
                "proj/verify/__init__.py": "from proj.util import VALUE\n",
                "proj/verify/certify.py": "from proj.roundelim.ops import R\n",
            },
        )
        assert findings == []


# ------------------------------------------------------------------- REP005
class TestWallClock:
    def test_time_time_fires_in_verify(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "pkg/verify/transcript.py",
            "import time\n\ndef stamp():\n    return time.time()\n",
        )
        assert codes(findings) == ["REP005"]

    def test_datetime_now_fires_through_from_import(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "pkg/verify/envelope.py",
            "from datetime import datetime\n\ndef stamp():\n    return datetime.now()\n",
        )
        assert codes(findings) == ["REP005"]

    def test_monotonic_and_out_of_scope_are_silent(self, tmp_path):
        clean = "import time\n\ndef tick():\n    return time.monotonic()\n"
        assert lint_file(tmp_path, "pkg/verify/check.py", clean) == []
        wall = "import time\n\ndef stamp():\n    return time.time()\n"
        assert lint_file(tmp_path, "pkg/engine/loop.py", wall) == []


# ------------------------------------------------------------------- REP006
class TestEnvKnobs:
    def test_undeclared_knob_literal_fires(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", 'KNOB = "REPRO_NOT_A_KNOB"\n')
        assert codes(findings) == ["REP006"]

    def test_raw_environ_read_of_declared_knob_fires(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "mod.py",
            'import os\nX = os.environ.get("REPRO_CACHE")\n',
        )
        assert codes(findings) == ["REP006"]
        findings = lint_file(
            tmp_path, "mod.py", 'import os\nX = os.environ["REPRO_CACHE"]\n'
        )
        assert codes(findings) == ["REP006"]
        findings = lint_file(
            tmp_path, "mod.py", 'import os\nX = os.getenv("REPRO_SCHED_WORKERS")\n'
        )
        assert codes(findings) == ["REP006"]

    def test_declared_literal_and_typed_accessor_are_silent(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "mod.py",
            """
            from repro.utils import env

            FLAG = "REPRO_CACHE"
            enabled = env.get_bool(FLAG)
            """,
        )
        assert findings == []

    def test_registry_module_itself_is_exempt(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "env.py",
            'import os\nX = os.environ.get("REPRO_CACHE")\n',
        )
        assert findings == []


# ------------------------------------------------- REP007 / REP008 / REP009
class TestHygiene:
    def test_bare_except_fires(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "mod.py",
            "def f():\n    try:\n        return 1\n    except:\n        return 2\n",
        )
        assert codes(findings) == ["REP007"]

    def test_typed_except_is_silent(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "mod.py",
            "def f():\n    try:\n        return 1\n    except Exception:\n        return 2\n",
        )
        assert findings == []

    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()", "list()"])
    def test_mutable_default_fires(self, tmp_path, default):
        findings = lint_file(tmp_path, "mod.py", f"def f(x={default}):\n    return x\n")
        assert codes(findings) == ["REP008"]

    def test_none_default_is_silent(self, tmp_path):
        findings = lint_file(
            tmp_path, "mod.py", "def f(x=None, y=(), z=7):\n    return x, y, z\n"
        )
        assert findings == []

    def test_generic_raise_in_public_function_fires(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "mod.py",
            'def load(path):\n    raise RuntimeError("boom")\n',
        )
        assert codes(findings) == ["REP009"]

    def test_private_helper_and_taxonomy_raise_are_silent(self, tmp_path):
        findings = lint_file(
            tmp_path,
            "mod.py",
            """
            from repro.exceptions import ReproError

            def _helper():
                raise RuntimeError("internal")

            def load(path):
                raise ReproError("bad path")

            def parse(raw):
                raise ValueError(raw)
            """,
        )
        assert findings == []
