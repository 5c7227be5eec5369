"""Planted-violation fixtures for the interprocedural rules
(REP010/REP011/REP012) and the dataflow engine behind them.

The headline test plants a taint flow through **three intermediate
calls across three modules** — every hop individually innocent — and
asserts both halves of the claim:

* REP010 reports it, anchored at the sink line, with the full witness
  chain naming every module it crossed;
* every other rule (REP002 among them) reports **nothing** on the
  same tree, proving the flow is invisible without interprocedural
  propagation.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_lint


def write_tree(tmp_path: Path, files: dict) -> None:
    """Write a package tree of fixture modules."""
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        parent = path.parent
        while parent != tmp_path:
            (parent / "__init__.py").touch(exist_ok=True)
            parent = parent.parent
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def lint(tmp_path: Path, **kwargs):
    return run_lint([tmp_path], root=tmp_path, use_cache=False, **kwargs)


def by_code(result, code):
    return [f for f in result.findings if f.rule == code]


# ---------------------------------------------------------------- REP010
#: A taint flow with three intermediate calls spanning three modules:
#: sample() (RNG origin, pkg/source.py)
#:   -> relay_one -> relay_two (pkg/plumbing.py)
#:     -> publish (pkg/codec.py) -> encode_row (the sink, same module).
DEEP_FLOW = {
    "pkg/source.py": """
        import random

        def sample():
            return random.random()
    """,
    "pkg/plumbing.py": """
        from pkg.source import sample

        def relay_one():
            return relay_two()

        def relay_two():
            return sample()
    """,
    "pkg/codec.py": """
        from pkg.plumbing import relay_one

        def encode_row(row):
            return repr(row).encode()

        def publish(out):
            value = relay_one()
            out.append(encode_row(value))
    """,
}


class TestDeepTaintFlow:
    def test_rep010_catches_three_hop_cross_module_flow(self, tmp_path):
        write_tree(tmp_path, DEEP_FLOW)
        result = lint(tmp_path)
        hits = by_code(result, "REP010")
        assert hits, "REP010 missed the 3-hop cross-module flow"
        hit = hits[0]
        # Anchored at the sink call line in codec.py.
        assert hit.path == "pkg/codec.py"
        assert "encode_row" in hit.message
        assert "unseeded-rng" in hit.message
        # The witness chain names every module the value crossed.
        for fragment in ("source.py", "plumbing.py", "codec.py"):
            assert fragment in hit.message, hit.message

    def test_single_pass_rules_provably_miss_it(self, tmp_path):
        """Every hop is innocent in isolation: with REP010 disabled, the
        remaining rules report nothing — REP002 never sees a set in the
        codec module, REP001 exempts nothing here because the RNG call
        is flagged... unless the fixture hides it the way real code
        does."""
        write_tree(tmp_path, DEEP_FLOW)
        result = lint(tmp_path, disable=["REP010", "REP001"])
        # REP001 would flag the bare random.random() *at its origin*;
        # everything else — including REP002, which owns ordered-output
        # modules like codec.py — is blind to the flow.
        assert result.findings == [], [f.render() for f in result.findings]

    def test_rep002_alone_misses_it_even_in_the_codec_module(self, tmp_path):
        write_tree(tmp_path, DEEP_FLOW)
        result = lint(tmp_path, select=["REP002"])
        assert result.findings == []

    def test_same_file_set_order_flow_is_left_to_rep002(self, tmp_path):
        """REP002 is the zero-hop case: a set-order flow born at its site
        and sunk in the same file is reported once, at the iteration;
        the same value sunk in another file is still REP010's."""
        write_tree(
            tmp_path,
            {
                "pkg/codec.py": """
                    def encode_row(row):
                        return repr(row).encode()

                    def keys_of(table):
                        return [key for key in table.keys()]

                    def publish(table):
                        return encode_row(keys_of(table))
                """,
                "pkg/app.py": """
                    from pkg.codec import encode_row, keys_of

                    def export(table):
                        return encode_row(keys_of(table))
                """,
            },
        )
        result = lint(tmp_path)
        assert [(f.rule, f.path, f.line) for f in result.findings] == [
            ("REP010", "pkg/app.py", 5),
            ("REP002", "pkg/codec.py", 6),
        ]

    def test_set_order_taint_through_returns(self, tmp_path):
        """Order taint born by materializing a helper's set return two
        calls away from the sink."""
        write_tree(
            tmp_path,
            {
                "pkg/helpers.py": """
                    def fan_out(rows):
                        return {r.strip() for r in rows}

                    def collect(rows):
                        return list(fan_out(rows))
                """,
                "pkg/encode.py": """
                    from pkg.helpers import collect

                    def encode_payload(payload):
                        return "|".join(payload).encode()

                    def publish(rows):
                        return encode_payload(collect(rows))
                """,
            },
        )
        result = lint(tmp_path)
        hits = by_code(result, "REP010")
        assert hits, "order taint through returns was missed"
        assert hits[0].path == "pkg/encode.py"
        assert "set-order" in hits[0].message

    def test_sorted_launders_the_callee_return(self, tmp_path):
        """sorted() around the unordered-returning helper kills the
        flow, including the taint latent in the callee's summary."""
        write_tree(
            tmp_path,
            {
                "pkg/helpers.py": """
                    def fan_out(rows):
                        return {r.strip() for r in rows}

                    def collect(rows):
                        return sorted(fan_out(rows))
                """,
                "pkg/encode.py": """
                    from pkg.helpers import collect

                    def encode_payload(payload):
                        return "|".join(payload).encode()

                    def publish(rows):
                        return encode_payload(collect(rows))
                """,
            },
        )
        result = lint(tmp_path)
        assert by_code(result, "REP010") == []

    def test_list_of_unordered_elements_is_ordered(self, tmp_path):
        """A list comprehension's order comes from its generators: a
        helper returning ``[frozenset(...) for ...]`` over an ordered
        source is not an unordered container, so a caller that iterates
        it and sorts each element before encoding stays clean."""
        write_tree(
            tmp_path,
            {
                "pkg/helpers.py": """
                    def groups(rows):
                        return [frozenset(row) for row in sorted(rows)]
                """,
                "pkg/encode.py": """
                    from pkg.helpers import groups

                    def encode_payload(payload):
                        return "|".join(payload).encode()

                    def publish(rows):
                        return [encode_payload(sorted(g)) for g in groups(rows)]
                """,
            },
        )
        result = lint(tmp_path, select=["REP010"])
        assert result.findings == [], [f.render() for f in result.findings]

    def test_list_comprehension_over_a_set_still_fires(self, tmp_path):
        """The generator, not the element, decides: ``[x for x in s]``
        over a set is order-tainted wherever it reaches a sink."""
        write_tree(
            tmp_path,
            {
                "pkg/helpers.py": """
                    def collect(rows):
                        seen = {row.strip() for row in rows}
                        return [x for x in seen]
                """,
                "pkg/encode.py": """
                    from pkg.helpers import collect

                    def encode_payload(payload):
                        return "|".join(payload).encode()

                    def publish(rows):
                        return encode_payload(collect(rows))
                """,
            },
        )
        hits = by_code(lint(tmp_path, select=["REP010"]), "REP010")
        assert hits, "a list comprehension over a set lost its order taint"
        assert hits[0].path == "pkg/encode.py"
        assert "set-order" in hits[0].message

    def test_iterating_an_unordered_element_still_fires(self, tmp_path):
        """The elements keep their container-ness: materializing one of
        the frozensets of a list comprehension is order-tainted."""
        write_tree(
            tmp_path,
            {
                "pkg/helpers.py": """
                    def members(rows):
                        groups = [frozenset(row) for row in sorted(rows)]
                        return [list(g) for g in groups]
                """,
                "pkg/encode.py": """
                    from pkg.helpers import members

                    def encode_payload(payload):
                        return "|".join(payload).encode()

                    def publish(rows):
                        return encode_payload(members(rows))
                """,
            },
        )
        hits = by_code(lint(tmp_path, select=["REP010"]), "REP010")
        assert hits, "materializing a frozenset element was missed"
        assert "set-order" in hits[0].message

    @pytest.mark.parametrize(
        "publish",
        [
            "return encode_payload([list(g) for g in groups(rows)])",
            "return [encode_payload(list(g)) for g in relay(rows)]",
            "for g in groups(rows):\n    out.append(encode_payload(list(g)))",
            "for g in groups(rows):\n    out.append(encode_payload([x for x in g]))",
        ],
        ids=["comprehension", "through-relay", "for-loop", "iterated-element"],
    )
    def test_materializing_an_element_of_a_returned_sequence_fires(self, tmp_path, publish):
        """The element fact crosses the call: a helper returning
        ``[frozenset(...) for ...]`` hands its caller unordered elements,
        and materializing one of them into a sink is order-tainted."""
        write_tree(
            tmp_path,
            {
                "pkg/helpers.py": """
                    def groups(rows):
                        return [frozenset(row) for row in sorted(rows)]

                    def relay(rows):
                        return groups(rows)
                """,
                "pkg/encode.py": (
                    "from pkg.helpers import groups, relay\n\n"
                    "def encode_payload(payload):\n"
                    "    return '|'.join(payload).encode()\n\n"
                    "def publish(rows, out):\n"
                    + textwrap.indent(publish, "    ")
                    + "\n"
                ),
            },
        )
        hits = by_code(lint(tmp_path, select=["REP010"]), "REP010")
        assert hits, "materializing an element of a returned frozenset list was missed"
        assert hits[0].path == "pkg/encode.py"
        assert "set-order" in hits[0].message
        # The witness chain starts at the helper that returns the sequence.
        assert "returns a sequence of unordered containers" in hits[0].message
        assert "helpers.py" in hits[0].message

    @pytest.mark.parametrize(
        "publish",
        [
            "return encode_payload(groups(rows))",
            "kept = relay(rows)\nreturn encode_payload(kept)",
            "return encode_payload([sorted(g) for g in groups(rows)])",
            "return encode_payload([g for g in groups(rows)])",
            "return encode_payload([len(g) for g in relay(rows)])",
            "for g in groups(rows):\n    size, items = describe(g)\n"
            "    out.append(encode_payload(list(items)))",
        ],
        ids=["pass-through", "relay", "sorted-elements", "elements-passed", "sizes", "described"],
    )
    def test_passing_or_sorting_a_returned_sequence_stays_clean(self, tmp_path, publish):
        """Only materializing an element taints: the list itself is
        ordered, sorting an element launders its order, and a project
        function handed an element returns what its own summary says."""
        write_tree(
            tmp_path,
            {
                "pkg/helpers.py": """
                    def groups(rows):
                        return [frozenset(row) for row in sorted(rows)]

                    def relay(rows):
                        return groups(rows)

                    def describe(group):
                        return len(group), sorted(group)
                """,
                "pkg/encode.py": (
                    "from pkg.helpers import describe, groups, relay\n\n"
                    "def encode_payload(payload):\n"
                    "    return '|'.join(payload).encode()\n\n"
                    "def publish(rows, out):\n"
                    + textwrap.indent(publish, "    ")
                    + "\n"
                ),
            },
        )
        result = lint(tmp_path, select=["REP010"])
        assert result.findings == [], [f.render() for f in result.findings]

    def test_sink_line_suppression_silences_the_whole_chain(self, tmp_path):
        """One suppression at the sink call silences a flow whose origin
        lives two modules away (the satellite-4 contract)."""
        files = dict(DEEP_FLOW)
        files["pkg/codec.py"] = """
            from pkg.plumbing import relay_one

            def encode_row(row):
                return repr(row).encode()

            def publish(out):
                value = relay_one()
                out.append(encode_row(value))  # repro-lint: disable=REP010 -- audited
        """
        write_tree(tmp_path, files)
        result = lint(tmp_path, select=["REP010"])
        assert result.findings == []
        assert result.suppressed >= 1

    def test_environ_taint_via_os_getenv(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/cfg.py": """
                    import os

                    def ambient():
                        return os.getenv("HOSTNAME_SALT")
                """,
                "pkg/journal.py": """
                    from pkg.cfg import ambient

                    def write_entry(journal):
                        journal.append(ambient())
                """,
            },
        )
        result = lint(tmp_path, select=["REP010"])
        hits = by_code(result, "REP010")
        assert hits and "environ" in hits[0].message
        assert hits[0].path == "pkg/journal.py"

    def test_argument_flow_into_sink_parameter(self, tmp_path):
        """Taint passed *down* through arguments into a function whose
        parameter feeds the sink (the dual of the return direction)."""
        write_tree(
            tmp_path,
            {
                "pkg/writer.py": """
                    def record_value(journal, value):
                        journal.append(value)
                """,
                "pkg/caller.py": """
                    import time
                    from pkg.writer import record_value

                    def stamp(journal):
                        record_value(journal, time.time())
                """,
            },
        )
        result = lint(tmp_path, select=["REP010"])
        hits = by_code(result, "REP010")
        assert hits, "argument-direction flow was missed"
        assert hits[0].path == "pkg/writer.py"
        assert "wall-clock" in hits[0].message
        # The chain names the caller that introduced the taint.
        assert "caller.py" in hits[0].message


# ---------------------------------------------------------------- REP011
#: A stand-in for ``repro.supervisor.cells.register_runner``: any function
#: decorated with it is a fork root (it runs inside an isolated cell).
REGISTER_RUNNER = """
    def register_runner(name):
        def deco(fn):
            return fn
        return deco
"""


class TestForkSafety:
    def test_global_mutation_behind_worker_fires(self, tmp_path):
        """The runner itself is clean; a helper it calls mutates a
        module global — only reachability analysis sees it."""
        write_tree(
            tmp_path,
            {
                "pkg/cells.py": REGISTER_RUNNER,
                "pkg/state.py": """
                    _MEMO = {}

                    def remember(key, value):
                        _MEMO[key] = value
                        return value
                """,
                "pkg/workers.py": """
                    from pkg.cells import register_runner
                    from pkg.state import remember

                    @register_runner("double")
                    def double_cell(spec):
                        return [remember(c, c * 2) for c in spec]
                """,
            },
        )
        result = lint(tmp_path, select=["REP011"])
        hits = by_code(result, "REP011")
        assert hits, "fork-reachable global mutation was missed"
        assert hits[0].path == "pkg/state.py"
        assert "_MEMO" in hits[0].message
        # The chain explains *why* state.py counts as worker-side.
        assert "double_cell" in hits[0].message

    def test_unpicklable_global_read_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/cells.py": REGISTER_RUNNER,
                "pkg/locked.py": """
                    import threading

                    _LOCK = threading.Lock()

                    def guarded(x):
                        with _LOCK:
                            return x + 1
                """,
                "pkg/workers.py": """
                    from pkg.cells import register_runner
                    from pkg.locked import guarded

                    @register_runner("guarded")
                    def guarded_cell(spec):
                        return [guarded(c) for c in spec]
                """,
            },
        )
        result = lint(tmp_path, select=["REP011"])
        hits = by_code(result, "REP011")
        assert hits and "_LOCK" in hits[0].message
        assert hits[0].path == "pkg/locked.py"

    def test_parent_scoped_knob_read_in_runner_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/cells.py": REGISTER_RUNNER,
                "pkg/runner.py": """
                    from pkg.cells import register_runner
                    from repro.utils import env

                    @register_runner("probe")
                    def probe_cell(spec):
                        budget = env.get_float("REPRO_CELL_TIMEOUT")
                        return budget
                """,
            },
        )
        result = lint(tmp_path, select=["REP011"])
        hits = by_code(result, "REP011")
        assert hits, "parent-scoped knob read in a cell runner was missed"
        assert "REPRO_CELL_TIMEOUT" in hits[0].message
        assert hits[0].path == "pkg/runner.py"

    def test_clean_worker_stays_silent(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/cells.py": REGISTER_RUNNER,
                "pkg/workers.py": """
                    from pkg.cells import register_runner

                    @register_runner("double")
                    def double_cell(spec):
                        return [c * 2 for c in spec]
                """,
            },
        )
        result = lint(tmp_path, select=["REP011"])
        assert result.findings == []

    def test_any_scoped_knob_read_is_fine_in_worker(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/cells.py": REGISTER_RUNNER,
                "pkg/workers.py": """
                    from pkg.cells import register_runner
                    from repro.utils import env

                    @register_runner("bitset")
                    def bitset_cell(spec):
                        if env.get_bool("REPRO_BITSET"):
                            return spec
                        return list(spec)
                """,
            },
        )
        result = lint(tmp_path, select=["REP011"])
        assert result.findings == []


# ---------------------------------------------------------------- REP012
class TestEngineFreeCalls:
    def test_lazy_engine_import_in_checker_fires(self, tmp_path):
        """The exact gap REP003 cannot close: a function-level import of
        the engine inside a checker function, executed when checking."""
        write_tree(
            tmp_path,
            {
                "roundelim/ops.py": """
                    def apply_round(problem):
                        return problem
                """,
                "verify/checker.py": """
                    def check_certificate(cert):
                        from roundelim.ops import apply_round
                        return apply_round(cert) == cert
                """,
            },
        )
        result = lint(tmp_path, select=["REP003", "REP012"])
        assert by_code(result, "REP003") == [], "REP003 must stay blind to lazy imports"
        hits = by_code(result, "REP012")
        assert hits, "REP012 missed the lazy engine call"
        assert hits[0].path == "verify/checker.py"
        assert "apply_round" in hits[0].message

    def test_transitive_engine_call_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "roundelim/ops.py": """
                    def apply_round(problem):
                        return problem
                """,
                "verify/helpers.py": """
                    def recompute(cert):
                        from roundelim.ops import apply_round
                        return apply_round(cert)
                """,
                "verify/checker.py": """
                    from verify.helpers import recompute

                    def check_certificate(cert):
                        return recompute(cert) == cert
                """,
            },
        )
        result = lint(tmp_path, select=["REP012"])
        hits = by_code(result, "REP012")
        assert hits
        paths = {h.path for h in hits}
        assert "verify/checker.py" in paths or "verify/helpers.py" in paths

    def test_producer_module_is_sanctioned(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "roundelim/ops.py": """
                    def apply_round(problem):
                        return problem
                """,
                "verify/certify.py": """
                    def make_certificate(problem):
                        from roundelim.ops import apply_round
                        return apply_round(problem)
                """,
            },
        )
        result = lint(tmp_path, select=["REP012"])
        assert result.findings == []

    def test_engine_free_checker_stays_silent(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "verify/checker.py": """
                    def check_certificate(cert):
                        return cert.digest == cert.claimed
                """,
            },
        )
        result = lint(tmp_path, select=["REP012"])
        assert result.findings == []


    def test_import_and_call_crossings_come_from_one_walk(self, tmp_path):
        """REP003 and REP012 are two readings of one reach walk: a
        module-level import chain and a call chain into the engine, from
        the same checker module, each surface under their own code."""
        write_tree(
            tmp_path,
            {
                "roundelim/ops.py": """
                    def apply_round(problem):
                        return problem
                """,
                "verify/checker.py": """
                    import roundelim.ops

                    def check_certificate(cert):
                        return roundelim.ops.apply_round(cert) == cert
                """,
            },
        )
        result = lint(tmp_path, select=["REP003", "REP012"])
        assert [(f.rule, f.line) for f in result.findings] == [
            ("REP003", 2),
            ("REP012", 5),
        ]
        for finding in result.findings:
            assert "roundelim" in finding.message


# ------------------------------------------------------- engine internals
class TestResolution:
    def test_reexport_suffix_resolution(self, tmp_path):
        """A call through a package re-export resolves to the defining
        submodule (unique-suffix fallback)."""
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": """
                    from pkg.codec import encode_row
                """,
                "pkg/codec.py": """
                    def encode_row(row):
                        return repr(row).encode()
                """,
                "pkg/app.py": """
                    import random
                    from pkg import encode_row

                    def publish():
                        return encode_row(random.random())
                """,
            },
        )
        result = lint(tmp_path, select=["REP010"])
        hits = by_code(result, "REP010")
        assert hits, "re-exported sink call did not resolve"
        # Anchored at the sink *call site*; the resolved defining module
        # shows up in the sink name.
        assert hits[0].path == "pkg/app.py"
        assert "pkg.codec.encode_row" in hits[0].message

    def test_scaffolding_is_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "tests/test_helpers.py": """
                    import random

                    def encode_row(row):
                        return repr(row).encode()

                    def test_roundtrip(journal):
                        journal.append(encode_row(random.random()))
                """,
            },
        )
        result = lint(tmp_path, select=["REP010", "REP011"])
        assert result.findings == []

    def test_mutual_recursion_terminates(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/loop.py": """
                    import random

                    def ping(n):
                        if n <= 0:
                            return random.random()
                        return pong(n - 1)

                    def pong(n):
                        return ping(n)
                """,
                "pkg/encode.py": """
                    from pkg.loop import ping

                    def encode_value(v):
                        return repr(v).encode()

                    def publish():
                        return encode_value(ping(3))
                """,
            },
        )
        result = lint(tmp_path, select=["REP010"])
        hits = by_code(result, "REP010")
        assert hits, "taint through mutual recursion was lost"
        assert "unseeded-rng" in hits[0].message
