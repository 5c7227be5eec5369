"""Smoke coverage for the benchmark harness.

The ``benchmarks/`` experiments are not part of the tier-1 suite (they
take minutes), so regressions in their imports or main paths used to
surface only when someone ran them by hand.  This module imports every
``bench_*`` module and drives the round-elimination experiments' main
entry points on tiny problem subsets, plus the conftest helpers the
``--no-cache`` flag relies on.
"""

import importlib
import pathlib
import sys

import pytest

BENCHMARKS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCHMARKS_DIR.glob("bench_*.py"))


@pytest.fixture(autouse=True)
def benchmarks_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    yield


@pytest.fixture(autouse=True)
def fresh_cache():
    from repro.utils import cache as operator_cache

    operator_cache.reset()
    operator_cache.reset_stats()
    yield
    operator_cache.reset()
    operator_cache.reset_stats()


@pytest.mark.parametrize("module_name", BENCH_MODULES)
def test_bench_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lost its experiment description"


def test_bench_roundelim_main_path(tmp_path, monkeypatch):
    import conftest as bench_conftest

    monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
    bench = importlib.import_module("bench_roundelim")

    tiny = [(n, b) for n, b in bench.PROBLEMS if n in ("trivial", "sinkless-orientation")]
    sizes, certificate, report = bench.run_experiment(problems=tiny)
    assert sizes["sinkless-orientation"][2] == 2
    assert certificate.certifies_lower_bound
    assert "RE-fixedpoint" in report

    cached_sizes, _, _ = bench.run_experiment(problems=tiny, use_cache=True)
    uncached_sizes, _, _ = bench.run_experiment(problems=tiny, use_cache=False)
    assert cached_sizes == sizes == uncached_sizes

    target = bench_conftest.write_report("smoke", report)
    assert target.read_text().startswith("RE-fixedpoint")


def test_bench_roundelim_backend_comparison(tmp_path, monkeypatch):
    """Smoke the bitset-vs-oracle experiment: the compiled backend must
    not be slower than the oracle on the smoke problem (best of three
    runs each, so one scheduler stall cannot decide it), outputs must be
    identical (asserted inside the experiment), and the run must append
    a ``BENCH_bitset.json`` trajectory entry."""
    import json

    bench = importlib.import_module("bench_roundelim")

    smoke = [row for row in bench.BACKEND_PROBLEMS if row[0] == "5-edge-coloring"]
    assert smoke, "smoke problem disappeared from BACKEND_PROBLEMS"
    rows, report = bench.run_backend_experiment(problems=smoke, repetitions=3)

    assert "RE-bitset" in report
    for row in rows:
        assert row["speedup"] > 1.0, (
            f"{row['problem']}: bitset path slower than the oracle "
            f"({row['bitset_seconds']}s vs {row['oracle_seconds']}s)"
        )

    target = bench.append_bitset_trajectory(rows, results_dir=tmp_path)
    assert target.name == "BENCH_bitset.json"
    trajectory = json.loads(target.read_text())
    assert len(trajectory) == 1 and trajectory[0]["rows"] == rows

    bench.append_bitset_trajectory(rows, results_dir=tmp_path)
    trajectory = json.loads(target.read_text())
    assert len(trajectory) == 2, "trajectory entries must accumulate"


def test_bench_roundelim_main_path_oracle_backend():
    """The classic experiment must also hold with the bitset knob off."""
    from repro.roundelim.ops import configure_bitset

    bench = importlib.import_module("bench_roundelim")
    tiny = [(n, b) for n, b in bench.PROBLEMS if n in ("trivial", "sinkless-orientation")]
    try:
        configure_bitset(enabled=False)
        sizes, certificate, _ = bench.run_experiment(problems=tiny, use_cache=False)
    finally:
        configure_bitset(enabled=None)
    assert sizes["sinkless-orientation"][2] == 2
    assert certificate.certifies_lower_bound


def test_bench_speedup_trees_main_path():
    bench = importlib.import_module("bench_speedup_trees")

    constant = [case for case in bench.CONSTANT_CASES if case[0] in ("trivial", "echo(d=2)")]
    outcomes, report = bench.run_all(constant_cases=constant, hard_cases=[])
    for name, _, expected_rounds in constant:
        result, verified = outcomes[name]
        assert result.status == "constant" and result.constant_rounds == expected_rounds
        assert verified
    so, _ = outcomes["sinkless-orientation"]
    assert so.status == "fixed-point" and so.fixed_point_at == 1
    assert "T-3.11" in report


def test_cache_report_lines_helper():
    from repro.utils import cache as operator_cache

    import conftest as bench_conftest

    operator_cache.record("R", hits=3, misses=1)
    lines = bench_conftest.cache_report_lines(operator_cache)
    joined = "\n".join(lines)
    assert "cache mode:" in joined
    assert "75.0%" in joined
