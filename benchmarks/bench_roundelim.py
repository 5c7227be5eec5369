"""Experiment RE-fixedpoint: round elimination as a lower-bound tool.

Times the R / R̄ operators across the catalog, tracks the alphabet sizes
along ``f^k`` (the §3.2 growth remark, tamed by label hygiene), and
regenerates the classic certificate: sinkless orientation is a fixed
point of ``f`` that is not 0-round solvable, hence not o(log* n).

The experiment runs twice — a cold pass and a warm pass over the same
problems — so the report also shows what the canonical operator cache
buys: the warm pass must reproduce the cold outputs exactly while
(cache enabled) hitting on every operator application.  ``--no-cache``
reruns everything through the raw kernels.
"""

import json
import time

import pytest
from conftest import RESULTS_DIR, cache_report_lines, write_report

from repro.decidability import find_fixed_point_certificate
from repro.lcl import catalog
from repro.roundelim.canonical import canonical_hash
from repro.roundelim.ops import R, R_bar, configure_bitset, simplify
from repro.roundelim.sequence import ProblemSequence

PROBLEMS = [
    ("trivial", lambda: catalog.trivial(3)),
    ("consensus", lambda: catalog.consensus(3)),
    ("sinkless-orientation", lambda: catalog.sinkless_orientation(3)),
    ("echo", lambda: catalog.echo(2)),
    ("echo2", lambda: catalog.echo2()),
    ("mis", lambda: catalog.mis(3)),
    ("3-coloring", lambda: catalog.coloring(3, 2)),
]


def run_experiment(problems=PROBLEMS, use_cache=True):
    lines = ["RE-fixedpoint: operator sizes and fixed-point certificates", ""]
    lines.append(f"  {'problem':<22} {'|out|':>5} {'|R|':>5} {'|f|':>5}  sequence")
    sizes = {}
    for name, build in problems:
        problem = build()
        sequence = ProblemSequence(problem, use_domination=True, use_cache=use_cache)
        try:
            r_size = len(sequence.intermediate(0).sigma_out)
            f_size = len(sequence.problem(1).sigma_out)
            growth = sequence.alphabet_sizes(1)
        except Exception as error:  # alphabet blow-up is an expected outcome
            r_size = f_size = -1
            growth = [len(problem.sigma_out), "blown-up"]
        sizes[name] = (len(problem.sigma_out), r_size, f_size)
        lines.append(
            f"  {name:<22} {len(problem.sigma_out):>5} {r_size:>5} {f_size:>5}  {growth}"
        )

    lines.append("")
    certificate = find_fixed_point_certificate(catalog.sinkless_orientation(3))
    lines.append("  " + certificate.summary())
    return sizes, certificate, "\n".join(lines)


def test_roundelim_sizes_and_certificate(once, roundelim_cache):
    use_cache = roundelim_cache.get_cache().enabled

    cold_start = time.perf_counter()
    sizes, certificate, report = once(run_experiment, use_cache=use_cache)
    cold_seconds = time.perf_counter() - cold_start

    warm_start = time.perf_counter()
    warm_sizes, warm_certificate, _ = run_experiment(use_cache=use_cache)
    warm_seconds = time.perf_counter() - warm_start

    # The cache must be invisible in the outputs...
    assert warm_sizes == sizes
    assert warm_certificate.certifies_lower_bound == certificate.certifies_lower_bound
    if use_cache:
        # ...while actually being used (and paying off) on the warm pass.
        assert roundelim_cache.hit_rate() > 0
        computes = {
            op: c["computes"]
            for op, c in roundelim_cache.stats()["operators"].items()
        }
        assert any(computes.values()), "cold pass should have executed kernels"

    report += "\n" + "\n".join(cache_report_lines(roundelim_cache))
    report += (
        f"\n  cold pass: {cold_seconds:.3f}s  warm pass: {warm_seconds:.3f}s"
    )
    write_report("roundelim", report)

    # Hygiene keeps the constant-class and fixed-point sequences tiny.
    assert sizes["sinkless-orientation"][2] == 2
    assert sizes["echo"][2] <= 4
    # The Θ(log* n) problems genuinely grow under f.
    assert sizes["3-coloring"][2] > sizes["3-coloring"][0]
    # The classic lower-bound certificate.
    assert certificate is not None and certificate.certifies_lower_bound


def test_warm_cache_speedup(roundelim_cache):
    """Warm ``f``-walks hit the cache on every operator application."""
    if not roundelim_cache.get_cache().enabled:
        pytest.skip("--no-cache")
    problem = catalog.mis(3)
    ProblemSequence(problem, use_domination=True).problem(1)
    before = {
        op: c["computes"] for op, c in roundelim_cache.stats()["operators"].items()
    }
    ProblemSequence(problem, use_domination=True).problem(1)
    after = {
        op: c["computes"] for op, c in roundelim_cache.stats()["operators"].items()
    }
    assert after == before, "warm walk recomputed an operator"
    assert roundelim_cache.hit_rate() > 0


@pytest.mark.parametrize(
    "name, build",
    [(n, b) for n, b in PROBLEMS if n in ("sinkless-orientation", "echo", "mis")],
)
def test_kernel_R_operator(benchmark, roundelim_cache, name, build):
    problem = build()
    use_cache = roundelim_cache.get_cache().enabled
    result = benchmark(lambda: R(problem, use_cache=use_cache))
    assert result.sigma_out


# --------------------------------------------------------- backend comparison
# Problems for the bitset-vs-oracle timing rows: ``steps`` walks the
# ``f``-sequence first, so the timed operator runs on the (much larger)
# derived alphabet where the compiled kernels matter.  The 3-coloring
# step problem is the headline case: ≥10 labels, and the oracle spends
# seconds in ``label_sort_key`` recursion that the bitset path never
# touches.
#: ``kernel="f"`` times the full f-step; ``"R"`` stops after R + simplify
#: (the 3-coloring step problem's R̄ universe legitimately exceeds the
#: default cap, so only the forward operator is comparable there).
BACKEND_PROBLEMS = [
    ("5-edge-coloring", lambda: catalog.edge_coloring(5, 2), 0, "f"),
    ("3-coloring f^1", lambda: catalog.coloring(3, 2), 1, "R"),
]

BITSET_TRAJECTORY = "BENCH_bitset.json"


def run_backend_experiment(problems=BACKEND_PROBLEMS, repetitions=1):
    """Time ``R`` + ``simplify`` under both backends on each problem.

    Returns the result rows and the report text.  Outputs are asserted
    identical (the differential contract) before any timing is trusted,
    so a row can never report a speedup for a kernel that changed the
    answer.  Timings are best-of-``repetitions`` to shed scheduler noise.
    """
    rows = []
    lines = ["RE-bitset: compiled backend vs pure-Python oracle", ""]
    lines.append(
        f"  {'problem':<18} {'labels':>6} {'oracle':>9} {'bitset':>9} {'speedup':>8}"
    )
    # Warm-up: the compiled backend lazily imports its numpy kernels on
    # first use — pay that once outside the timed regions.
    configure_bitset(enabled=True)
    R(catalog.trivial(2), use_cache=False)
    for name, build, steps, kernel in problems:
        base = build()
        problem = (
            ProblemSequence(base, use_cache=False).problem(steps) if steps else base
        )
        timings = {}
        outputs = {}
        for backend in ("oracle", "bitset"):
            configure_bitset(enabled=backend == "bitset")
            best = float("inf")
            for _ in range(repetitions):
                started = time.perf_counter()
                r = R(problem, use_cache=False)
                result = simplify(r, domination=True, use_cache=False)
                if kernel == "f":
                    rbar = R_bar(result, use_cache=False)
                    result = simplify(rbar, domination=True, use_cache=False)
                best = min(best, time.perf_counter() - started)
            timings[backend] = best
            outputs[backend] = (r, result, canonical_hash(result))
        configure_bitset(enabled=None)
        assert outputs["bitset"] == outputs["oracle"], (
            f"{name}: backends disagree — timings are meaningless"
        )
        speedup = timings["oracle"] / timings["bitset"]
        rows.append(
            {
                "problem": name,
                "labels": len(problem.sigma_out),
                "oracle_seconds": round(timings["oracle"], 6),
                "bitset_seconds": round(timings["bitset"], 6),
                "speedup": round(speedup, 2),
            }
        )
        lines.append(
            f"  {name:<18} {len(problem.sigma_out):>6} "
            f"{timings['oracle']:>8.3f}s {timings['bitset']:>8.3f}s "
            f"{speedup:>7.1f}x"
        )
    return rows, "\n".join(lines)


def append_bitset_trajectory(rows, results_dir=None):
    """Append one entry to the ``BENCH_bitset.json`` speedup trajectory."""
    directory = results_dir or RESULTS_DIR
    directory.mkdir(exist_ok=True)
    target = directory / BITSET_TRAJECTORY
    trajectory = []
    if target.exists():
        trajectory = json.loads(target.read_text(encoding="utf-8"))
    trajectory.append(
        {
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "rows": rows,
        }
    )
    target.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    return target


def test_bitset_backend_speedup(once, roundelim_cache):
    rows, report = once(run_backend_experiment)
    write_report("roundelim_bitset", report)
    append_bitset_trajectory(rows)

    by_name = {row["problem"]: row for row in rows}
    # The compiled path must win everywhere it claims support...
    for row in rows:
        assert row["speedup"] > 1.0, f"{row['problem']}: bitset slower than oracle"
    # ...and by ≥5x on the headline catalog walk with a ≥10-label alphabet.
    headline = by_name["3-coloring f^1"]
    assert headline["labels"] >= 10
    assert headline["speedup"] >= 5.0, f"headline speedup regressed: {headline}"


def test_kernel_full_f_step(benchmark, roundelim_cache):
    problem = catalog.sinkless_orientation(3)
    use_cache = roundelim_cache.get_cache().enabled
    benchmark(
        lambda: simplify(
            R_bar(R(problem, use_cache=use_cache), use_cache=use_cache),
            domination=True,
            use_cache=use_cache,
        )
    )
