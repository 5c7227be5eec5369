"""Command-line interface: ``lcl-landscape``.

Subcommands:

* ``show <problem>``        — print a catalog problem (or parse a file);
* ``classify <problem>``    — decide its complexity on directed paths and
  cycles (§1.4 trichotomy);
* ``speedup <problem>``     — run the Theorem 3.10/3.11 gap pipeline
  (Question 1.7 semidecision) and, on success, verify the synthesized
  algorithm on random forests;
* ``roundelim <problem>``   — iterate ``f = R̄∘R`` directly, printing the
  alphabet growth (and ``--stats``: cache/parallel engine counters);
* ``certify <problem>``     — run the pipeline and emit a checkable
  certificate for the verdict (``--catalog`` for all built-ins,
  ``--check PATH`` for offline engine-free re-checking,
  ``--replay`` to demand a bit-identical algorithm re-run);
* ``lint [paths]``          — run the determinism/purity static analysis
  (also the standalone ``repro-lint`` script; ``--env`` prints the
  ``REPRO_*`` environment-knob registry, ``--list-rules`` the catalog);
* ``catalog``               — list the built-in problems.

Problems are named like ``mis``, ``coloring:3``, ``sinkless:3``,
``echo:2`` — see ``lcl-landscape catalog`` — or given as ``file:PATH``
in the :mod:`repro.lcl.fmt` text format.

Robustness flags: ``--timeout`` / ``--max-configs`` attach a cooperative
:class:`repro.utils.budget.Budget` (exhaustion yields a structured
``UNKNOWN(>= step k)`` instead of a hang), ``--checkpoint DIR`` puts
the operator cache's disk layer at ``DIR`` (unbounded) so a sequence
walk persists as it runs, ``--resume`` restores a walk's completed steps
from that cache, and the global ``--verbose`` / ``--quiet`` flags
control the ``repro`` logger, which is where budget hits, retries, pool
fallbacks, and resumes are reported.

The measured ``landscape`` panels (``trees`` / ``grids`` / ``volume``)
run as supervised campaigns (:mod:`repro.supervisor`): ``--isolate``
selects whether cells run in a persistent worker process or inline,
``--cell-timeout`` /
``--cell-mem-mb`` / ``--cell-retries`` bound each cell, and
``--journal`` / ``--resume`` persist completed cells to an append-only
checksummed journal and restore them bit-identically after a crash or
``SIGINT`` (every verb exits 130 on interrupt, with all journaled
progress and disk-cached operator results preserved).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, Dict, Optional

from repro.exceptions import ReproError
from repro.lcl import catalog
from repro.lcl.fmt import parse as parse_problem
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.utils.budget import Budget

#: name -> (builder taking one optional int parameter, description)
CATALOG: Dict[str, tuple] = {
    "trivial": (lambda k: catalog.trivial(k or 3), "everything allowed (O(1))"),
    "consensus": (lambda k: catalog.consensus(k or 3), "one common value (O(1))"),
    "input-copy": (lambda k: catalog.input_copy(k or 3), "output your input (O(1))"),
    "echo": (lambda k: catalog.echo(k or 3), "copy the opposite input (1 round)"),
    "echo2": (lambda k: catalog.echo2(), "two-hop echo on paths (2 rounds)"),
    "coloring": (
        lambda k: catalog.coloring(k or 3, max(2, (k or 3) - 1)),
        "proper k-coloring (Theta(log* n) for k = Delta+1)",
    ),
    "mis": (lambda k: catalog.mis(k or 3), "maximal independent set (Theta(log* n))"),
    "matching": (
        lambda k: catalog.maximal_matching(k or 3),
        "maximal matching (Theta(log* n))",
    ),
    "weak-coloring": (
        lambda k: catalog.weak_coloring(2, k or 3),
        "weak 2-coloring",
    ),
    "sinkless": (
        lambda k: catalog.sinkless_orientation(k or 3),
        "sinkless orientation (round-elimination fixed point)",
    ),
    "2-coloring": (lambda k: catalog.two_coloring(k or 2), "proper 2-coloring (Theta(n))"),
}


def configure_logging(verbosity: int) -> None:
    """Map ``-q``/``-v`` counts onto the ``repro`` logger level.

    ``0`` → WARNING (budget hits, fallbacks, corrupt caches are always
    visible), ``1`` → INFO (resumes, evictions),
    ``2+`` → DEBUG; negative (``--quiet``) → ERROR.
    """
    if verbosity < 0:
        level = logging.ERROR
    elif verbosity == 0:
        level = logging.WARNING
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.DEBUG
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    repro_logger = logging.getLogger("repro")
    repro_logger.handlers[:] = [handler]
    repro_logger.setLevel(level)
    repro_logger.propagate = False


def build_budget(args: argparse.Namespace) -> Optional[Budget]:
    """A budget from ``--timeout`` / ``--max-configs``, or ``None``."""
    timeout = getattr(args, "timeout", None)
    max_configs = getattr(args, "max_configs", None)
    if timeout is None and max_configs is None:
        return None
    return Budget(deadline=timeout, max_configs=max_configs)


def resolve_problem(spec: str) -> NodeEdgeCheckableLCL:
    """Parse ``name``, ``name:param`` or ``file:PATH`` into a problem."""
    if spec.startswith("file:"):
        with open(spec[len("file:") :], "r", encoding="utf-8") as handle:
            return parse_problem(handle.read())
    name, _, parameter = spec.partition(":")
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise ReproError(f"unknown problem {name!r}; known: {known}")
    builder, _ = CATALOG[name]
    return builder(int(parameter) if parameter else None)


def use_checkpoint_dir(args: argparse.Namespace) -> None:
    """``--checkpoint DIR``: the operator cache on, with its disk layer at
    ``DIR`` and no byte bound, so every operator result of the walk persists."""
    if args.checkpoint is not None:
        from repro.utils import cache as operator_cache

        operator_cache.configure(
            enabled=True, disk_dir=args.checkpoint, max_disk_bytes=None
        )


def cmd_show(args: argparse.Namespace) -> int:
    problem = resolve_problem(args.problem)
    print(problem.summary())
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    for name, (_, description) in sorted(CATALOG.items()):
        print(f"{name:<14} {description}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from repro.decidability import classify_cycle_problem, classify_path_problem

    problem = resolve_problem(args.problem)
    print(f"problem: {problem.name}")
    print(f"on directed cycles: {classify_cycle_problem(problem)}")
    print(f"on directed paths:  {classify_path_problem(problem)}")
    return 0


def cmd_landscape(args: argparse.Namespace) -> int:
    if args.panel == "re":
        from repro.landscape import classify_constant_time

        problems = [resolve_problem(spec) for spec in ("trivial", "echo", "mis", "sinkless")]
        panel = classify_constant_time(
            problems,
            max_steps=args.max_steps,
            time_limit=args.timeout,
            max_configs=args.max_configs,
        )
        print(panel.render())
        return 0

    # The measured panels run as supervised campaigns: every (series, n)
    # cell is crash-isolated, retried, journaled, and — when it still
    # fails — quarantined into a visible hole instead of aborting the
    # panel.  Measured values are identical to the pre-supervisor CLI.
    from repro.supervisor import CampaignConfig, open_journal, run_campaign
    from repro.supervisor.measurements import assemble_panel, plan_panel

    plan = plan_panel(args.panel, args.points)
    config = CampaignConfig(
        seed=args.campaign_seed,
        timeout=args.cell_timeout,
        mem_mb=args.cell_mem_mb,
        retries=args.cell_retries,
        isolation=args.isolate,
    )
    journal = None
    if args.journal is not None or args.resume:
        journal = open_journal(
            plan.cells, seed=args.campaign_seed, directory=args.journal
        )
    if args.scheduler:
        from repro.scheduler import SchedulerConfig, run_scheduled_campaign

        def live_progress(line: str) -> None:
            # Carriage-return live line on stderr; panel output stays
            # clean on stdout.
            print(f"\r{line}", end="", file=sys.stderr, flush=True)

        progress = live_progress if sys.stderr.isatty() else None
        try:
            report = run_scheduled_campaign(
                plan.cells,
                config,
                scheduler=SchedulerConfig(workers=args.workers),
                journal=journal,
                resume=args.resume,
                progress=progress,
            )
        finally:
            if progress is not None:
                print(file=sys.stderr, flush=True)
        scheduler_stats = report.stats.summary()
    else:
        scheduler_stats = None
        report = run_campaign(
            plan.cells, config, journal=journal, resume=args.resume
        )
    panel = assemble_panel(plan, report)
    print(panel.render())
    if journal is not None or report.quarantined or report.resumed_count:
        print(f"  campaign: {report.summary()}")
    if scheduler_stats is not None:
        print(f"  scheduler: {scheduler_stats}")
    if journal is not None:
        print(f"  journal: {journal.path}")
    return 1 if panel.gap_violations() else 0


def cmd_roundelim(args: argparse.Namespace) -> int:
    import contextlib

    from repro.exceptions import BudgetExceededError, ProblemDefinitionError
    from repro.roundelim import ProblemSequence, find_zero_round_algorithm
    from repro.utils import cache as operator_cache

    if args.no_cache:
        if args.checkpoint is not None:
            raise ReproError(
                "--checkpoint persists the walk in the operator cache; "
                "it cannot be combined with --no-cache"
            )
        operator_cache.configure(enabled=False)
    use_checkpoint_dir(args)
    operator_cache.reset_stats()
    problem = resolve_problem(args.problem)
    sequence = ProblemSequence(
        problem,
        use_domination=not args.no_domination,
        max_universe=args.max_universe,
        use_cache=not args.no_cache,
    )
    print(f"problem: {problem.name}")
    if args.resume:
        restored = sequence.resume()
        print(f"  resumed {restored} completed step(s) from the operator cache")
    budget = build_budget(args)
    fixed_point = None
    with budget if budget is not None else contextlib.nullcontext():
        for k in range(args.steps + 1):
            try:
                current = sequence.problem(k)
            except ProblemDefinitionError as error:
                print(f"  f^{k}: alphabet blow-up ({error})")
                break
            except BudgetExceededError as error:
                print(f"  f^{k}: UNKNOWN(>= step {sequence.completed_steps()})")
                print(f"  budget: {error.diagnostics.as_dict()}")
                break
            zero = find_zero_round_algorithm(current)
            print(
                f"  f^{k}: |sigma_out| = {len(current.sigma_out):<5d} "
                f"0-round solvable: {'yes' if zero is not None else 'no'}"
            )
            if k > 0 and fixed_point is None:
                fixed_point = sequence.find_fixed_point(k)
    if fixed_point is not None:
        print(f"  fixed point (up to relabeling) at step {fixed_point}")
    if args.stats:
        from repro.utils.cache import format_stats

        print(format_stats())
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    from repro.roundelim.gap import speedup, verify_on_random_forests

    use_checkpoint_dir(args)
    problem = resolve_problem(args.problem)
    result = speedup(
        problem,
        max_steps=args.max_steps,
        budget=build_budget(args),
        resume=args.resume,
    )
    print(result.summary())
    if result.status == "constant" and not args.no_verify:
        sizes = (6, 4, 1) if problem.max_degree <= 2 else (7, 5, 3, 1)
        ok = verify_on_random_forests(result, component_sizes=sizes, trials=args.trials)
        print(f"verification on random forests: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from repro.verify import check_certificate

    if args.check is not None:
        # Offline re-check: engine-free, works on any machine with the
        # package installed — no pipeline run involved.
        outcome = check_certificate(args.check)
        print(outcome)
        return 0 if outcome.ok else 1

    from repro.roundelim.gap import speedup

    specs = (
        sorted(CATALOG) if args.catalog else ([args.problem] if args.problem else [])
    )
    if not specs:
        print("error: name a problem, or pass --catalog / --check", file=sys.stderr)
        return 2
    use_checkpoint_dir(args)
    failures = 0
    for spec in specs:
        problem = resolve_problem(spec)
        result = speedup(
            problem,
            max_steps=args.max_steps,
            budget=build_budget(args),
            resume=args.resume,
        )
        certificate = result.certify(trials=args.trials, seed=args.seed)
        outcome = check_certificate(certificate)
        status = "OK" if outcome.ok else "REJECTED"
        print(f"{spec:<14} {result.verdict_label():<22} certificate {status}")
        if not outcome.ok:
            failures += 1
            for error in outcome.errors:
                print(f"    {error}")
        if args.replay and certificate.kind == "constant":
            from repro.verify import replay_certificate

            errors = replay_certificate(certificate)
            print(f"    replay: {'bit-identical' if not errors else 'DIVERGED'}")
            failures += 1 if errors else 0
        if args.out is not None:
            if len(specs) == 1:
                path = certificate.save(args.out)
            else:
                safe = spec.replace(":", "_")
                path = certificate.save(f"{args.out.rstrip('/')}/{safe}.json")
            print(f"    wrote {path}")
    return 1 if failures else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_from_args

    return run_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcl-landscape",
        description=(
            "Executable machinery of 'The Landscape of Distributed "
            "Complexities on Trees and Beyond' (PODC 2022)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase repro logger verbosity (-v: INFO, -vv: DEBUG)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only log errors (suppresses budget/fallback warnings)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget; exhaustion yields UNKNOWN(>= step k)",
        )
        sub.add_argument(
            "--max-configs",
            type=int,
            default=None,
            metavar="N",
            help="budget on enumerated configurations across the walk",
        )

    def add_checkpoint_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--checkpoint",
            default=None,
            metavar="DIR",
            help=(
                "persist the sequence walk: put the operator cache's disk "
                "layer at DIR, with no size bound (default: REPRO_CACHE_DIR)"
            ),
        )
        sub.add_argument(
            "--resume",
            action="store_true",
            help="restore completed steps from the operator cache before walking",
        )

    show = commands.add_parser("show", help="print a problem definition")
    show.add_argument("problem")
    show.set_defaults(handler=cmd_show)

    listing = commands.add_parser("catalog", help="list built-in problems")
    listing.set_defaults(handler=cmd_catalog)

    classify = commands.add_parser(
        "classify", help="decide the complexity on directed paths/cycles"
    )
    classify.add_argument("problem")
    classify.set_defaults(handler=cmd_classify)

    roundelim = commands.add_parser(
        "roundelim",
        help="iterate f = Rbar(R(.)) and report alphabet growth / engine stats",
    )
    roundelim.add_argument("problem")
    roundelim.add_argument("--steps", type=int, default=3)
    roundelim.add_argument("--max-universe", type=int, default=4096)
    roundelim.add_argument(
        "--stats",
        action="store_true",
        help="print cache hit/miss, configurations-tested, and wall-time counters",
    )
    roundelim.add_argument(
        "--no-cache", action="store_true", help="bypass the canonical operator cache"
    )
    roundelim.add_argument(
        "--no-domination",
        action="store_true",
        help="disable dominated-label pruning during hygiene",
    )
    add_budget_flags(roundelim)
    add_checkpoint_flags(roundelim)
    roundelim.set_defaults(handler=cmd_roundelim)

    speedup = commands.add_parser(
        "speedup", help="run the Theorem 3.10/3.11 gap pipeline"
    )
    speedup.add_argument("problem")
    speedup.add_argument("--max-steps", type=int, default=4)
    speedup.add_argument("--trials", type=int, default=3)
    speedup.add_argument("--no-verify", action="store_true")
    add_budget_flags(speedup)
    add_checkpoint_flags(speedup)
    speedup.set_defaults(handler=cmd_speedup)

    certify = commands.add_parser(
        "certify",
        help="run the gap pipeline and emit/check verdict certificates",
        description=(
            "Certify a verdict (constant / fixed-point / unknown) with "
            "machine-checkable evidence, or re-check a saved certificate "
            "offline with the engine-free checker (--check)."
        ),
    )
    certify.add_argument("problem", nargs="?", default=None)
    certify.add_argument(
        "--catalog", action="store_true", help="certify every built-in problem"
    )
    certify.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="re-check a saved certificate instead of producing one",
    )
    certify.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the certificate JSON (a directory when used with --catalog)",
    )
    certify.add_argument(
        "--replay",
        action="store_true",
        help="rebuild the algorithm from the certificate and demand a bit-identical re-run",
    )
    certify.add_argument("--max-steps", type=int, default=4)
    certify.add_argument("--trials", type=int, default=3)
    certify.add_argument("--seed", type=int, default=0)
    add_budget_flags(certify)
    add_checkpoint_flags(certify)
    certify.set_defaults(handler=cmd_certify)

    lint = commands.add_parser(
        "lint",
        help="run the determinism/purity static analysis (repro-lint)",
        description=(
            "Static analysis encoding the pipeline's correctness contract: "
            "seeded randomness, sorted canonical iteration, engine-free "
            "certificate checking, declared REPRO_* knobs, and more — see "
            "docs/STATIC_ANALYSIS.md."
        ),
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(handler=cmd_lint)

    landscape = commands.add_parser(
        "landscape", help="measure a Figure-1 landscape panel"
    )
    landscape.add_argument(
        "panel",
        choices=["trees", "grids", "volume", "re"],
        help="'re': anytime Question-1.7 verdict panel via round elimination",
    )
    landscape.add_argument("--points", type=int, default=5)
    landscape.add_argument("--max-steps", type=int, default=3)
    landscape.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "journal completed cells under DIR (default: REPRO_JOURNAL_DIR) "
            "so an interrupted campaign can --resume"
        ),
    )
    landscape.add_argument(
        "--resume",
        action="store_true",
        help="restore journaled cells bit-identically; only the rest runs",
    )
    landscape.add_argument(
        "--isolate",
        choices=["process", "inline"],
        default="process",
        help="run cells in a supervised worker process (default) or inline",
    )
    landscape.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock cap (default: REPRO_CELL_TIMEOUT)",
    )
    landscape.add_argument(
        "--cell-mem-mb",
        type=int,
        default=None,
        metavar="MB",
        help="per-cell address-space cap (default: REPRO_CELL_MEM_MB)",
    )
    landscape.add_argument(
        "--cell-retries",
        type=int,
        default=None,
        metavar="N",
        help="bounded deterministic retries per cell (default: REPRO_CELL_RETRIES)",
    )
    landscape.add_argument(
        "--campaign-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="campaign seed (names the journal; splits per-cell RNG streams)",
    )
    landscape.add_argument(
        "--scheduler",
        action="store_true",
        help=(
            "run the campaign across concurrent worker processes with "
            "lease-based crash recovery (results and journal are "
            "byte-identical to a serial run)"
        ),
    )
    landscape.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker process count for --scheduler "
            "(default: REPRO_SCHED_WORKERS, else min(cpus, 4))"
        ),
    )
    add_budget_flags(landscape)
    landscape.set_defaults(handler=cmd_landscape)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(-1 if args.quiet else args.verbose)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # Journals are flushed+fsynced per record and disk-cache entries
        # are replaced atomically, so an interrupt loses at most the
        # in-flight cell/operator; the standard 128+SIGINT exit code tells
        # callers the run is resumable.
        sys.stdout.flush()
        print(
            "interrupted: journaled progress is preserved; a walk keeps its "
            "finished operator results only under --checkpoint DIR or "
            "REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        sys.stderr.flush()
        return 130
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
