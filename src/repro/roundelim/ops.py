"""The round elimination operators R (Def. 3.1) and R̄ (Def. 3.2).

Both operators send a node-edge-checkable problem ``Π`` to a problem whose
output alphabet is the power set of ``Σ_out^Π``; they differ only in which
side gets the universal quantifier:

* ``R(Π)``  — an edge configuration ``{B₁, B₂}`` is allowed iff **all**
  selections ``(b₁, b₂) ∈ B₁ × B₂`` are in ``E_Π``; a node configuration
  ``{A₁, …, A_i}`` is allowed iff **some** selection is in ``N_Π^i``.
* ``R̄(Π)`` — dually: **all** selections at nodes, **some** at edges.

``g`` maps each input label to the power set of its old allowed set in
both cases, and input alphabets never change.

The composition ``f = R̄ ∘ R`` is the one-round-speedup step of §3.1.

Label hygiene
-------------
Iterating ``f`` squares the alphabet twice per step, so this module also
provides three *solvability-preserving* reductions:

* :func:`restrict_to_usable` — drop labels that appear in no node
  configuration, no edge configuration, or no ``g`` image (such labels can
  never occur in any correct solution on graphs with minimum degree 1);
* :func:`merge_equivalent_labels` — identify labels with identical roles
  in every constraint (solutions map onto representatives);
* :func:`remove_dominated_labels` — drop label ``x`` when some ``y`` is
  allowed everywhere ``x`` is (the round-eliminator's "non-maximal label"
  pruning).  The paper deliberately does **not** apply this inside its
  proof (see the remark after Def. 3.1); it is safe for the executable
  pipeline because it preserves solvability in both directions, and it is
  what keeps the iterated alphabets tractable.

Each reduction returns a problem whose solutions are solutions of the
original (soundness for the Lemma 3.9 lifting) and onto which solutions of
the original project (completeness for the semidecision procedure).

Memoization and parallelism
---------------------------
``R``, ``R̄``, and ``simplify`` are pure, deterministic functions of their
input problem and options, so this module wraps each in the canonical
operator cache (:mod:`repro.utils.cache` keyed by
:func:`repro.roundelim.canonical.canonical_hash`): a problem met twice —
even under different output label spellings, even in a different process
when the disk layer is on — is computed once.  Pass ``use_cache=False``
(or set ``REPRO_CACHE=0``) to force recomputation.

The quantifier loops of the power-set construction (the exponential part)
additionally chunk across a ``concurrent.futures`` process pool when the
work is large enough: ``REPRO_WORKERS`` sets the worker count (``1``
forces serial; unset uses the CPU count, capped), and
``REPRO_PARALLEL_THRESHOLD`` the minimal number of candidate
configurations before a pool is spun up — below it, or when a pool
cannot be created, the loops run serially with identical semantics
(including the early exits inside each selection check).

Compiled backend
----------------
When the output universe fits one 64-bit word, the quantifier loops and
the domination/equivalence hygiene dispatch to the packed-bitmask
kernels of :mod:`repro.roundelim.bitset` (numpy ``uint64`` folds over
pair/triple tables) instead of the pure-Python paths.  The dispatch is
representation-blind: masks follow the same canonical label order the
oracle sorts by, results are decoded back into the problem's own
alphabet, and budget charges fire identically — so hashes, cache keys,
and certificates do not depend on which backend answered
(``tests/test_bitset_differential.py`` enforces this bit-for-bit).
``REPRO_BITSET=0`` or :func:`configure_bitset` forces the oracle;
out-of-range inputs (alphabets past 64 labels; node degrees ≥ 4, which
only the power-problem kernels decline — universe box enumeration is
compiled at every degree) fall back automatically and are counted as
``bitset_fallbacks`` in the stats.

Robustness
----------
The pool execution is *hardened* (see :func:`_run_chunks`): chunks have
a per-chunk timeout (``REPRO_CHUNK_TIMEOUT``), failed chunks are retried
with exponential backoff (``REPRO_CHUNK_RETRIES`` rounds), dead workers
and broken pools are detected and the pool rebuilt, and chunks that
still fail are re-executed serially in-process — so a worker crash can
delay a result but never change it or lose it.  Every degradation is
loud: logged through :mod:`logging` and counted in the per-operator
stats (``pool_fallbacks``, ``chunk_retries``, ``chunk_timeouts``,
``chunk_failures``, ``serial_rescues``).

The quantifier loops also poll the ambient cooperative
:class:`repro.utils.budget.Budget` (alphabet, configuration-count, and
wall-clock/RSS limits), so an active budget turns a hopeless operator
application into a structured
:class:`~repro.exceptions.BudgetExceededError` instead of a hang, and
the :mod:`repro.utils.faults` harness can inject deterministic worker
crashes/exits and slow chunks for chaos testing.
"""

from __future__ import annotations

import itertools
import logging
import math
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.exceptions import ProblemDefinitionError
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.roundelim.canonical import (
    UnencodableLabelError,
    canonical_hash,
    decode_result,
    encode_result,
)
from repro.utils import budget as budget_scope
from repro.utils import cache as operator_cache
from repro.utils import env, faults
from repro.utils.multiset import Multiset, label_sort_key

logger = logging.getLogger(__name__)

#: Per-universe memo for :func:`_nonempty_subsets` (the full power set is a
#: pure function of the label set, but used to be rebuilt on every call).
_NONEMPTY_SUBSETS_CACHE: Dict[FrozenSet[Any], List[FrozenSet[Any]]] = {}
_NONEMPTY_SUBSETS_CACHE_MAX = 32
#: Observable counters for the memoization regression test.
_nonempty_subsets_stats: Dict[str, int] = {"calls": 0, "builds": 0}


def _nonempty_subsets(labels: Iterable[Any]) -> List[FrozenSet[Any]]:
    key = frozenset(labels)
    _nonempty_subsets_stats["calls"] += 1
    cached = _NONEMPTY_SUBSETS_CACHE.get(key)
    if cached is None:
        _nonempty_subsets_stats["builds"] += 1
        ordered = sorted(key, key=label_sort_key)
        cached = []
        for size in range(1, len(ordered) + 1):
            for combo in itertools.combinations(ordered, size):
                cached.append(frozenset(combo))
        if len(_NONEMPTY_SUBSETS_CACHE) >= _NONEMPTY_SUBSETS_CACHE_MAX:
            _NONEMPTY_SUBSETS_CACHE.clear()
        _NONEMPTY_SUBSETS_CACHE[key] = cached
    # Callers may hold the list across engine reconfigurations; hand out a
    # fresh copy so the memo entry itself can never be mutated.
    return list(cached)


def _some_selection_in(
    sets: Tuple[FrozenSet[Any], ...], allowed: FrozenSet[Multiset]
) -> bool:
    """Does some choice of one element per set form an allowed multiset?

    Backtracking with prefix pruning against the sub-multiset closure of
    ``allowed`` would be possible, but the alphabets after hygiene are
    small enough that plain recursion with an early sort (smallest sets
    first) suffices.
    """
    order = sorted(sets, key=len)

    def recurse(index: int, chosen: List[Any]) -> bool:
        if index == len(order):
            return Multiset(chosen) in allowed
        for candidate in order[index]:
            chosen.append(candidate)
            if recurse(index + 1, chosen):
                return True
            chosen.pop()
        return False

    return recurse(0, [])


def _all_selections_in(
    sets: Tuple[FrozenSet[Any], ...], allowed: FrozenSet[Multiset]
) -> bool:
    """Is *every* choice of one element per set an allowed multiset?"""
    for chosen in itertools.product(*sets):
        if Multiset(chosen) not in allowed:
            return False
    return True


# ------------------------------------------------------------ bitset backend
_ENV_BITSET = "REPRO_BITSET"

#: Lazily resolved :mod:`repro.roundelim.bitset` module; ``False`` when the
#: import failed (numpy-less environment), ``None`` before the first probe.
_bitset_module: Any = None

#: Programmatic override for the ``REPRO_BITSET`` knob (``None`` = env).
_bitset_overrides: Dict[str, Optional[bool]] = {"enabled": None}


def configure_bitset(enabled: Optional[bool] = None) -> None:
    """Override the ``REPRO_BITSET`` knob for this process.

    ``True`` forces the compiled bitset kernels, ``False`` forces the
    pure-Python oracle, ``None`` clears the override (falling back to the
    environment knob, default on).  Unsupported problem shapes always fall
    back to the oracle regardless of this setting.
    """
    _bitset_overrides["enabled"] = enabled


def _bitset_enabled() -> bool:
    override = _bitset_overrides["enabled"]
    if override is not None:
        return bool(override)
    return env.get_bool(_ENV_BITSET)


def _bitset_backend() -> Any:
    """The compiled backend module when enabled and importable, else ``None``."""
    global _bitset_module
    if not _bitset_enabled():
        return None
    if _bitset_module is None:
        try:
            from repro.roundelim import bitset as module
        except ImportError:  # pragma: no cover - numpy-less environments
            module = False
            logger.info("bitset backend unavailable (numpy missing); using oracle")
        _bitset_module = module
    return _bitset_module or None


# ----------------------------------------------------------- parallel kernel
_ENV_WORKERS = "REPRO_WORKERS"
_ENV_THRESHOLD = "REPRO_PARALLEL_THRESHOLD"
_ENV_CHUNK_TIMEOUT = "REPRO_CHUNK_TIMEOUT"
_ENV_CHUNK_RETRIES = "REPRO_CHUNK_RETRIES"
_DEFAULT_THRESHOLD = 20_000
_MAX_DEFAULT_WORKERS = 8
_DEFAULT_CHUNK_TIMEOUT = 300.0
_DEFAULT_CHUNK_RETRIES = 2
#: First-retry backoff in seconds (doubles per attempt).
_BACKOFF_BASE = 0.05

#: Programmatic overrides (take precedence over the environment).
_parallel_overrides: Dict[str, Optional[float]] = {
    "workers": None,
    "threshold": None,
    "chunk_timeout": None,
    "chunk_retries": None,
}


def configure_parallel(
    workers: Optional[int] = None,
    threshold: Optional[int] = None,
    chunk_timeout: Optional[float] = None,
    chunk_retries: Optional[int] = None,
) -> None:
    """Override the pool knobs for this process.

    ``None`` clears an override (falling back to ``REPRO_WORKERS`` /
    ``REPRO_PARALLEL_THRESHOLD`` / ``REPRO_CHUNK_TIMEOUT`` /
    ``REPRO_CHUNK_RETRIES``, then to the defaults).  ``chunk_timeout`` is
    the per-chunk wall-clock limit in seconds before the chunk is
    retried (and the suspect pool recycled); ``chunk_retries`` bounds the
    pool-level retry rounds before failed chunks are re-executed
    serially in-process.
    """
    _parallel_overrides["workers"] = workers
    _parallel_overrides["threshold"] = threshold
    _parallel_overrides["chunk_timeout"] = chunk_timeout
    _parallel_overrides["chunk_retries"] = chunk_retries


def _effective(name: str, knob: str, default, cast, floor=None):
    override = _parallel_overrides[name]
    if override is not None:
        value = cast(override)
        return value if floor is None else max(floor, value)
    raw = env.get_raw(knob)
    if raw:
        try:
            value = cast(raw)
            return value if floor is None else max(floor, value)
        except ValueError:
            pass
    return default


def _effective_workers() -> int:
    default = min(os.cpu_count() or 1, _MAX_DEFAULT_WORKERS)
    return _effective("workers", _ENV_WORKERS, default, int, floor=1)


def _effective_threshold() -> int:
    return _effective("threshold", _ENV_THRESHOLD, _DEFAULT_THRESHOLD, int, floor=1)


def _effective_chunk_timeout() -> float:
    return _effective(
        "chunk_timeout", _ENV_CHUNK_TIMEOUT, _DEFAULT_CHUNK_TIMEOUT, float, floor=0.001
    )


def _effective_chunk_retries() -> int:
    return _effective(
        "chunk_retries", _ENV_CHUNK_RETRIES, _DEFAULT_CHUNK_RETRIES, int, floor=0
    )


# Worker-process state, installed once per pool via the initializer so the
# (potentially large) constraint tables are pickled once, not per chunk.
_worker_state: Dict[str, Any] = {}


def _node_chunk(
    combos: List[Tuple[FrozenSet[Any], ...]],
    allowed: FrozenSet[Multiset],
    node_forall: bool,
) -> List[Tuple[FrozenSet[Any], ...]]:
    """Pure node-constraint filter shared by workers and serial rescue."""
    check = _all_selections_in if node_forall else _some_selection_in
    return [combo for combo in combos if check(combo, allowed)]


def _edge_chunk(
    row_range: Tuple[int, int],
    universe: List[FrozenSet[Any]],
    summaries: Dict[FrozenSet[Any], frozenset],
    node_forall: bool,
) -> List[Tuple[int, int]]:
    """Pure edge-constraint filter shared by workers and serial rescue."""
    pairs: List[Tuple[int, int]] = []
    for i in range(row_range[0], row_range[1]):
        summary = summaries[universe[i]]
        for j in range(i, len(universe)):
            second = universe[j]
            if node_forall:
                allowed = bool(summary & second)
            else:
                allowed = second <= summary
            if allowed:
                pairs.append((i, j))
    return pairs


def _init_node_worker(allowed: FrozenSet[Multiset], node_forall: bool) -> None:
    # Pool-initializer idiom: these writes happen *inside the child*, after
    # the fork/spawn, to set up worker-local state for _node_chunk_worker —
    # the parent's copy is never touched, which is the point.
    _worker_state["allowed"] = allowed  # repro-lint: disable=REP011 -- child-side init
    _worker_state["node_forall"] = node_forall  # repro-lint: disable=REP011 -- child-side init


def _node_chunk_worker(
    combos: List[Tuple[FrozenSet[Any], ...]]
) -> List[Tuple[FrozenSet[Any], ...]]:
    faults.maybe_exit()
    faults.maybe_crash()
    faults.maybe_sleep()
    return _node_chunk(combos, _worker_state["allowed"], _worker_state["node_forall"])


def _init_edge_worker(
    universe: List[FrozenSet[Any]],
    summaries: Dict[FrozenSet[Any], frozenset],
    node_forall: bool,
) -> None:
    # Pool-initializer idiom: child-side worker-local state (see
    # _init_node_worker above).
    _worker_state["universe"] = universe  # repro-lint: disable=REP011 -- child-side init
    _worker_state["summaries"] = summaries  # repro-lint: disable=REP011 -- child-side init
    _worker_state["node_forall"] = node_forall  # repro-lint: disable=REP011 -- child-side init


def _edge_chunk_worker(row_range: Tuple[int, int]) -> List[Tuple[int, int]]:
    faults.maybe_exit()
    faults.maybe_crash()
    faults.maybe_sleep()
    return _edge_chunk(
        row_range,
        _worker_state["universe"],
        _worker_state["summaries"],
        _worker_state["node_forall"],
    )


def _make_pool(workers: int, initializer, initargs) -> ProcessPoolExecutor:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=initializer,
        initargs=initargs,
    )


def _try_make_pool(
    workers: int, initializer, initargs, stat_key: str
) -> Optional[ProcessPoolExecutor]:
    """Create a pool, or loudly account the fallback and return ``None``."""
    try:
        return _make_pool(workers, initializer, initargs)
    except (OSError, RuntimeError) as error:
        operator_cache.record(stat_key, pool_fallbacks=1)
        logger.warning(
            "%s: process pool unavailable (%s); executing serially", stat_key, error
        )
        return None


def _chunked(items: List[Any], chunks: int) -> List[List[Any]]:
    size = max(1, math.ceil(len(items) / max(1, chunks)))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _wait_timeout(chunk_timeout: float) -> float:
    """Per-future wait: the chunk timeout, shortened so an ambient budget
    deadline is noticed promptly rather than after a full chunk wait."""
    budget = budget_scope.active_budget()
    if budget is not None:
        remaining = budget.remaining_time()
        if remaining is not None:
            return min(chunk_timeout, remaining + 0.05)
    return chunk_timeout


def _run_chunks(
    chunks: List[Any],
    worker_fn: Callable[[Any], Any],
    serial_fn: Callable[[Any], Any],
    initializer: Callable,
    initargs: Tuple,
    workers: int,
    stat_key: str,
) -> List[Any]:
    """Execute ``chunks`` on a hardened process pool, preserving order.

    Failure semantics (all loud — logged and counted in the operator
    stats, never silent):

    * pool cannot be created → ``pool_fallbacks`` + full serial run;
    * a chunk raises in a worker → ``chunk_failures``, chunk is retried
      (``chunk_retries`` rounds with exponential backoff);
    * a chunk exceeds the per-chunk timeout → ``chunk_timeouts``; the
      pool is presumed wedged, recycled, and the chunk retried;
    * a dead worker breaks the pool (``BrokenProcessPool``), whether
      while chunks are being submitted or while they are awaited →
      ``chunk_failures``; the pool is rebuilt and the chunks retried;
    * chunks still failing after all retries → ``serial_rescues`` + exact
      in-process re-execution of only those chunks.

    The result is therefore always the same list the serial engine would
    produce; an ambient :class:`~repro.utils.budget.Budget` deadline is
    still honored between chunk waits.
    """
    results: List[Any] = [None] * len(chunks)
    pending = list(range(len(chunks)))
    chunk_timeout = _effective_chunk_timeout()
    max_retries = _effective_chunk_retries()
    pool = _try_make_pool(workers, initializer, initargs, stat_key)
    had_pool = pool is not None
    attempt = 0
    try:
        while pool is not None and pending:
            futures: Dict[int, Any] = {}
            failed: List[int] = []
            broken = False
            for position, index in enumerate(pending):
                try:
                    futures[index] = pool.submit(worker_fn, chunks[index])
                except BrokenExecutor as error:
                    # A worker died while chunks were still being handed
                    # out: same recovery as a break observed while waiting.
                    operator_cache.record(stat_key, chunk_failures=1)
                    logger.warning(
                        "%s: worker pool broke submitting chunk %d (%s); rebuilding",
                        stat_key,
                        index,
                        error,
                    )
                    failed.extend(pending[position:])
                    broken = True
                    break
            for index, future in futures.items():
                if broken:
                    # The pool is suspect: harvest already-finished chunks
                    # without waiting, re-run the rest.
                    try:
                        results[index] = future.result(timeout=0)
                    except Exception:
                        failed.append(index)
                    continue
                try:
                    results[index] = future.result(timeout=_wait_timeout(chunk_timeout))
                except FutureTimeoutError:
                    budget_scope.check()  # distinguish budget deadline from chunk hang
                    operator_cache.record(stat_key, chunk_timeouts=1)
                    logger.warning(
                        "%s: chunk %d exceeded %.3fs timeout; recycling pool",
                        stat_key,
                        index,
                        chunk_timeout,
                    )
                    failed.append(index)
                    broken = True
                except BrokenExecutor as error:
                    operator_cache.record(stat_key, chunk_failures=1)
                    logger.warning(
                        "%s: worker pool broke on chunk %d (%s); rebuilding",
                        stat_key,
                        index,
                        error,
                    )
                    failed.append(index)
                    broken = True
                except Exception as error:
                    operator_cache.record(stat_key, chunk_failures=1)
                    logger.warning(
                        "%s: chunk %d failed in worker (%s)", stat_key, index, error
                    )
                    failed.append(index)
                budget_scope.check()
            pending = sorted(failed)
            if broken:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            if not pending:
                break
            if attempt >= max_retries:
                break
            attempt += 1
            operator_cache.record(stat_key, chunk_retries=len(pending))
            logger.warning(
                "%s: retrying %d chunk(s), attempt %d/%d",
                stat_key,
                len(pending),
                attempt,
                max_retries,
            )
            time.sleep(_BACKOFF_BASE * (2 ** (attempt - 1)))
            if pool is None:
                pool = _try_make_pool(workers, initializer, initargs, stat_key)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    if pending:
        if had_pool:
            operator_cache.record(stat_key, serial_rescues=len(pending))
            logger.warning(
                "%s: re-executing %d failed chunk(s) serially in-process",
                stat_key,
                len(pending),
            )
        for index in pending:
            results[index] = serial_fn(chunks[index])
    return results


def _power_problem(
    problem: NodeEdgeCheckableLCL,
    node_forall: bool,
    name_prefix: str,
    max_universe: int,
    universe_mode: str,
) -> NodeEdgeCheckableLCL:
    from repro.roundelim.universe import (
        closed_universe,
        edge_partners,
        reduced_universe,
    )

    if universe_mode == "full":
        universe = _nonempty_subsets(problem.sigma_out)
        if len(universe) > max_universe:
            raise ProblemDefinitionError(
                f"power-set alphabet of {problem.name} has {len(universe)} labels "
                f"(> max_universe={max_universe}); use the reduced universe or raise the limit"
            )
    elif universe_mode == "reduced":
        if node_forall:
            universe = reduced_universe(problem, max_universe)
        else:
            universe = closed_universe(problem, max_universe)
    else:
        raise ProblemDefinitionError(f"unknown universe_mode: {universe_mode!r}")

    backend = _bitset_backend()
    if backend is not None:
        try:
            return backend.power_problem(problem, universe, node_forall, name_prefix)
        except backend.BitsetUnsupported as why:
            # Raised before any budget/stats mutation, so the oracle path
            # below starts from a clean slate.
            operator_cache.record(name_prefix, bitset_fallbacks=1)
            logger.debug(
                "%s(%s): bitset backend declined (%s); using oracle",
                name_prefix,
                problem.name,
                why,
            )

    workers = _effective_workers()
    threshold = _effective_threshold()
    configurations_tested = 0
    budget_scope.note_alphabet(len(universe))
    budget_scope.check()

    # --- edge constraint via partner-set algebra --------------------------
    partners = edge_partners(problem)
    summaries: Dict[Any, frozenset] = {}
    for subset in universe:
        partner_sets = [partners[b] for b in subset]
        if node_forall:
            # R̄: exists-at-edges — only the union of partners matters.
            summaries[subset] = frozenset().union(*partner_sets)
        else:
            # R: forall-at-edges — only the intersection matters.
            summaries[subset] = frozenset.intersection(*partner_sets)
    pair_count = len(universe) * (len(universe) + 1) // 2
    configurations_tested += pair_count
    budget_scope.charge(pair_count)
    if workers > 1 and pair_count >= threshold:
        row_ranges = [
            (chunk[0], chunk[-1] + 1)
            for chunk in _chunked(list(range(len(universe))), 4 * workers)
        ]
        chunk_results = _run_chunks(
            row_ranges,
            _edge_chunk_worker,
            lambda row_range: _edge_chunk(row_range, universe, summaries, node_forall),
            _init_edge_worker,
            (universe, summaries, node_forall),
            workers,
            name_prefix,
        )
        edge_configurations = [
            Multiset((universe[i], universe[j]))
            for chunk in chunk_results
            for i, j in chunk
        ]
    else:
        edge_configurations = []
        for i, first in enumerate(universe):
            budget_scope.tick(len(universe) - i)
            for second in universe[i:]:
                if node_forall:
                    allowed = bool(summaries[first] & second)
                else:
                    allowed = second <= summaries[first]
                if allowed:
                    edge_configurations.append(Multiset((first, second)))

    # --- node constraint ---------------------------------------------------
    node_check: Callable = _all_selections_in if node_forall else _some_selection_in
    node_constraints: Dict[int, List[Multiset]] = {}
    for degree, allowed in problem.node_constraints.items():
        configurations: List[Multiset] = []
        if allowed:
            combo_count = math.comb(len(universe) + degree - 1, degree)
            configurations_tested += combo_count
            budget_scope.charge(combo_count)
            if workers > 1 and combo_count >= threshold:
                combos = list(
                    itertools.combinations_with_replacement(universe, degree)
                )
                chunk_results = _run_chunks(
                    _chunked(combos, 4 * workers),
                    _node_chunk_worker,
                    lambda chunk, allowed=allowed: _node_chunk(
                        chunk, allowed, node_forall
                    ),
                    _init_node_worker,
                    (allowed, node_forall),
                    workers,
                    name_prefix,
                )
                configurations = [
                    Multiset(combo) for chunk in chunk_results for combo in chunk
                ]
            else:
                for combo in itertools.combinations_with_replacement(
                    universe, degree
                ):
                    budget_scope.tick()
                    if node_check(combo, allowed):
                        configurations.append(Multiset(combo))
        node_constraints[degree] = configurations
    operator_cache.record(name_prefix, configurations_tested=configurations_tested)

    g = {
        input_label: frozenset(
            subset for subset in universe if subset <= problem.allowed_outputs(input_label)
        )
        for input_label in problem.sigma_in
    }
    return NodeEdgeCheckableLCL(
        sigma_in=problem.sigma_in,
        sigma_out=universe,
        node_constraints=node_constraints,
        edge_constraint=edge_configurations,
        g=g,
        name=f"{name_prefix}({problem.name})",
    )


def _cached_call(
    operator: str,
    problem: NodeEdgeCheckableLCL,
    flags: str,
    compute: Callable[[], NodeEdgeCheckableLCL],
    result_name: str,
    use_cache: bool,
) -> NodeEdgeCheckableLCL:
    """Run ``compute`` through the canonical operator cache.

    Safe by construction: a hit is decoded against the *query* problem's
    canonical order (correct even when the entry was stored for an
    isomorphic relabeling), and any decode failure — e.g. a poisoned
    on-disk entry — invalidates the entry and falls back to computing.
    """
    start = time.perf_counter()
    store = operator_cache.get_cache()
    if not (use_cache and store.enabled):
        result = compute()
        operator_cache.record(
            operator, computes=1, wall_time=time.perf_counter() - start
        )
        return result
    key = (operator, canonical_hash(problem), flags)
    payload = store.get(key, stat_key=operator)
    if payload is not None:
        try:
            result = decode_result(problem, payload, name=result_name)
        except Exception:
            store.invalidate(key)
            operator_cache.record(operator, decode_errors=1)
        else:
            operator_cache.record(
                operator, hits=1, wall_time=time.perf_counter() - start
            )
            return result
    result = compute()
    try:
        store.put(key, encode_result(problem, result))
        operator_cache.record(operator, stores=1)
    except UnencodableLabelError:
        pass  # exotic label types: recompute next time
    operator_cache.record(
        operator, misses=1, computes=1, wall_time=time.perf_counter() - start
    )
    return result


def R(
    problem: NodeEdgeCheckableLCL,
    max_universe: int = 4096,
    universe_mode: str = "reduced",
    use_cache: bool = True,
) -> NodeEdgeCheckableLCL:
    """Definition 3.1: exists-at-nodes, forall-at-edges power problem.

    ``universe_mode="full"`` materializes every non-empty subset of
    ``Σ_out`` — the paper's literal alphabet minus the empty set, which
    can never appear in any correct solution (it belongs to no node
    configuration because it admits no selection).  The default
    ``"reduced"`` restricts to domination-closed labels (see
    :mod:`repro.roundelim.universe`), which is solvability-equivalent and
    what keeps iterated sequences tractable.

    Results are memoized by canonical problem hash (see the module
    docstring); ``use_cache=False`` bypasses both lookup and store.
    """
    return _cached_call(
        "R",
        problem,
        f"max_universe={max_universe};universe_mode={universe_mode}",
        lambda: _power_problem(
            problem,
            node_forall=False,
            name_prefix="R",
            max_universe=max_universe,
            universe_mode=universe_mode,
        ),
        result_name=f"R({problem.name})",
        use_cache=use_cache,
    )


def R_bar(
    problem: NodeEdgeCheckableLCL,
    max_universe: int = 4096,
    universe_mode: str = "reduced",
    use_cache: bool = True,
) -> NodeEdgeCheckableLCL:
    """Definition 3.2: forall-at-nodes, exists-at-edges power problem.

    See :func:`R` for the ``universe_mode`` semantics and caching; the
    reduced universe for ``R̄`` consists of the partner-antichain
    ("reduced") set labels.
    """
    return _cached_call(
        "Rbar",
        problem,
        f"max_universe={max_universe};universe_mode={universe_mode}",
        lambda: _power_problem(
            problem,
            node_forall=True,
            name_prefix="Rbar",
            max_universe=max_universe,
            universe_mode=universe_mode,
        ),
        result_name=f"Rbar({problem.name})",
        use_cache=use_cache,
    )


# --------------------------------------------------------------- label hygiene
def restrict_to_usable(problem: NodeEdgeCheckableLCL) -> NodeEdgeCheckableLCL:
    """Iteratively drop output labels that cannot occur in any solution.

    A label used on a half-edge of a correct solution necessarily appears
    in the node configuration of its node, the edge configuration of its
    edge, and in ``g`` of its input label; labels missing from any of the
    three are dead.  Removal can create new dead labels, so iterate to a
    fixed point.
    """
    current = problem
    while True:
        usable = current.used_output_labels()
        if usable == current.sigma_out:
            return current
        if not usable:
            # Keep one label so the problem object stays well-formed; all
            # of its constraint sets become empty (the problem is
            # unsolvable on any graph with an edge).
            keep = min(current.sigma_out, key=label_sort_key)
            return current.restrict_outputs([keep])
        current = current.restrict_outputs(usable)


def merge_equivalent_labels(problem: NodeEdgeCheckableLCL) -> NodeEdgeCheckableLCL:
    """Collapse pairs of mutually substitutable labels, to a fixed point.

    Two labels are *equivalent* when each may replace the other in every
    configuration (mutual domination, see :func:`_dominates`).  The label
    with the larger canonical sort key is dropped.  Any solution of the
    original maps to one of the merged problem by substituting the
    representative, and solutions of the merged problem are verbatim
    solutions of the original, so solvability (and 0-round solvability) is
    preserved in both directions.
    """
    current = problem
    while True:
        labels = sorted(current.sigma_out, key=label_sort_key)
        dropped = None
        matrix = _try_domination_matrix(current, labels)
        if matrix is not None:
            backend = _bitset_backend()
            dropped = backend.equivalent_drop(matrix, labels)
        else:
            for i, keep in enumerate(labels):
                for other in labels[i + 1 :]:
                    if _dominates(current, keep, other) and _dominates(
                        current, other, keep
                    ):
                        dropped = other
                        break
                if dropped is not None:
                    break
        if dropped is None:
            return current
        current = current.restrict_outputs(
            [label for label in current.sigma_out if label != dropped]
        )


def _try_domination_matrix(problem: NodeEdgeCheckableLCL, labels: List[Any]):
    """All-pairs domination matrix from the bitset backend, or ``None``.

    ``None`` (backend off, unavailable, or shape unsupported) sends the
    caller down the oracle's pairwise ``_dominates`` scan; the matrix path
    reproduces that scan's drop decisions exactly (see
    :func:`repro.roundelim.bitset.domination_matrix`).
    """
    backend = _bitset_backend()
    if backend is None:
        return None
    try:
        return backend.domination_matrix(problem, labels)
    except backend.BitsetUnsupported:
        operator_cache.record("simplify", bitset_fallbacks=1)
        return None


def _dominates(problem: NodeEdgeCheckableLCL, strong: Any, weak: Any) -> bool:
    """May every occurrence of ``weak`` be replaced by ``strong``?"""
    budget_scope.tick()
    for input_label in problem.sigma_in:
        allowed = problem.g[input_label]
        if weak in allowed and strong not in allowed:
            return False
    for configuration in problem.edge_constraint:
        if weak in configuration:
            if configuration.remove_one(weak).add(strong) not in problem.edge_constraint:
                return False
    for degree, configurations in problem.node_constraints.items():
        for configuration in configurations:
            if weak in configuration:
                replaced = configuration.remove_one(weak).add(strong)
                if replaced not in configurations:
                    return False
    return True


def remove_dominated_labels(problem: NodeEdgeCheckableLCL) -> NodeEdgeCheckableLCL:
    """Drop labels that are dominated by another label, to a fixed point.

    If ``strong`` dominates ``weak``, substituting ``strong`` for ``weak``
    turns any solution into another solution, so removing ``weak``
    preserves solvability in both directions.  Mutual domination is broken
    canonically (the smaller sort key survives) so the operation is
    deterministic.

    Note: the paper's proof keeps non-maximal labels (remark after
    Def. 3.1); use this only in the executable pipeline, where both
    directions of solvability are all that matters.
    """
    current = problem
    while True:
        labels = sorted(current.sigma_out, key=label_sort_key)
        dropped = None
        matrix = _try_domination_matrix(current, labels)
        if matrix is not None:
            backend = _bitset_backend()
            dropped = backend.dominated_drop(matrix, labels)
        else:
            for weak in reversed(labels):
                for strong in labels:
                    if strong == weak:
                        continue
                    if _dominates(current, strong, weak):
                        # For mutual domination keep the canonical (smaller)
                        # label.
                        if _dominates(current, weak, strong) and label_sort_key(
                            strong
                        ) > label_sort_key(weak):
                            continue
                        dropped = weak
                        break
                if dropped is not None:
                    break
        if dropped is None:
            return current
        current = current.restrict_outputs(
            [label for label in current.sigma_out if label != dropped]
        )


def _simplify_impl(
    problem: NodeEdgeCheckableLCL, domination: bool
) -> NodeEdgeCheckableLCL:
    current = problem
    while True:
        budget_scope.check()
        reduced = restrict_to_usable(current)
        reduced = merge_equivalent_labels(reduced)
        if domination:
            reduced = remove_dominated_labels(reduced)
        if reduced.sigma_out == current.sigma_out:
            return reduced
        current = reduced


def simplify(
    problem: NodeEdgeCheckableLCL,
    domination: bool = False,
    use_cache: bool = True,
) -> NodeEdgeCheckableLCL:
    """Run the hygiene passes to a joint fixed point.

    ``domination=True`` additionally removes dominated labels (see
    :func:`remove_dominated_labels` for the fidelity caveat).  Results
    are memoized like :func:`R` / :func:`R_bar`; ``use_cache=False``
    bypasses the cache.
    """
    return _cached_call(
        "simplify",
        problem,
        f"domination={domination}",
        lambda: _simplify_impl(problem, domination),
        result_name=problem.name,
        use_cache=use_cache,
    )
