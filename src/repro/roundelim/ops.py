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

Memoization
-----------
``R``, ``R̄``, and ``simplify`` are pure, deterministic functions of their
input problem and options, so this module wraps each in the canonical
operator cache (:mod:`repro.utils.cache` keyed by
:func:`repro.roundelim.canonical.canonical_hash`): a problem met twice —
even under different output label spellings, even in a different process
when the disk layer is on — is computed once.  Pass ``use_cache=False``
(or set ``REPRO_CACHE=0``) to force recomputation.  The disk layer is
also what persists a sequence walk: :meth:`ProblemSequence.resume
<repro.roundelim.sequence.ProblemSequence.resume>` rebuilds a killed
walk's prefix by lookups alone.

Compiled backend
----------------
When the base alphabet fits one 64-bit word, the quantifier loops and
the domination/equivalence hygiene dispatch to the packed-bitmask
kernels of :mod:`repro.roundelim.bitset` (one completion-table fold per
constraint, at every node degree) instead of the pure-Python paths.  The dispatch is
representation-blind: masks follow the same canonical label order the
oracle sorts by, results are decoded back into the problem's own
alphabet, and budget charges fire identically — so hashes, cache keys,
and certificates do not depend on which backend answered
(``tests/test_bitset_differential.py`` enforces this bit-for-bit).
``REPRO_BITSET=0`` or :func:`configure_bitset` forces the oracle.
Out-of-range inputs fall back automatically and are counted as
``bitset_fallbacks`` in the stats: a base alphabet past 64 labels, an
empty alphabet, and configurations too wide to pack into one 64-bit
word (:class:`repro.roundelim.bitset.BitsetUnsupported`).

Robustness
----------
The quantifier loops poll the ambient cooperative
:class:`repro.utils.budget.Budget` (alphabet, configuration-count, and
wall-clock/RSS limits) once per edge-table row and once per node
combination, so an active budget turns a hopeless operator application
into a structured :class:`~repro.exceptions.BudgetExceededError` instead
of a hang.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
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
from repro.utils import env
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
            for combo in itertools.combinations_with_replacement(universe, degree):
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


def _lookup(
    operator: str, problem: NodeEdgeCheckableLCL, use_cache: bool, **options: Any
) -> Tuple[Optional[Tuple[str, str, str]], Optional[NodeEdgeCheckableLCL]]:
    """Look ``operator(problem, **options)`` up in the operator cache.

    ``operator`` is ``"R"``, ``"Rbar"`` or ``"simplify"``; the cache key
    is ``(operator, canonical_hash(problem), flags)`` with ``flags`` the
    sorted ``name=value`` options.  Returns ``(key, result)``: ``key`` is
    ``None`` when caching is off, ``result`` is ``None`` on a miss.  Never
    computes: a hit is decoded against the *query* problem's canonical
    order (correct even when the entry was stored for an isomorphic
    relabeling), and a decode failure — e.g. a poisoned on-disk entry —
    invalidates the entry and reads as a miss.
    """
    store = operator_cache.get_cache()
    if not (use_cache and store.enabled):
        return None, None
    start = time.perf_counter()
    flags = ";".join(f"{name}={value}" for name, value in sorted(options.items()))
    key = (operator, canonical_hash(problem), flags)
    payload = store.get(key, stat_key=operator)
    if payload is None:
        return key, None
    name = problem.name if operator == "simplify" else f"{operator}({problem.name})"
    try:
        result = decode_result(problem, payload, name=name)
    except Exception:
        store.invalidate(key)
        operator_cache.record(operator, decode_errors=1)
        return key, None
    operator_cache.record(operator, hits=1, wall_time=time.perf_counter() - start)
    return key, result


def _cached_call(
    operator: str,
    problem: NodeEdgeCheckableLCL,
    compute: Callable[[], NodeEdgeCheckableLCL],
    use_cache: bool,
    **options: Any,
) -> NodeEdgeCheckableLCL:
    """Serve ``operator`` from the cache (see :func:`_lookup`), or run
    ``compute`` and store its result."""
    start = time.perf_counter()
    key, result = _lookup(operator, problem, use_cache, **options)
    if result is not None:
        return result
    result = compute()
    if key is None:
        operator_cache.record(
            operator, computes=1, wall_time=time.perf_counter() - start
        )
        return result
    try:
        operator_cache.get_cache().put(key, encode_result(problem, result))
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
        lambda: _power_problem(
            problem,
            node_forall=False,
            name_prefix="R",
            max_universe=max_universe,
            universe_mode=universe_mode,
        ),
        use_cache,
        max_universe=max_universe,
        universe_mode=universe_mode,
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
        lambda: _power_problem(
            problem,
            node_forall=True,
            name_prefix="Rbar",
            max_universe=max_universe,
            universe_mode=universe_mode,
        ),
        use_cache,
        max_universe=max_universe,
        universe_mode=universe_mode,
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
        lambda: _simplify_impl(problem, domination),
        use_cache,
        domination=domination,
    )
