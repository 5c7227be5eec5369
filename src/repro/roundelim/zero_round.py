"""Deterministic 0-round algorithms: existence and extraction.

The proof of Theorem 3.10 derives, from a low-failure randomized 0-round
algorithm, a deterministic 0-round algorithm ``A_det``: a function from
*input tuples* (the node's degree plus the input labels on its ports —
all a 0-round node can see besides randomness) to output tuples, such that

1. for every input tuple ``I = (i₁, …, i_k)``, the chosen output tuple
   ``O(I)`` is a node configuration of ``N^k`` with ``O(I)_j ∈ g(i_j)``,
2. for **any** two chosen output labels ``o ∈ O(I)``, ``o' ∈ O(I')``
   (including ``o = o'`` and ``I = I'``), ``{o, o'}`` is an edge
   configuration — because an adversary can place any two input tuples on
   adjacent nodes, meeting through any pair of ports.

Condition 2 says the set of labels ever output must be a *clique with
self-loops* in the edge-compatibility graph; condition 1 says that clique
must *cover* every input tuple.  Both are decidable by finite search, so
this module is a complete decision procedure for deterministic 0-round
solvability of a node-edge-checkable LCL on forests — the base case of the
gap pipeline and, iterated through ``f = R̄∘R``, the paper's semidecision
procedure for Question 1.7.
"""

from __future__ import annotations

import itertools
import logging
from functools import lru_cache
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro import sat
from repro.exceptions import ProblemDefinitionError
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.utils import cache as operator_cache
from repro.utils.multiset import Multiset, label_sort_key

logger = logging.getLogger(__name__)

#: Operator name under which the SAT dispatch records its stats.
_STAT_KEY = "zero_round"


class ZeroRoundAlgorithm:
    """A deterministic 0-round algorithm: input tuple -> output tuple.

    The table is stored per *sorted* input tuple; arbitrary orderings are
    served by permuting (outputs follow their input labels, so ``g`` stays
    satisfied and the output multiset is unchanged).
    """

    def __init__(
        self,
        problem: NodeEdgeCheckableLCL,
        clique: FrozenSet[Any],
        table: Dict[Tuple[Any, ...], Tuple[Any, ...]],
    ):
        self.problem = problem
        self.clique = clique
        self._table = dict(table)

    @property
    def table(self) -> Dict[Tuple[Any, ...], Tuple[Any, ...]]:
        """The full rule table, keyed by sorted input tuple (a copy)."""
        return dict(self._table)

    def outputs_for(self, input_tuple: Sequence[Any]) -> Tuple[Any, ...]:
        """Output labels per port for the given ordered input tuple."""
        ordered = tuple(input_tuple)
        ranking = sorted(range(len(ordered)), key=lambda j: label_sort_key(ordered[j]))
        sorted_inputs = tuple(ordered[j] for j in ranking)
        try:
            sorted_outputs = self._table[sorted_inputs]
        except KeyError:
            raise ProblemDefinitionError(
                f"no 0-round rule for input tuple {ordered!r} (degree {len(ordered)})"
            ) from None
        outputs: List[Any] = [None] * len(ordered)
        for position, port in enumerate(ranking):
            outputs[port] = sorted_outputs[position]
        return tuple(outputs)

    def covered_degrees(self) -> Tuple[int, ...]:
        return tuple(sorted({len(key) for key in self._table}))

    def __repr__(self) -> str:
        return (
            f"ZeroRoundAlgorithm(problem={self.problem.name!r}, "
            f"clique={sorted(self.clique, key=label_sort_key)!r})"
        )


def _self_looped_labels(problem: NodeEdgeCheckableLCL) -> List[Any]:
    return [
        label
        for label in sorted(problem.sigma_out, key=label_sort_key)
        if problem.allows_edge(label, label)
    ]


def _maximal_cliques(problem: NodeEdgeCheckableLCL) -> List[FrozenSet[Any]]:
    """Maximal cliques of the edge-compatibility graph on self-looped labels.

    Bron–Kerbosch with pivoting; alphabets after hygiene are small, so no
    further sophistication is warranted.
    """
    vertices = _self_looped_labels(problem)
    adjacency = {
        v: frozenset(u for u in vertices if u != v and problem.allows_edge(u, v))
        for v in vertices
    }
    cliques: List[FrozenSet[Any]] = []

    def expand(r: set, p: set, x: set) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(adjacency[v] & p))
        for v in sorted(p - adjacency[pivot], key=label_sort_key):
            expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    if vertices:
        expand(set(), set(vertices), set())
    return cliques


def _cover_with_clique(
    problem: NodeEdgeCheckableLCL,
    clique: FrozenSet[Any],
    degrees: Sequence[int],
) -> Optional[Dict[Tuple[Any, ...], Tuple[Any, ...]]]:
    """Try to build the A_det table using only labels from ``clique``."""
    inputs_sorted = sorted(problem.sigma_in, key=label_sort_key)
    table: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
    for degree in degrees:
        allowed_configurations = problem.node_constraints.get(degree)
        if not allowed_configurations:
            return None
        for input_tuple in itertools.combinations_with_replacement(inputs_sorted, degree):
            choice = _choose_outputs(problem, clique, input_tuple, allowed_configurations)
            if choice is None:
                return None
            table[input_tuple] = choice
    return table


def _choose_outputs(
    problem: NodeEdgeCheckableLCL,
    clique: FrozenSet[Any],
    input_tuple: Tuple[Any, ...],
    allowed_configurations: FrozenSet[Multiset],
) -> Optional[Tuple[Any, ...]]:
    """Backtracking: one output per port, multiset in N, g respected."""
    candidates = [
        sorted(problem.allowed_outputs(i) & clique, key=label_sort_key)
        for i in input_tuple
    ]
    chosen: List[Any] = []

    def recurse(index: int) -> bool:
        if index == len(candidates):
            return Multiset(chosen) in allowed_configurations
        for label in candidates[index]:
            chosen.append(label)
            if recurse(index + 1):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if recurse(0) else None


def find_zero_round_algorithm(
    problem: NodeEdgeCheckableLCL,
    degrees: Optional[Iterable[int]] = None,
) -> Optional[ZeroRoundAlgorithm]:
    """Find a deterministic 0-round algorithm, or prove none exists.

    ``degrees`` is the set of node degrees the graph class may contain;
    it defaults to all degrees the problem declares (``1 .. Δ``, which is
    the right choice for the classes ``T`` / ``F`` of the paper).  The
    search over maximal cliques is complete: the labels used by any
    0-round algorithm form a self-looped clique (see module docstring) and
    are therefore contained in some maximal clique.

    Dispatch: under ``REPRO_SAT`` (default on) the existence question and
    the per-clique cover tests are answered by the CNF engine of
    :mod:`repro.sat`, with the winning table still *built* (and thereby
    re-validated) by the enumeration code below — so the result object is
    bit-identical to the pure enumeration path, which any
    :class:`~repro.sat.SatError` falls back to automatically (counted as
    ``sat_fallbacks``).
    """
    chosen_degrees = tuple(sorted(degrees)) if degrees is not None else problem.degrees()
    if not chosen_degrees:
        raise ProblemDefinitionError("problem declares no degrees to cover")
    if sat.sat_enabled():
        try:
            return _find_with_sat(problem, chosen_degrees)
        except sat.SatError as error:
            logger.info("SAT path declined %s (%s); enumerating", problem.name, error)
            operator_cache.record(_STAT_KEY, sat_fallbacks=1)
    return _find_by_enumeration(problem, chosen_degrees)


@lru_cache(maxsize=128)
def _sat_encoding(
    problem: NodeEdgeCheckableLCL, chosen_degrees: Tuple[int, ...]
) -> Tuple[sat.ZeroRoundEncoder, Tuple[FrozenSet[Any], ...]]:
    """A problem's :class:`~repro.sat.ZeroRoundEncoder` and its maximal
    cliques (in search order), built once per ``(problem, degrees)``.

    Keyed like :func:`repro.roundelim.canonical._canonical_state`, on the
    problem's structural ``__eq__`` / ``__hash__``, so equal problems share
    one encoder (and its label objects, exactly as the canonical memo
    shares its order).  Sharing is safe: an encoder is read-only after
    ``__init__`` and every solver copies its formula.  A
    :class:`~repro.sat.SatUnsupported` shape is not memoized and raises
    again on the next call.
    """
    encoder = sat.ZeroRoundEncoder(problem, chosen_degrees)
    return encoder, tuple(encoder.maximal_cliques())


def _find_by_enumeration(
    problem: NodeEdgeCheckableLCL, chosen_degrees: Tuple[int, ...]
) -> Optional[ZeroRoundAlgorithm]:
    """The complete maximal-clique search (the differential oracle)."""
    cliques = _maximal_cliques(problem)
    cliques.sort(key=lambda c: (-len(c), sorted(map(label_sort_key, c))))
    for clique in cliques:
        table = _cover_with_clique(problem, clique, chosen_degrees)
        if table is not None:
            return ZeroRoundAlgorithm(problem, clique, table)
    return None


def _find_with_sat(
    problem: NodeEdgeCheckableLCL, chosen_degrees: Tuple[int, ...]
) -> Optional[ZeroRoundAlgorithm]:
    """SAT-backed search, pinned to the enumeration path's choices.

    One loaded formula, queried incrementally: per maximal clique (in the
    enumeration path's clique order) the assumptions exclude every other
    selector, so the solver answers "does *this* clique cover every
    tuple?".  Inside a clique all selectors are mutually compatible, so
    each query resolves by unit propagation alone — no search — which is
    what makes this robustly faster than a single global solve.  The
    search over maximal cliques stays complete for the same reason the
    enumeration's is: any covering clique extends to a maximal one, and
    covering is monotone in the clique.

    A SAT answer is never trusted: the model is validated by
    :meth:`~repro.sat.ZeroRoundEncoder.decode_clique` and the actual rule
    table is built by :func:`_cover_with_clique` — enumeration code — so
    the result object is byte-identical and a lying model can only cause
    a :class:`~repro.sat.SatDecodeError` fallback, never a wrong result.
    """
    encoder, cliques = _sat_encoding(problem, chosen_degrees)
    with sat.SatSolver(
        encoder.formula, decision_order=encoder.decision_order()
    ) as solver:
        for clique in cliques:
            model = solver.solve(encoder.assumptions_excluding(clique))
            if model is None:
                continue
            encoder.decode_clique(model)  # validation only; raises on any lie
            table = _cover_with_clique(problem, clique, chosen_degrees)
            if table is None:
                raise sat.SatDecodeError(
                    f"SAT cover claim for clique "
                    f"{sorted(clique, key=label_sort_key)!r} is not "
                    f"reproducible by enumeration"
                )
            operator_cache.record(_STAT_KEY, sat_steps=1)
            return ZeroRoundAlgorithm(problem, clique, table)
    operator_cache.record(_STAT_KEY, sat_steps=1)
    return None


def decide_zero_round(
    problem: NodeEdgeCheckableLCL,
    degrees: Optional[Iterable[int]] = None,
) -> bool:
    """Decision-only form of :func:`find_zero_round_algorithm`.

    Answers *whether* a deterministic 0-round algorithm exists without
    extracting the rule table — per-clique incremental assumption
    queries, stopping at the first satisfiable one, which is what
    :func:`repro.decidability.fixed_points.find_fixed_point_certificate`
    needs per fixed point.  Falls back to the full enumeration search on
    any :class:`~repro.sat.SatError`.
    """
    chosen_degrees = tuple(sorted(degrees)) if degrees is not None else problem.degrees()
    if not chosen_degrees:
        raise ProblemDefinitionError("problem declares no degrees to cover")
    if sat.sat_enabled():
        try:
            encoder, cliques = _sat_encoding(problem, chosen_degrees)
            with sat.SatSolver(
                encoder.formula, decision_order=encoder.decision_order()
            ) as solver:
                for clique in cliques:
                    model = solver.solve(encoder.assumptions_excluding(clique))
                    if model is None:
                        continue
                    encoder.decode_clique(model)
                    operator_cache.record(_STAT_KEY, sat_steps=1)
                    return True
            operator_cache.record(_STAT_KEY, sat_steps=1)
            return False
        except sat.SatError as error:
            logger.info("SAT path declined %s (%s); enumerating", problem.name, error)
            operator_cache.record(_STAT_KEY, sat_fallbacks=1)
    return _find_by_enumeration(problem, chosen_degrees) is not None
