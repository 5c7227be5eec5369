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
from functools import lru_cache
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ProblemDefinitionError
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.utils.multiset import Multiset, label_sort_key


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

    The result wraps the memoized :func:`_search` answer around the
    caller's own ``problem`` object, so ``algorithm.problem is problem``
    even when a structurally equal problem filled the memo.
    """
    found = _search(problem, _chosen_degrees(problem, degrees))
    if found is None:
        return None
    clique, table = found
    return ZeroRoundAlgorithm(problem, clique, table)


def decide_zero_round(
    problem: NodeEdgeCheckableLCL,
    degrees: Optional[Iterable[int]] = None,
) -> bool:
    """Decision-only form of :func:`find_zero_round_algorithm`.

    What :func:`repro.decidability.fixed_points.find_fixed_point_certificate`
    needs per fixed point; it shares the memoized search, so deciding and
    then extracting the same problem searches once.
    """
    return _search(problem, _chosen_degrees(problem, degrees)) is not None


def _chosen_degrees(
    problem: NodeEdgeCheckableLCL, degrees: Optional[Iterable[int]]
) -> Tuple[int, ...]:
    chosen = tuple(sorted(degrees)) if degrees is not None else problem.degrees()
    if not chosen:
        raise ProblemDefinitionError("problem declares no degrees to cover")
    return chosen


@lru_cache(maxsize=128)
def _search(
    problem: NodeEdgeCheckableLCL, chosen_degrees: Tuple[int, ...]
) -> Optional[Tuple[FrozenSet[Any], Dict[Tuple[Any, ...], Tuple[Any, ...]]]]:
    """The complete maximal-clique search: the first covering clique (largest
    first, then by sorted label keys) and its rule table, or ``None``.

    Memoized per ``(problem, degrees)`` on the problem's structural
    ``__eq__`` / ``__hash__``, like
    :func:`repro.roundelim.canonical._canonical_state`.  That equality
    ignores ``name``, so the memo holds plain values, never a
    :class:`ZeroRoundAlgorithm` bound to whichever problem came first.
    The table is never mutated: :class:`ZeroRoundAlgorithm` copies it.
    """
    cliques = _maximal_cliques(problem)
    cliques.sort(key=lambda c: (-len(c), sorted(map(label_sort_key, c))))
    for clique in cliques:
        table = _cover_with_clique(problem, clique, chosen_degrees)
        if table is not None:
            return clique, table
    return None
