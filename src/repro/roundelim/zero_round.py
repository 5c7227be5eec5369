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

Covering one input tuple is a depth-first search over its ports, each
trying the ``g``-allowed clique labels in :func:`label_sort_key` order.
The search is pruned: it extends a partial choice only while the chosen
multiset is a sub-multiset of some allowed configuration inside the
clique, so it never walks a branch no configuration completes.  Pruning
keeps the visiting order, so the first choice found, and with it every
``(clique, table)``, is the one the exhaustive product would find.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import ProblemDefinitionError
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.utils.multiset import Multiset, label_sort_key


class ZeroRoundAlgorithm:
    """A deterministic 0-round algorithm: input tuple -> output tuple.

    The table is stored per *sorted* input tuple; arbitrary orderings are
    served by permuting (outputs follow their input labels, so ``g`` stays
    satisfied and the output multiset is unchanged).  Each ordering's
    answer is memoized on the instance, so a node's ports are ranked by
    :func:`label_sort_key` once per distinct ordered input tuple.
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
        self._outputs: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}

    @property
    def table(self) -> Dict[Tuple[Any, ...], Tuple[Any, ...]]:
        """The full rule table, keyed by sorted input tuple (a copy)."""
        return dict(self._table)

    def outputs_for(self, input_tuple: Sequence[Any]) -> Tuple[Any, ...]:
        """Output labels per port for the given ordered input tuple."""
        ordered = tuple(input_tuple)
        memoized = self._outputs.get(ordered)
        if memoized is not None:
            return memoized
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
        memoized = self._outputs[ordered] = tuple(outputs)
        return memoized

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
    indexes: _ConfigurationIndexes,
) -> Optional[Dict[Tuple[Any, ...], Tuple[Any, ...]]]:
    """Try to build the A_det table using only labels from ``clique``."""
    inputs_sorted = sorted(problem.sigma_in, key=label_sort_key)
    ordered = sorted(clique, key=label_sort_key)
    candidates_of: Dict[Any, List[Any]] = {}
    for i in inputs_sorted:
        allowed = problem.allowed_outputs(i)
        candidates_of[i] = [label for label in ordered if label in allowed]
    # A multiset of clique labels is keyed by the sum of its labels'
    # weights: distinct powers of a base above every count, so the key is
    # order-free and no two multisets share one.
    base = max(degrees, default=0) + 1
    weights = {label: base**position for position, label in enumerate(ordered)}
    table: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
    for degree in degrees:
        allowed_configurations = problem.node_constraints.get(degree)
        if not allowed_configurations:
            return None
        partials = _partial_configurations(clique, weights, indexes.of(degree))
        for input_tuple in itertools.combinations_with_replacement(inputs_sorted, degree):
            candidates = [candidates_of[i] for i in input_tuple]
            choice = _choose_outputs(candidates, weights, partials)
            if choice is None:
                return None
            table[input_tuple] = choice
    return table


class _ConfigurationIndexes:
    """Per degree, the problem's allowed configurations filed by label,
    built on first use and shared by every clique of one search.

    A configuration is filed under one of its labels: the one in the
    fewest maximal cliques, ties to the first in canonical order.  It
    lies inside a clique only if that label does, so a clique needs only
    the buckets of its own labels, and a configuration using a label
    that is in no clique is never visited.
    """

    def __init__(self, problem: NodeEdgeCheckableLCL, cliques: Sequence[FrozenSet[Any]]):
        self._problem = problem
        self._memberships = Counter(label for clique in cliques for label in clique)
        self._by_degree: Dict[int, Dict[Any, List[Multiset]]] = {}

    def of(self, degree: int) -> Dict[Any, List[Multiset]]:
        index = self._by_degree.get(degree)
        if index is None:
            index = self._by_degree[degree] = {}
            memberships = self._memberships
            for configuration in self._problem.node_constraints[degree]:
                label = min(configuration.items, key=memberships.__getitem__)
                index.setdefault(label, []).append(configuration)
        return index


def _partial_configurations(
    clique: FrozenSet[Any],
    weights: Dict[Any, int],
    by_label: Dict[Any, List[Multiset]],
) -> Set[int]:
    """The keys of every non-empty sub-multiset of an allowed configuration
    whose labels all lie in ``clique``, visiting only the configurations
    ``by_label`` files under a clique label (see
    :class:`_ConfigurationIndexes`).

    All configurations of one degree have the same size, so the keys of
    that full size are exactly those of the allowed configurations inside
    ``clique``.
    """
    partials: Set[int] = set()
    for filed in clique:
        for configuration in by_label.get(filed, ()):
            items = configuration.items
            if not clique.issuperset(items):
                continue
            sums = {0}
            for label in items:
                weight = weights[label]
                sums |= {total + weight for total in sums}
            partials |= sums
    partials.discard(0)
    return partials


def _choose_outputs(
    candidates: List[List[Any]],
    weights: Dict[Any, int],
    partial_configurations: Set[int],
) -> Optional[Tuple[Any, ...]]:
    """Pruned depth-first search: one output per port, multiset in N, g respected.

    ``candidates[j]`` lists port ``j``'s outputs (``g`` of its input,
    inside the clique) by :func:`label_sort_key`; ports are filled in
    order.  A label extends the partial choice only while the running
    multiset's key is in ``partial_configurations`` (see
    :func:`_partial_configurations`), so every full-length choice reached
    is an allowed configuration.  The search visits choices in the order
    of the exhaustive product of the candidate lists and cuts only
    branches no allowed configuration completes, so the first choice it
    finds is the product's first allowed one.
    """
    chosen: List[Any] = []

    def recurse(index: int, key: int) -> bool:
        if index == len(candidates):
            return True
        for label in candidates[index]:
            extended = key + weights[label]
            if extended in partial_configurations:
                chosen.append(label)
                if recurse(index + 1, extended):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if recurse(0, 0) else None


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
    indexes = _ConfigurationIndexes(problem, cliques)
    for clique in cliques:
        table = _cover_with_clique(problem, clique, chosen_degrees, indexes)
        if table is not None:
            return clique, table
    return None
