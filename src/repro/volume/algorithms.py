"""VOLUME algorithms populating the Figure-1 probe-complexity panel.

* :class:`NeighborhoodAggregate` — O(1) probes (constant class);
* :class:`ChainColeVishkin` — Θ(log* n) probes: 3-coloring of oriented
  paths by probing a successor chain of length O(log* n) (the "seeing
  far" workload; its *radius* is also Θ(log* n), which is why on general
  graphs only the VOLUME measure collapses the dense region, per §1.2);
* :class:`ComponentCount` — Θ(n) probes (global class).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import AlgorithmError, ProbeError
from repro.local.algorithms.cole_vishkin import PREDECESSOR, SUCCESSOR, palette_schedule
from repro.local.iterative import memoize_per_n
from repro.volume.model import NodeTuple, ProbeOracle, VolumeAlgorithm, VolumeQuery


def _port_with_label(node_tuple: NodeTuple, label: Any) -> Optional[int]:
    for port, value in enumerate(node_tuple.inputs):
        if value == label:
            return port
    return None


def _capped_hops(
    forward: List[Optional[int]], backward: List[Optional[int]], cap: int
) -> List[int]:
    """How far each node can follow ``forward`` before it ends, capped at ``cap``.

    ``backward`` must be the inverse of ``forward``: from each node where
    ``forward`` ends, the walk back along ``backward`` meets the nodes
    0, 1, 2, ... hops from that end.  Nodes on a cycle never reach an end.
    """
    hops = [cap] * len(forward)
    for end, nxt in enumerate(forward):
        if nxt is not None:
            continue
        node: Optional[int] = end
        for distance in range(cap):
            if node is None:
                break
            hops[node] = distance
            node = backward[node]
    return hops


class NeighborhoodAggregate(VolumeAlgorithm):
    """Output the maximum degree among the node and its neighbors.

    Probe complexity Δ = O(1): the paper's archetype of the constant
    class in the VOLUME landscape.
    """

    name = "neighborhood-max-degree"

    def __init__(self, max_degree: int):
        self.max_degree = max_degree

    def probes(self, n: int) -> int:
        return self.max_degree

    def answer(self, query: VolumeQuery) -> Dict[int, Any]:
        best = query.start_tuple.degree
        for port in range(query.start_tuple.degree):
            revealed = query.probe(0, port)
            best = max(best, revealed.degree)
        return {port: best for port in range(query.start_tuple.degree)}


class ChainColeVishkin(VolumeAlgorithm):
    """3-coloring of consistently oriented paths/cycles, Θ(log* n) probes.

    The queried node walks its successor chain for up to ``t + 4`` hops
    (where ``t`` is the CV round count for the ID palette) and its
    predecessor chain for up to 3 hops, against a declared ``t + 7``
    probes, then simulates Cole–Vishkin plus the three retirement rounds
    on the gathered window — the same simulation as
    :class:`repro.local.algorithms.shortcut.ShortcutColeVishkin`, but
    paying one probe per hop instead of one radius unit.  The window's
    colours need only ``t + 3`` successor hops: the last hop is never
    read, but it stays in the walk because every measured probe count
    includes it.

    A run over all nodes takes :meth:`answer_all`: one CV execution
    shared by every query, with each node's window and probe count read
    off the global successor and predecessor maps.
    """

    name = "chain-cole-vishkin"

    def __init__(self, id_exponent: int = 3, label_prefix: str = "c"):
        self.id_exponent = id_exponent
        self.label_prefix = label_prefix

    @memoize_per_n
    def _cv_rounds(self, n: int) -> int:
        return len(palette_schedule(max(2, n**self.id_exponent + 1)))

    def probes(self, n: int) -> int:
        return self._cv_rounds(n) + 4 + 3

    def answer(self, query: VolumeQuery) -> Dict[int, Any]:
        rounds = self._cv_rounds(query.declared_n)
        window: Dict[int, NodeTuple] = {0: query.start_tuple}
        # Walk the successor chain.
        index_of_offset = {0: 0}
        for step in range(rounds + 4):
            current = window.get(step)
            if current is None:
                break
            port = _port_with_label(current, SUCCESSOR)
            if port is None:
                break
            revealed = query.probe(index_of_offset[step], port)
            window[step + 1] = revealed
            index_of_offset[step + 1] = query.known_count - 1
        # Walk the predecessor chain three hops.
        for step in range(0, -3, -1):
            current = window.get(step)
            if current is None:
                break
            port = _port_with_label(current, PREDECESSOR)
            if port is None:
                break
            revealed = query.probe(index_of_offset[step], port)
            window[step - 1] = revealed
            index_of_offset[step - 1] = query.known_count - 1

        memo: Dict[tuple, Optional[int]] = {}

        def color_at(offset: int, t: int) -> Optional[int]:
            key = (offset, t)
            if key in memo:
                return memo[key]
            node = window.get(offset)
            if node is None:
                memo[key] = None
            elif t == 0:
                memo[key] = node.identifier
            else:
                mine = color_at(offset, t - 1)
                memo[key] = (
                    None if mine is None else self._cv_step(mine, color_at(offset + 1, t - 1))
                )
            return memo[key]

        current = {k: color_at(k, rounds) for k in range(-3, 4)}
        for retiring in (5, 4, 3):
            updated = dict(current)
            for k in range(-2, 3):
                if current.get(k) != retiring:
                    continue
                taken = {current.get(k - 1), current.get(k + 1)}
                for candidate in range(3):
                    if candidate not in taken:
                        updated[k] = candidate
                        break
            current = updated
        mine = current[0]
        if mine is None or mine > 5:
            raise AlgorithmError("chain CV failed to color the queried node")
        label = f"{self.label_prefix}{mine}"
        return {port: label for port in range(query.start_tuple.degree)}

    def answer_all(
        self, oracle: ProbeOracle, budget: int, declared_n: int
    ) -> Optional[Tuple[List[Dict[int, Any]], List[int]]]:
        """One Cole–Vishkin execution over every node, shared by all queries.

        Each node's successor and predecessor are read once, from its
        first ``SUCCESSOR`` / ``PREDECESSOR`` port as :meth:`answer` reads
        them.  The CV rounds then run over all nodes, one list per round,
        followed by the three retirement rounds.  When the two maps are
        inverse to each other, the window of :meth:`answer` at ``v`` is
        the chain through ``v`` and every colour it computes for ``v`` is
        the global one, so each node gets its global colour and the probe
        count of its own walk: ``min(t + 4, successor hops) + min(3,
        predecessor hops)``.

        Returns ``None`` — and the per-node queries raise their exact
        first error — when the maps are not inverse (the window would
        then not be the chain), when a subclass overrides :meth:`answer`,
        when a count exceeds ``budget``, or when a queried node's colour
        ends above 5.  An error raised here, such as equal colours across
        an edge, also sends the run to the per-node queries.
        """
        if type(self).answer is not ChainColeVishkin.answer:
            return None
        graph = oracle.graph
        num_nodes = graph.num_nodes
        degrees = [graph.degree(v) for v in range(num_nodes)]
        successor: List[Optional[int]] = [None] * num_nodes
        predecessor: List[Optional[int]] = [None] * num_nodes
        for v in range(num_nodes):
            node = oracle.tuple_of(v)
            port = _port_with_label(node, SUCCESSOR)
            if port is not None:
                successor[v] = graph.neighbor(v, port)
            port = _port_with_label(node, PREDECESSOR)
            if port is not None:
                predecessor[v] = graph.neighbor(v, port)
        for v in range(num_nodes):
            before, after = predecessor[v], successor[v]
            if before is not None and successor[before] != v:
                return None
            if after is not None and predecessor[after] != v:
                return None

        rounds = self._cv_rounds(declared_n)
        successor_hops = _capped_hops(successor, predecessor, rounds + 4)
        predecessor_hops = _capped_hops(predecessor, successor, 3)
        probes_used = [0] * num_nodes
        for v in range(num_nodes):
            if degrees[v]:
                probes_used[v] = successor_hops[v] + predecessor_hops[v]
                if probes_used[v] > budget:
                    return None

        cv_step = self._cv_step
        colors: List[int] = list(oracle.ids)
        for _ in range(rounds):
            colors = [
                cv_step(color, None if after is None else colors[after])
                for color, after in zip(colors, successor)
            ]
        for retiring in (5, 4, 3):
            updated = list(colors)
            for v, color in enumerate(colors):
                if color != retiring:
                    continue
                before, after = predecessor[v], successor[v]
                taken = {
                    None if before is None else colors[before],
                    None if after is None else colors[after],
                }
                updated[v] = min(c for c in range(3) if c not in taken)
            colors = updated

        outputs: List[Dict[int, Any]] = [{} for _ in range(num_nodes)]
        for v, (color, degree) in enumerate(zip(colors, degrees)):
            if not degree:
                continue
            if color > 5:
                return None
            label = f"{self.label_prefix}{color}"
            outputs[v] = {port: label for port in range(degree)}
        return outputs, probes_used

    @staticmethod
    def _cv_step(color: int, successor_color: Optional[int]) -> int:
        if successor_color is None:
            return color & 1
        differing = color ^ successor_color
        if differing == 0:
            raise AlgorithmError("equal colors across a path edge")
        index = (differing & -differing).bit_length() - 1
        return 2 * index + ((color >> index) & 1)


class ComponentCount(VolumeAlgorithm):
    """Output the size of the node's connected component: Θ(n) probes.

    The global end of the VOLUME landscape — a problem whose probe
    complexity provably scales linearly (it must see every node).
    """

    name = "component-count"

    def probes(self, n: int) -> int:
        # The DFS probes every half-edge once: <= 2 * edges <= Δ n; declare
        # a generous linear budget.
        return max(1, 4 * n)

    def answer(self, query: VolumeQuery) -> Dict[int, Any]:
        # DFS from the queried node, probing every port of every node it
        # reaches: the query's probes are the component's degree sum.
        seen_ids = {query.start_tuple.identifier}
        frontier = [(0, query.start_tuple)]
        while frontier:
            index, node = frontier.pop()
            for port in range(node.degree):
                revealed = query.probe(index, port)
                if revealed.identifier not in seen_ids:
                    seen_ids.add(revealed.identifier)
                    frontier.append((query.known_count - 1, revealed))
        size = len(seen_ids)
        return {port: size for port in range(query.start_tuple.degree)}

    def answer_all(
        self, oracle: ProbeOracle, budget: int, declared_n: int
    ) -> Optional[Tuple[List[Dict[int, Any]], List[int]]]:
        """One traversal per connected component, shared by all its nodes.

        :meth:`answer` reaches the same component and probes every port of
        it from any start node, so each node of a component gets its size
        and the component's degree sum as its probe count.  A component
        whose degree sum exceeds ``budget`` — a ``declared_n`` too small
        for the graph — returns ``None``, and the per-node queries raise
        their :class:`~repro.exceptions.ProbeError`.  Subclasses that
        override :meth:`answer` keep the per-node path.
        """
        if type(self).answer is not ComponentCount.answer:
            return None
        graph = oracle.graph
        outputs: List[Dict[int, Any]] = [{} for _ in range(graph.num_nodes)]
        probes_used = [0] * graph.num_nodes
        for component in graph.connected_components():
            degree_sum = sum(graph.degree(v) for v in component)
            if degree_sum > budget:
                return None
            size = len(component)
            for v in component:
                outputs[v] = {port: size for port in range(graph.degree(v))}
                probes_used[v] = degree_sum
        return outputs, probes_used
