"""The VOLUME model (Definitions 2.8 and 2.9), executable.

A VOLUME algorithm answers a query at a node ``v`` by *adaptively probing*:
it starts knowing ``v``'s local tuple ``(id, deg, in)`` and may repeatedly
ask for "the node behind port ``p`` of the ``j``-th node I have seen"; its
answer assigns an output label to each of ``v``'s ports.  The probe budget
``T(n)`` — not the explored radius — is the complexity measure; this is
the "seeing far versus seeing wide" distinction of Rosenbaum–Suomela [42],
and the regime where the paper shows the landscape collapses to
``O(1) / Θ(log* n) / …`` (Theorem 4.1).

The oracle counts every probe and enforces the declared budget, so the
benchmark's probe-complexity measurements come from the same accounting
that the correctness tests run under.

:func:`run_volume_algorithm` first offers the algorithm every node at
once (:meth:`VolumeAlgorithm.answer_all`), and each node gets the
outputs and the probe count its own query would report:

* :class:`~repro.volume.algorithms.ComponentCount` walks each connected
  component once, instead of repeating the whole-component walk from
  each node;
* :class:`~repro.volume.algorithms.ChainColeVishkin` runs Cole–Vishkin
  once over all nodes, one list per round, instead of re-simulating it
  over each node's own successor window.

Otherwise — when the hook returns ``None`` or raises —
:meth:`VolumeAlgorithm.answer` runs one :class:`VolumeQuery` per node,
which is also the shared execution's oracle and reports the first error
exactly as a per-node run does.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import AlgorithmError, ProbeError, SimulationError
from repro.graphs.core import Graph, HalfEdgeLabeling


@dataclass(frozen=True)
class NodeTuple:
    """What one probe reveals (Definition 2.8): ``(id, deg, in)``.

    ``inputs[p]`` is the input label on the node's ``p``-th half-edge.
    The tuple deliberately hides the node's index in the underlying graph;
    algorithms may navigate only through ports.
    """

    identifier: int
    degree: int
    inputs: Tuple[Any, ...]


class ProbeOracle:
    """Graph access restricted to Definition 2.9 probes, with counting."""

    def __init__(
        self,
        graph: Graph,
        inputs: Optional[HalfEdgeLabeling],
        ids: Sequence[int],
    ):
        if len(set(ids)) != graph.num_nodes:
            raise SimulationError("identifiers must be distinct, one per node")
        self.graph = graph
        self.inputs = inputs
        self.ids = list(ids)
        self.probe_count = 0
        # Built on first reveal: queries re-reveal the same nodes many
        # times, and a NodeTuple is immutable, so every reveal shares one.
        self._tuples: List[Optional[NodeTuple]] = [None] * graph.num_nodes

    def tuple_of(self, node: int) -> NodeTuple:
        revealed = self._tuples[node]
        if revealed is None:
            degree = self.graph.degree(node)
            revealed = self._tuples[node] = NodeTuple(
                identifier=self.ids[node],
                degree=degree,
                inputs=tuple(
                    self.inputs.get((node, p)) if self.inputs is not None else None
                    for p in range(degree)
                ),
            )
        return revealed

    def probe(self, node: int, port: int) -> int:
        """The graph node behind ``node``'s ``port``; counts one probe."""
        if not 0 <= port < self.graph.degree(node):
            raise ProbeError(f"node {node} has no port {port}")
        self.probe_count += 1
        return self.graph.neighbor(node, port)


class VolumeQuery:
    """One query execution: the per-node view handed to the algorithm.

    ``known[j]`` is the ``j``-th discovered node (``known[0]`` is the
    queried node itself); :meth:`probe` implements the
    ``f_{n,i}: (j, p) ↦ new tuple`` step of Definition 2.9 and enforces
    the probe budget.
    """

    def __init__(self, oracle: ProbeOracle, start: int, budget: int, declared_n: int):
        self._oracle = oracle
        self._known: List[int] = [start]
        self.tuples: List[NodeTuple] = [oracle.tuple_of(start)]
        self.budget = budget
        self.declared_n = declared_n
        self.probes_used = 0

    @property
    def start_tuple(self) -> NodeTuple:
        return self.tuples[0]

    @property
    def known_count(self) -> int:
        return len(self._known)

    def probe(self, j: int, port: int) -> NodeTuple:
        """Reveal the node behind port ``port`` of the ``j``-th known node."""
        if not 0 <= j < len(self._known):
            raise ProbeError(f"no known node with index {j}")
        if self.probes_used >= self.budget:
            raise ProbeError(
                f"probe budget {self.budget} exhausted for this query"
            )
        self.probes_used += 1
        neighbor = self._oracle.probe(self._known[j], port)
        self._known.append(neighbor)
        revealed = self._oracle.tuple_of(neighbor)
        self.tuples.append(revealed)
        return revealed


class VolumeAlgorithm(abc.ABC):
    """A VOLUME algorithm: probe budget plus per-query answer function."""

    name: str = "volume-algorithm"

    @abc.abstractmethod
    def probes(self, n: int) -> int:
        """Declared probe complexity ``T(n)``."""

    @abc.abstractmethod
    def answer(self, query: VolumeQuery) -> Dict[int, Any]:
        """Output labels for the queried node's ports."""

    def answer_all(
        self, oracle: ProbeOracle, budget: int, declared_n: int
    ) -> Optional[Tuple[List[Dict[int, Any]], List[int]]]:
        """Every node's answer from one execution shared by all queries.

        Returns ``(outputs, probes_used)``, both indexed by node: the port
        outputs :meth:`answer` returns at each node and the probes its
        query uses there (``{}`` and ``0`` at isolated nodes, which are
        never queried).  The default ``None`` makes the simulator query
        :meth:`answer` at each node instead; so must an implementation
        whose per-node queries would exceed ``budget``.
        """
        return None


class FunctionalVolumeAlgorithm(VolumeAlgorithm):
    """Definition 2.9, literally: a family of probe functions.

    ``probe_fn(n, i, tuples) -> (j, p)`` plays the role of ``f_{n,i}``
    (which known node to probe next, through which port), and
    ``output_fn(n, tuples) -> {port: label}`` plays ``f_{n,T(n)+1}``.
    ``tuples`` is the history ``(t_{v_0}, …, t_{v_i})`` of revealed
    :class:`NodeTuple` records, exactly as the definition feeds it.

    ``probe_fn`` may return ``None`` to stop early (equivalent to probing
    a dummy and ignoring it; kept explicit for convenience).
    """

    def __init__(self, probes_of_n, probe_fn, output_fn, name="functional-volume"):
        self._probes = probes_of_n
        self.probe_fn = probe_fn
        self.output_fn = output_fn
        self.name = name

    def probes(self, n: int) -> int:
        return self._probes(n)

    def answer(self, query: VolumeQuery) -> Dict[int, Any]:
        n = query.declared_n
        for i in range(1, self.probes(n) + 1):
            step = self.probe_fn(n, i, tuple(query.tuples))
            if step is None:
                break
            j, port = step
            query.probe(j, port)
        return self.output_fn(n, tuple(query.tuples))


@dataclass
class VolumeResult:
    """Outcome of querying every node once."""

    outputs: HalfEdgeLabeling
    max_probes_used: int
    declared_probes: int
    probes_per_node: List[int]

    @property
    def within_declared_budget(self) -> bool:
        return self.max_probes_used <= self.declared_probes


def run_volume_algorithm(
    graph: Graph,
    algorithm: VolumeAlgorithm,
    inputs: Optional[HalfEdgeLabeling] = None,
    ids: Optional[Sequence[int]] = None,
    declared_n: Optional[int] = None,
) -> VolumeResult:
    """Query ``algorithm`` at every node and collect the labeling.

    One shared execution (:meth:`VolumeAlgorithm.answer_all`) answers
    every node when the algorithm offers it; otherwise each node runs its
    own query.  ``declared_n`` supports the Theorem 2.11 fooling;
    identifiers default to ``1 .. n`` (the LCA convention) when not
    supplied.
    """
    n = graph.num_nodes if declared_n is None else declared_n
    if ids is None:
        ids = list(range(1, graph.num_nodes + 1))
    oracle = ProbeOracle(graph, inputs, ids)
    budget = algorithm.probes(n)
    try:
        shared = algorithm.answer_all(oracle, budget, n)
    except Exception:
        # The per-node queries below repeat the same deterministic walks
        # in node order, so they re-raise the first failure exactly as a
        # run without the shared execution would.
        shared = None
    outputs = HalfEdgeLabeling(graph)
    probes_per_node: List[int] = []
    for v in range(graph.num_nodes):
        if graph.degree(v) == 0:
            probes_per_node.append(0)
            continue
        if shared is not None:
            port_outputs = shared[0][v]
            probes_per_node.append(shared[1][v])
        else:
            query = VolumeQuery(oracle, v, budget=budget, declared_n=n)
            port_outputs = algorithm.answer(query)
            probes_per_node.append(query.probes_used)
        if set(port_outputs) != set(range(graph.degree(v))):
            raise AlgorithmError(
                f"{algorithm.name} must label exactly the ports of node {v}"
            )
        for port, label in port_outputs.items():
            outputs[(v, port)] = label
    return VolumeResult(
        outputs=outputs,
        max_probes_used=max(probes_per_node, default=0),
        declared_probes=budget,
        probes_per_node=probes_per_node,
    )
