"""The LCA model: VOLUME plus far probes and ``1..n`` identifiers.

An LCA (local computation algorithm [2, 44]) differs from a VOLUME
algorithm in two ways (§2.2):

1. it may *far-probe*: ask for the node with a given identifier directly,
   without navigating ports — possible because IDs are ``1 .. n``;
2. it may rely on that exact ID range.

Theorem 2.12 (Göös et al. [30]) says far probes do not help below
``o(√log n)``; together with the ID-range padding argument of §2.2, a
VOLUME speedup transfers to LCAs.  We implement the model (so probe
counts of LCAs are measurable) and the *constructive* ID-range reduction;
the far-probe elimination itself is an existence theorem whose executable
content is exactly "run the VOLUME algorithm and ignore far probes",
which :func:`far_probe_free_equivalent` makes precise for algorithms
declaring their far-probe usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.exceptions import AlgorithmError, ProbeError, SimulationError
from repro.graphs.core import Graph, HalfEdgeLabeling
from repro.volume.model import NodeTuple, ProbeOracle, VolumeAlgorithm, VolumeQuery


class LCAOracle(ProbeOracle):
    """A probe oracle that additionally answers far probes by identifier.

    Requires the LCA convention: identifiers are exactly ``1 .. n``.
    """

    def __init__(self, graph: Graph, inputs: Optional[HalfEdgeLabeling], ids: Sequence[int]):
        super().__init__(graph, inputs, ids)
        if sorted(ids) != list(range(1, graph.num_nodes + 1)):
            raise SimulationError("the LCA model requires identifiers 1..n")
        self._node_of_id = {identifier: v for v, identifier in enumerate(ids)}
        self.far_probe_count = 0

    def far_probe(self, identifier: int) -> int:
        """The node with the given identifier; counts one far probe."""
        if identifier not in self._node_of_id:
            raise ProbeError(f"no node with identifier {identifier}")
        self.far_probe_count += 1
        self.probe_count += 1
        return self._node_of_id[identifier]


class LCAQuery(VolumeQuery):
    """A query that can also far-probe (the revealed node becomes known)."""

    def far_probe(self, identifier: int) -> NodeTuple:
        if self.probes_used >= self.budget:
            raise ProbeError(f"probe budget {self.budget} exhausted for this query")
        self.probes_used += 1
        oracle: LCAOracle = self._oracle  # type: ignore[assignment]
        node = oracle.far_probe(identifier)
        self._known.append(node)
        revealed = oracle.tuple_of(node)
        self.tuples.append(revealed)
        return revealed


def run_lca_algorithm(
    graph: Graph,
    algorithm: VolumeAlgorithm,
    inputs: Optional[HalfEdgeLabeling] = None,
) -> "LCAResult":
    """Query an algorithm at every node under the LCA conventions.

    Like :func:`~repro.volume.model.run_volume_algorithm`, it rejects an
    answer that does not label exactly the queried node's ports.
    """
    ids = list(range(1, graph.num_nodes + 1))
    oracle = LCAOracle(graph, inputs, ids)
    budget = algorithm.probes(graph.num_nodes)
    outputs = HalfEdgeLabeling(graph)
    probes_per_node = []
    for v in range(graph.num_nodes):
        if graph.degree(v) == 0:
            probes_per_node.append(0)
            continue
        query = LCAQuery(oracle, v, budget=budget, declared_n=graph.num_nodes)
        port_outputs = algorithm.answer(query)
        probes_per_node.append(query.probes_used)
        if set(port_outputs) != set(range(graph.degree(v))):
            raise AlgorithmError(
                f"{algorithm.name} must label exactly the ports of node {v}"
            )
        for port, label in port_outputs.items():
            outputs[(v, port)] = label
    return LCAResult(
        outputs=outputs,
        max_probes_used=max(probes_per_node, default=0),
        far_probes_used=oracle.far_probe_count,
    )


@dataclass
class LCAResult:
    outputs: HalfEdgeLabeling
    max_probes_used: int
    far_probes_used: int


class _RangePaddedAlgorithm(VolumeAlgorithm):
    """§2.2's reduction: tolerate IDs from ``[1, n^k]`` via ``T(n^k)``."""

    def __init__(self, inner: VolumeAlgorithm, exponent: int):
        self.inner = inner
        self.exponent = exponent
        self.name = f"range-padded[{inner.name}, k={exponent}]"

    def probes(self, n: int) -> int:
        return self.inner.probes(n**self.exponent)

    def answer(self, query: VolumeQuery) -> Dict[int, Any]:
        query.declared_n = query.declared_n**self.exponent
        return self.inner.answer(query)


def far_probe_free_equivalent(
    algorithm: VolumeAlgorithm, id_exponent: int = 3
) -> VolumeAlgorithm:
    """A VOLUME algorithm equivalent to an LCA in the ``o(log* n)`` regime.

    For an algorithm that issues no far probes (every algorithm in this
    library), the only LCA advantage left is the ``1..n`` ID range; the
    §2.2 padding argument says running with the parameter ``n^k`` restores
    correctness for IDs from the polynomial range while keeping the probe
    complexity at ``T(n^k) = o(log* n)``.  For genuinely far-probing LCAs,
    Theorem 2.12's elimination is existential and out of executable scope.
    """
    return _RangePaddedAlgorithm(algorithm, id_exponent)
