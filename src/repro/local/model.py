"""The LOCAL model of Definition 2.1, as an executable simulator.

A ``T``-round algorithm is a function from the (labeled) radius-``T`` ball
of a node to the outputs on that node's half-edges.  The simulator hands
each node a :class:`NodeContext` through which it may

* read its own degree, input labels, identifier and random bits, and
* extract :class:`~repro.graphs.balls.Ball` views around itself, and —
  via :meth:`NodeContext.delegate` — around nodes it has already seen
  (which is how the Lemma 3.9 lifting simulates an inner algorithm at the
  neighbors of a node).

Every ball request is *charged*: requesting a radius-``r`` ball around a
node at delegation depth ``d`` charges ``d + r`` rounds.  After the run
the simulator compares the maximum charge against the radius the algorithm
declared, so a buggy algorithm cannot silently read further than its
stated round complexity — the locality measurements in the benchmarks are
exactly these charges.

A context asked for a wider ball than the last one it handed out grows
that ball (:func:`~repro.graphs.balls.grow_ball`) instead of extracting
it afresh, which serves the algorithms that widen their view in a loop.

:func:`run_local_algorithm` first offers the algorithm every target at
once (:meth:`LocalAlgorithm.run_targets`): an
:class:`~repro.local.iterative.IterativeAlgorithm` executes one shared
synchronous schedule for all of them, so a node-round shared by many
balls is computed once.  Otherwise — or if that shared execution raises —
:meth:`LocalAlgorithm.run` runs at each target through its own context,
which is also the shared execution's oracle and reports the first error
exactly as a per-target run does.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import (
    AlgorithmError,
    NodeExecutionError,
    ReproError,
    SimulationError,
)
from repro.graphs.balls import Ball, extract_ball, grow_ball
from repro.graphs.core import Graph, HalfEdgeLabeling
from repro.utils.rng import SplittableRNG


class _ChargeMeter:
    """Shared accumulator for the locality actually used at one node."""

    __slots__ = ("max_charge",)

    def __init__(self) -> None:
        self.max_charge = 0

    def charge(self, amount: int) -> None:
        if amount > self.max_charge:
            self.max_charge = amount


class NodeContext:
    """Everything a node may consult while computing its output."""

    def __init__(
        self,
        graph: Graph,
        node: int,
        declared_n: int,
        inputs: Optional[HalfEdgeLabeling],
        ids: Optional[List[int]],
        bits: Optional[List[str]],
        meter: Optional[_ChargeMeter] = None,
        depth: int = 0,
    ):
        self.graph = graph
        self.node = node
        self.declared_n = declared_n
        self._inputs = inputs
        self._ids = ids
        self._bits = bits
        self._meter = meter if meter is not None else _ChargeMeter()
        self._depth = depth
        # The last ball handed out and whether it omits identifiers: a
        # wider request in the same mode grows it instead of re-extracting.
        self._last_ball: Optional[Tuple[bool, Ball]] = None

    # ----------------------------------------------------------- local info
    # Reading any local datum of a delegated context is knowledge about a
    # node `depth` hops away, so it charges `depth` (0 at the root).
    @property
    def degree(self) -> int:
        self._meter.charge(self._depth)
        return self.graph.degree(self.node)

    def input(self, port: int) -> Any:
        self._meter.charge(self._depth)
        if self._inputs is None:
            return None
        return self._inputs.get((self.node, port))

    def input_tuple(self) -> tuple:
        return tuple(self.input(p) for p in range(self.degree))

    @property
    def my_id(self) -> Optional[int]:
        self._meter.charge(self._depth)
        return None if self._ids is None else self._ids[self.node]

    @property
    def my_bits(self) -> Optional[str]:
        self._meter.charge(self._depth)
        return None if self._bits is None else self._bits[self.node]

    # ----------------------------------------------------------- wider info
    def ball(self, radius: int, ids: str = "exact") -> Ball:
        """The radius-``radius`` ball around this context's node.

        ``ids`` is forwarded to :meth:`Ball.signature`-compatible modes:
        ``"exact"`` exposes raw identifiers, ``"none"`` hides them (the
        extraction simply omits them; ``"rank"`` consumers should extract
        with ``"exact"`` and use :meth:`Ball.id_rank`).
        """
        if radius < 0:
            raise SimulationError("ball radius must be non-negative")
        self._meter.charge(self._depth + radius)
        hide_ids = ids == "none"
        id_list = None if hide_ids else self._ids
        last = self._last_ball
        if last is not None and last[0] == hide_ids and last[1].radius <= radius:
            ball = grow_ball(self.graph, last[1], radius, self._inputs, id_list, self._bits)
        else:
            ball = extract_ball(self.graph, self.node, radius, self._inputs, id_list, self._bits)
        self._last_ball = (hide_ids, ball)
        return ball

    def delegate(self, port: int) -> "NodeContext":
        """A context centered at the neighbor across ``port``.

        Ball charges from the delegated context include the hop taken to
        reach it, so simulating an inner ``T``-round algorithm at a
        neighbor costs ``T + 1`` rounds — exactly the accounting of
        Lemma 3.9.
        """
        neighbor = self.graph.neighbor(self.node, port)
        return NodeContext(
            self.graph,
            neighbor,
            self.declared_n,
            self._inputs,
            self._ids,
            self._bits,
            meter=self._meter,
            depth=self._depth + 1,
        )

    @property
    def charged_radius(self) -> int:
        return self._meter.max_charge


class LocalAlgorithm(abc.ABC):
    """A LOCAL algorithm: declared radius plus per-node output function."""

    name: str = "local-algorithm"
    #: Number of private random bits per node (0 for deterministic).
    bits_per_node: int = 0

    @abc.abstractmethod
    def radius(self, n: int) -> int:
        """Declared round complexity on ``n``-node graphs."""

    @abc.abstractmethod
    def run(self, ctx: NodeContext) -> Dict[int, Any]:
        """Compute the node's output labels, keyed by port."""

    def run_targets(
        self,
        graph: Graph,
        targets: Sequence[int],
        declared_n: int,
        inputs: Optional[HalfEdgeLabeling],
        ids: Optional[List[int]],
        bits: Optional[List[str]],
    ) -> Optional[Tuple[int, List[Dict[int, Any]]]]:
        """Every target's outputs from one execution shared by all targets.

        Returns ``(charge, outputs)``: the radius :meth:`run` charges at
        each target, and per target the port outputs :meth:`run` returns
        there.  The default ``None`` makes the simulator call :meth:`run`
        at each target instead.
        """
        return None


@dataclass
class SimulationResult:
    """Outcome of one simulator run."""

    outputs: HalfEdgeLabeling
    #: Maximum ball charge over all nodes — the locality actually used.
    max_radius_used: int
    #: Radius the algorithm declared for this ``n``.
    declared_radius: int
    #: Per-node charges (index = node).
    radius_per_node: List[int]

    @property
    def within_declared_radius(self) -> bool:
        return self.max_radius_used <= self.declared_radius


def run_local_algorithm(
    graph: Graph,
    algorithm: LocalAlgorithm,
    inputs: Optional[HalfEdgeLabeling] = None,
    ids: Optional[Sequence[int]] = None,
    seed: Any = None,
    declared_n: Optional[int] = None,
    enforce_radius: bool = True,
    nodes: Optional[Sequence[int]] = None,
    bits: Optional[Sequence[str]] = None,
) -> SimulationResult:
    """Run ``algorithm`` at every node of ``graph``.

    ``declared_n`` overrides the node-count parameter handed to the
    algorithm (the "fooling" used by Theorem 2.11 / Proposition 5.5);
    by default it is the true number of nodes.  ``seed`` activates random
    bit strings (``algorithm.bits_per_node`` bits per node, derived
    independently per node as Definition 2.1 requires).  ``bits`` instead
    *replays* an explicit per-node bit-string assignment — recorded from
    an earlier run — making a randomized execution exactly reproducible;
    it is mutually exclusive with ``seed``.  ``nodes`` restricts execution
    to a sample of nodes (outputs are then partial); the locality
    benchmarks use this to measure large instances without simulating
    every node.
    """
    n = graph.num_nodes if declared_n is None else declared_n
    id_list = list(ids) if ids is not None else None
    if id_list is not None and len(set(id_list)) != graph.num_nodes:
        raise SimulationError("identifiers must be distinct, one per node")
    if bits is not None and seed is not None:
        raise SimulationError("pass either seed or bits, not both")
    bit_list: Optional[List[str]] = list(bits) if bits is not None else None
    if bit_list is not None:
        if len(bit_list) != graph.num_nodes:
            raise SimulationError("bits must provide one string per node")
        if any(len(b) < algorithm.bits_per_node for b in bit_list):
            raise SimulationError(
                f"{algorithm.name} needs {algorithm.bits_per_node} bit(s) per node"
            )
    elif algorithm.bits_per_node > 0:
        if seed is None:
            raise SimulationError(
                f"{algorithm.name} is randomized; a seed is required"
            )
        root = SplittableRNG(seed)
        bit_list = [
            root.child("node-bits", v).bits(algorithm.bits_per_node)
            for v in range(graph.num_nodes)
        ]

    targets: Sequence[int] = range(graph.num_nodes) if nodes is None else list(nodes)
    for v in targets:
        if not 0 <= v < graph.num_nodes:
            raise SimulationError(
                f"target node {v} is not a node of the graph "
                f"(nodes are 0..{graph.num_nodes - 1})"
            )

    declared_radius = algorithm.radius(n)
    shared = None
    if targets:
        try:
            shared = algorithm.run_targets(graph, targets, n, inputs, id_list, bit_list)
        except Exception:
            # The per-target runs below step a subset of the same pure
            # computations in today's order, so they re-raise the first
            # failure exactly as a run without the shared execution would.
            shared = None
    outputs = HalfEdgeLabeling(graph)
    radius_per_node: List[int] = []
    for index, v in enumerate(targets):
        if shared is not None:
            charged, port_outputs = shared[0], shared[1][index]
        else:
            ctx = NodeContext(graph, v, n, inputs, id_list, bit_list)
            try:
                port_outputs = algorithm.run(ctx)
            except ReproError:
                raise
            except Exception as error:
                # Structured failure surfacing: a campaign supervisor (or
                # any caller) sees *which node* of *which algorithm*
                # crashed, with the original exception chained, instead of
                # an anonymous low-level error escaping the simulator.
                raise NodeExecutionError(
                    f"{algorithm.name} crashed at node {v} "
                    f"(radius charged so far: {ctx.charged_radius}): "
                    f"{type(error).__name__}: {error}",
                    node=v,
                    algorithm=algorithm.name,
                ) from error
            charged = ctx.charged_radius
        radius_per_node.append(charged)
        if enforce_radius and charged > declared_radius:
            raise AlgorithmError(
                f"{algorithm.name} used radius {charged} at node {v} "
                f"but declared {declared_radius} for n={n}"
            )
        if set(port_outputs) != set(range(graph.degree(v))):
            raise AlgorithmError(
                f"{algorithm.name} must label exactly the ports of node {v} "
                f"(got {sorted(port_outputs)}, expected 0..{graph.degree(v) - 1})"
            )
        for port, label in sorted(port_outputs.items()):
            outputs[(v, port)] = label

    return SimulationResult(
        outputs=outputs,
        max_radius_used=max(radius_per_node, default=0),
        declared_radius=declared_radius,
        radius_per_node=radius_per_node,
    )
