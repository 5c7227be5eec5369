"""Radius-T balls: the information a node sees in T rounds of LOCAL.

Definition 2.1 specifies exactly what a ``T``-round algorithm may depend
on: all nodes within distance ``T``, all edges with an endpoint within
distance ``T - 1``, and all half-edges of nodes within distance ``T``
(their ports, degrees and input labels) — plus identifiers or random bit
strings stored at the visible nodes.

:class:`Ball` captures this as a standalone structure with *local* node
indices assigned in canonical BFS order (distance first, then discovery
through ports in increasing order), so ``distance`` never decreases with the
local index.  :class:`~repro.local.iterative.IterativeAlgorithm` relies on
this to replay rounds over a prefix of the local indices, and
:func:`grow_ball` to widen a ball by resuming its BFS at the outer layer
instead of extracting the wider ball afresh.  Because port numbers are
part of the model, this canonical order makes two balls
port-isomorphic **iff** their :meth:`Ball.signature` strings are equal —
which is how we implement order-invariance checks and 0-round function
tables without a general isomorphism search.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.graphs.core import Graph, HalfEdgeLabeling


class Ball:
    """The radius-``T`` view around a center node.

    Local node 0 is always the center (a region from
    :func:`extract_region` has one center per local index ``0 .. k-1``).
    ``adj[v][port]`` is
    ``(local neighbor, remote port)`` for edges *visible inside the ball*;
    ports of visible nodes whose edges leave the ball are present in
    ``degrees`` / ``inputs`` but absent from ``adj`` (the algorithm knows
    the half-edge exists but not where it leads).

    A ball is a read-only view: :func:`grow_ball` builds a wider ball from
    a narrower one, so consumers must not mutate the balls they are given.
    """

    __slots__ = (
        "radius",
        "global_index",
        "distance",
        "degrees",
        "ids",
        "inputs",
        "bits",
        "adj",
        "_local_of_global",
    )

    def __init__(self, radius: int):
        self.radius = radius
        self.global_index: List[int] = []
        self.distance: List[int] = []
        self.degrees: List[int] = []
        self.ids: List[Optional[int]] = []
        self.inputs: List[Tuple[Any, ...]] = []
        self.bits: List[Optional[str]] = []
        self.adj: List[Dict[int, Tuple[int, int]]] = []
        self._local_of_global: Dict[int, int] = {}

    # ------------------------------------------------------------- accessors
    @property
    def num_nodes(self) -> int:
        return len(self.global_index)

    def local_of_global(self, global_index: int) -> Optional[int]:
        return self._local_of_global.get(global_index)

    def center_degree(self) -> int:
        return self.degrees[0]

    def center_inputs(self) -> Tuple[Any, ...]:
        return self.inputs[0]

    def center_id(self) -> Optional[int]:
        return self.ids[0]

    def center_bits(self) -> Optional[str]:
        return self.bits[0]

    def neighbor(self, local: int, port: int) -> Optional[Tuple[int, int]]:
        """``(local neighbor, remote port)`` or ``None`` beyond the horizon."""
        return self.adj[local].get(port)

    def nodes_at_distance(self, d: int) -> List[int]:
        return [v for v in range(self.num_nodes) if self.distance[v] == d]

    def id_rank(self, local: int) -> int:
        """Rank of the node's ID among all IDs in the ball (0 = smallest).

        Order-invariant algorithms (Definition 2.7) may depend on IDs only
        through these ranks.
        """
        my_id = self.ids[local]
        if my_id is None:
            raise ValueError("ball carries no identifiers")
        return sum(1 for other in self.ids if other is not None and other < my_id)

    # ------------------------------------------------------------- signature
    def signature(
        self,
        ids: str = "exact",
        include_bits: bool = True,
    ) -> Tuple:
        """A canonical, hashable fingerprint of the ball.

        ``ids``:
          * ``"exact"`` — include raw identifiers,
          * ``"rank"``  — include only the relative order of identifiers
            (two balls that are order-indistinguishable in the sense of
            Definition 2.7 get equal rank-signatures),
          * ``"none"``  — drop identifiers entirely.
        """
        if ids not in ("exact", "rank", "none"):
            raise ValueError(f"unknown ids mode: {ids!r}")
        rows = []
        for v in range(self.num_nodes):
            if ids == "exact":
                identity: Any = self.ids[v]
            elif ids == "rank":
                identity = self.id_rank(v) if self.ids[v] is not None else None
            else:
                identity = None
            adjacency = tuple(
                self.adj[v].get(port) for port in range(self.degrees[v])
            )
            rows.append(
                (
                    self.distance[v],
                    self.degrees[v],
                    self.inputs[v],
                    identity,
                    self.bits[v] if include_bits else None,
                    adjacency,
                )
            )
        return (self.radius, tuple(rows))

    def __repr__(self) -> str:
        return f"Ball(radius={self.radius}, num_nodes={self.num_nodes})"


def extract_ball(
    graph: Graph,
    center: int,
    radius: int,
    input_labeling: Optional[HalfEdgeLabeling] = None,
    ids: Optional[List[int]] = None,
    bits: Optional[List[str]] = None,
) -> Ball:
    """Extract the Definition-2.1 radius-``radius`` ball around ``center``.

    ``ids`` and ``bits`` are per-(global)-node assignments; either may be
    omitted when the corresponding information is not part of the model
    variant being simulated.
    """
    return extract_region(graph, [center], radius, input_labeling, ids, bits)


def extract_region(
    graph: Graph,
    centers: Sequence[int],
    radius: int,
    input_labeling: Optional[HalfEdgeLabeling] = None,
    ids: Optional[List[int]] = None,
    bits: Optional[List[str]] = None,
) -> Ball:
    """The union of the radius-``radius`` balls around ``centers``.

    One multi-source BFS: local nodes ``0 .. k-1`` are the distinct
    centers in order of first occurrence, and ``distance`` is the distance
    to the nearest center, so it still never decreases with the local
    index.  With a single center this is exactly :func:`extract_ball`.
    """
    ball = Ball(radius)
    label_of = None if input_labeling is None else input_labeling.get
    for center in centers:
        if center not in ball._local_of_global:
            _admit(ball, graph, center, 0, label_of, ids, bits)
    return _explore(ball, graph, 0, label_of, ids, bits)


def grow_ball(
    graph: Graph,
    ball: Ball,
    radius: int,
    input_labeling: Optional[HalfEdgeLabeling] = None,
    ids: Optional[List[int]] = None,
    bits: Optional[List[str]] = None,
) -> Ball:
    """``ball`` widened to ``radius``, equal to a fresh extraction.

    ``ball`` must have been extracted (or grown) from ``graph`` with the
    same ``input_labeling`` / ``ids`` / ``bits`` and a radius of at most
    ``radius``.  Local indices are BFS-ordered, so ``ball`` is a prefix of
    the result: the BFS simply resumes at ``ball``'s outer layer, the only
    nodes it left unexpanded.  ``ball`` itself is left unchanged.
    """
    if radius < ball.radius:
        raise ValueError(f"cannot grow a radius-{ball.radius} ball to radius {radius}")
    grown = Ball(radius)
    grown.global_index = list(ball.global_index)
    grown.distance = list(ball.distance)
    grown.degrees = list(ball.degrees)
    grown.ids = list(ball.ids)
    grown.inputs = list(ball.inputs)
    grown.bits = list(ball.bits)
    grown.adj = [dict(row) for row in ball.adj]
    grown._local_of_global = dict(ball._local_of_global)
    label_of = None if input_labeling is None else input_labeling.get
    outer = bisect_left(ball.distance, ball.radius)
    return _explore(grown, graph, outer, label_of, ids, bits)


def _admit(
    ball: Ball,
    graph: Graph,
    global_v: int,
    d: int,
    label_of: Optional[Callable[[Tuple[int, int]], Any]],
    ids: Optional[List[int]],
    bits: Optional[List[str]],
) -> int:
    local = len(ball.global_index)
    degree = graph.degree(global_v)
    ball.global_index.append(global_v)
    ball.distance.append(d)
    ball.degrees.append(degree)
    ball.ids.append(None if ids is None else ids[global_v])
    ball.inputs.append(
        (None,) * degree
        if label_of is None
        else tuple([label_of((global_v, p)) for p in range(degree)])
    )
    ball.bits.append(None if bits is None else bits[global_v])
    ball.adj.append({})
    ball._local_of_global[global_v] = local
    return local


def _explore(
    ball: Ball,
    graph: Graph,
    first: int,
    label_of: Optional[Callable[[Tuple[int, int]], Any]],
    ids: Optional[List[int]],
    bits: Optional[List[str]],
) -> Ball:
    """Run ``ball``'s BFS out to ``ball.radius``, expanding from ``first``.

    The BFS queue is the local-index order itself: nodes are admitted in
    BFS order, so expanding local indices ``first, first + 1, ...`` until
    one lies at the radius is a breadth-first traversal.  Every node
    before ``first`` must already be expanded.
    """
    radius = ball.radius
    global_index = ball.global_index
    distance = ball.distance
    adj = ball.adj
    local_of_global = ball._local_of_global
    local_v = first
    while local_v < len(global_index):
        d = distance[local_v]
        if d >= radius:
            # Edges between two distance-`radius` nodes (or leaving the
            # ball) are invisible per Definition 2.1; every later node is
            # at the radius too.
            break
        row = adj[local_v]
        for port, (global_u, remote_port) in enumerate(
            graph.port_entries(global_index[local_v])
        ):
            local_u = local_of_global.get(global_u)
            if local_u is None:
                local_u = _admit(ball, graph, global_u, d + 1, label_of, ids, bits)
            row[port] = (local_u, remote_port)
            adj[local_u][remote_port] = (local_v, port)
        local_v += 1
    return ball
