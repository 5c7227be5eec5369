"""Radius-T balls: the information a node sees in T rounds of LOCAL.

Definition 2.1 specifies exactly what a ``T``-round algorithm may depend
on: all nodes within distance ``T``, all edges with an endpoint within
distance ``T - 1``, and all half-edges of nodes within distance ``T``
(their ports, degrees and input labels) — plus identifiers or random bit
strings stored at the visible nodes.

:class:`Ball` captures this as a standalone structure with *local* node
indices assigned in canonical BFS order (distance first, then discovery
through ports in increasing order), so ``distance`` never decreases with the
local index; :class:`~repro.local.iterative.IterativeAlgorithm` relies on
this to replay rounds over a prefix of the local indices.  Because port
numbers are part of the model, this canonical order makes two balls
port-isomorphic **iff** their :meth:`Ball.signature` strings are equal —
which is how we implement order-invariance checks and 0-round function
tables without a general isomorphism search.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.graphs.core import Graph, HalfEdgeLabeling


class Ball:
    """The radius-``T`` view around a center node.

    Local node 0 is always the center.  ``adj[v][port]`` is
    ``(local neighbor, remote port)`` for edges *visible inside the ball*;
    ports of visible nodes whose edges leave the ball are present in
    ``degrees`` / ``inputs`` but absent from ``adj`` (the algorithm knows
    the half-edge exists but not where it leads).
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
    ball = Ball(radius)

    def admit(global_v: int, d: int) -> int:
        local = ball.num_nodes
        ball.global_index.append(global_v)
        ball.distance.append(d)
        ball.degrees.append(graph.degree(global_v))
        ball.ids.append(None if ids is None else ids[global_v])
        ball.inputs.append(
            tuple(
                input_labeling.get((global_v, p)) if input_labeling is not None else None
                for p in range(graph.degree(global_v))
            )
        )
        ball.bits.append(None if bits is None else bits[global_v])
        ball.adj.append({})
        ball._local_of_global[global_v] = local
        return local

    admit(center, 0)
    queue = deque([0])
    while queue:
        local_v = queue.popleft()
        d = ball.distance[local_v]
        if d >= radius:
            # Edges between two distance-`radius` nodes (or leaving the
            # ball) are invisible per Definition 2.1.
            continue
        global_v = ball.global_index[local_v]
        for port in range(graph.degree(global_v)):
            global_u = graph.neighbor(global_v, port)
            remote_port = graph.neighbor_port(global_v, port)
            local_u = ball._local_of_global.get(global_u)
            if local_u is None:
                local_u = admit(global_u, d + 1)
                queue.append(local_u)
            ball.adj[local_v][port] = (local_u, remote_port)
            ball.adj[local_u][remote_port] = (local_v, port)
    return ball
