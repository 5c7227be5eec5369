"""Port-numbered half-edge graphs.

The paper's models (Definitions 2.1, 2.9, 5.2) all operate on simple
constant-degree graphs in which

* every node ``v`` has ports ``0 .. deg(v)-1`` giving a total order on its
  incident edges (the paper numbers ports from 1; we use 0-based ports
  everywhere and document it), and
* problems label *half-edges*: pairs ``(v, e)`` of a node and an incident
  edge, which under port numbering we represent as ``(v, port)``.

:class:`Graph` is a static, validated structure; node identities are the
integers ``0 .. n-1`` ("indices"), and the LOCAL model's globally unique
identifiers are a separate assignment (see :mod:`repro.graphs.ids`), so the
same topology can be re-identified without rebuilding.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import GraphError, LabelingError

#: A half-edge: ``(node index, port number)``.
HalfEdge = Tuple[int, int]


class Graph:
    """An undirected simple graph with port numbering.

    Parameters
    ----------
    num_nodes:
        Number of nodes; nodes are ``0 .. num_nodes - 1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Ports are assigned per node in the
        order edges are listed (first edge mentioning ``u`` gets ``u``'s
        port 0, and so on).
    """

    __slots__ = ("num_nodes", "_ports", "_edge_list")

    def __init__(self, num_nodes: int, edges: Iterable[Tuple[int, int]] = ()):
        if num_nodes < 0:
            raise GraphError("num_nodes must be non-negative")
        self.num_nodes = num_nodes
        # _ports[v][p] = (u, q): v's port p attaches to u's port q.
        self._ports: List[List[Tuple[int, int]]] = [[] for _ in range(num_nodes)]
        self._edge_list: List[Tuple[int, int, int, int]] = []  # (u, pu, v, pv), u < v
        seen: set[Tuple[int, int]] = set()
        for u, v in edges:
            self._add_edge(u, v, seen)

    @classmethod
    def from_port_map(
        cls, ports: Sequence[Sequence[Tuple[int, int]]]
    ) -> "Graph":
        """Build a graph from an explicit port map.

        ``ports[v][p] = (u, q)`` means ``v``'s port ``p`` attaches to
        ``u``'s port ``q``.  Needed when a subgraph must preserve the port
        numbering of its host graph (the Lemma 3.3 small-component case),
        where insertion-order port assignment would renumber ports.
        """
        graph = cls(len(ports))
        for v, entries in enumerate(ports):
            graph._ports[v] = [tuple(entry) for entry in entries]
        seen: set = set()
        for v, entries in enumerate(ports):
            for p, (u, q) in enumerate(entries):
                if not (0 <= u < len(ports)):
                    raise GraphError(f"port ({v}, {p}) references missing node {u}")
                if u == v:
                    raise GraphError(f"self-loop at node {v}")
                try:
                    back = ports[u][q]
                except IndexError:
                    raise GraphError(f"port ({v}, {p}) names a missing remote port") from None
                if tuple(back) != (v, p):
                    raise GraphError(f"asymmetric port map at ({v}, {p})")
                edge_key = (min((v, p), (u, q)), max((v, p), (u, q)))
                if edge_key in seen:
                    continue
                seen.add(edge_key)
                if v < u:
                    graph._edge_list.append((v, p, u, q))
                else:
                    graph._edge_list.append((u, q, v, p))
        return graph

    def _add_edge(self, u: int, v: int, seen: set) -> None:
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise GraphError(f"edge ({u}, {v}) references a missing node")
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        pu, pv = len(self._ports[u]), len(self._ports[v])
        self._ports[u].append((v, pv))
        self._ports[v].append((u, pu))
        a, b = key
        if a == u:
            self._edge_list.append((u, pu, v, pv))
        else:
            self._edge_list.append((v, pv, u, pu))

    # ------------------------------------------------------------------ views
    def degree(self, v: int) -> int:
        """Number of incident edges of node ``v``."""
        return len(self._ports[v])

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ of the graph (0 for the empty graph)."""
        return max((len(p) for p in self._ports), default=0)

    @property
    def num_edges(self) -> int:
        return len(self._edge_list)

    def neighbor(self, v: int, port: int) -> int:
        """The node attached to ``v``'s given port."""
        return self._port_entry(v, port)[0]

    def neighbor_port(self, v: int, port: int) -> int:
        """The *remote* port: which port of the neighbor this edge uses."""
        return self._port_entry(v, port)[1]

    def port_entries(self, v: int) -> Sequence[Tuple[int, int]]:
        """``v``'s ports in order: entry ``p`` is ``(neighbor, remote port)``.

        This is the graph's own table, returned without a copy for the
        BFS hot loops; callers must not mutate it.
        """
        return self._ports[v]

    def _port_entry(self, v: int, port: int) -> Tuple[int, int]:
        try:
            return self._ports[v][port]
        except IndexError:
            raise GraphError(f"node {v} has no port {port}") from None

    def neighbors(self, v: int) -> List[int]:
        """Neighbors of ``v`` in port order."""
        return [u for u, _ in self._ports[v]]

    def half_edges(self) -> Iterator[HalfEdge]:
        """All half-edges ``(v, port)`` of the graph."""
        for v in range(self.num_nodes):
            for port in range(self.degree(v)):
                yield (v, port)

    def edges(self) -> Iterator[Tuple[int, int, int, int]]:
        """All edges as ``(u, pu, v, pv)`` with ``u < v``."""
        return iter(self._edge_list)

    def opposite(self, half_edge: HalfEdge) -> HalfEdge:
        """The half-edge at the other end of the same edge."""
        v, port = half_edge
        u, q = self._port_entry(v, port)
        return (u, q)

    def port_to(self, v: int, u: int) -> Optional[int]:
        """The port of ``v`` leading to ``u``, or ``None`` if not adjacent."""
        for port, (w, _) in enumerate(self._ports[v]):
            if w == u:
                return port
        return None

    def connected_components(self) -> List[List[int]]:
        """Connected components as sorted lists of node indices."""
        seen = [False] * self.num_nodes
        components: List[List[int]] = []
        for start in range(self.num_nodes):
            if seen[start]:
                continue
            stack, component = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                component.append(v)
                for u in self.neighbors(v):
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            components.append(sorted(component))
        return components

    def is_forest(self) -> bool:
        """True iff the graph is acyclic."""
        return self.num_edges == self.num_nodes - len(self.connected_components())

    def is_tree(self) -> bool:
        """True iff the graph is connected and acyclic."""
        return self.is_forest() and len(self.connected_components()) <= 1

    def bfs_distances(self, source: int, limit: Optional[int] = None) -> Dict[int, int]:
        """Hop distances from ``source``; restricted to ``<= limit`` if given."""
        dist = {source: 0}
        frontier = [source]
        radius = 0
        while frontier and (limit is None or radius < limit):
            radius += 1
            next_frontier = []
            for v in frontier:
                for u in self.neighbors(v):
                    if u not in dist:
                        dist[u] = radius
                        next_frontier.append(u)
            frontier = next_frontier
        return dist

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


class HalfEdgeLabeling:
    """A total or partial labeling of a graph's half-edges.

    This is the ``f_in`` / ``f_out`` of Definition 2.2.  Instances are
    mutable mappings from half-edges to labels, validated against their
    graph.
    """

    __slots__ = ("graph", "_labels")

    def __init__(self, graph: Graph, labels: Optional[Dict[HalfEdge, Any]] = None):
        self.graph = graph
        self._labels: Dict[HalfEdge, Any] = {}
        if labels:
            for half_edge, label in labels.items():
                self[half_edge] = label

    # ------------------------------------------------------------ constructors
    @classmethod
    def constant(cls, graph: Graph, label: Any) -> "HalfEdgeLabeling":
        """Every half-edge gets the same label."""
        return cls(graph, {h: label for h in graph.half_edges()})

    @classmethod
    def from_node_labels(cls, graph: Graph, node_labels: Sequence[Any]) -> "HalfEdgeLabeling":
        """Each node's label copied onto all of its half-edges.

        This is how node-labeling problems (colorings, MIS, ...) embed into
        the half-edge formalism.
        """
        if len(node_labels) != graph.num_nodes:
            raise LabelingError("need exactly one label per node")
        return cls(
            graph,
            {(v, p): node_labels[v] for v in range(graph.num_nodes) for p in range(graph.degree(v))},
        )

    @classmethod
    def from_edge_labels(
        cls, graph: Graph, edge_labels: Dict[Tuple[int, int], Any]
    ) -> "HalfEdgeLabeling":
        """Each edge's label copied onto both of its half-edges.

        ``edge_labels`` is keyed by unordered node pairs given as ``(u, v)``.
        """
        labeling = cls(graph)
        for (u, v), label in edge_labels.items():
            pu = graph.port_to(u, v)
            if pu is None:
                raise LabelingError(f"({u}, {v}) is not an edge")
            pv = graph.neighbor_port(u, pu)
            labeling[(u, pu)] = label
            labeling[(v, pv)] = label
        return labeling

    # ------------------------------------------------------------ mapping api
    def _check(self, half_edge: HalfEdge) -> None:
        v, port = half_edge
        if not (0 <= v < self.graph.num_nodes and 0 <= port < self.graph.degree(v)):
            raise LabelingError(f"{half_edge} is not a half-edge of the graph")

    def __setitem__(self, half_edge: HalfEdge, label: Any) -> None:
        self._check(half_edge)
        self._labels[half_edge] = label

    def __getitem__(self, half_edge: HalfEdge) -> Any:
        self._check(half_edge)
        return self._labels[half_edge]

    def get(self, half_edge: HalfEdge, default: Any = None) -> Any:
        return self._labels.get(half_edge, default)

    def __contains__(self, half_edge: HalfEdge) -> bool:
        return half_edge in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def items(self) -> Iterator[Tuple[HalfEdge, Any]]:
        return iter(self._labels.items())

    def is_total(self) -> bool:
        """True iff every half-edge of the graph is labeled."""
        return len(self._labels) == 2 * self.graph.num_edges

    def node_view(self, v: int) -> List[Any]:
        """Labels around node ``v`` in port order (``None`` where missing)."""
        return [self._labels.get((v, p)) for p in range(self.graph.degree(v))]

    def copy(self) -> "HalfEdgeLabeling":
        return HalfEdgeLabeling(self.graph, dict(self._labels))

    def label_set(self) -> frozenset:
        """The set of labels actually used."""
        return frozenset(self._labels.values())

    def __repr__(self) -> str:
        return f"HalfEdgeLabeling({len(self._labels)}/{2 * self.graph.num_edges} half-edges)"
