"""Algorithms populating the oriented-grid landscape panel (Fig. 1, §5).

* :class:`FollowDimensionOrientation` — O(1) class: a sinkless (in fact
  everywhere-outgoing) orientation read directly off the grid's edge
  orientations in 0 rounds — a problem that needs Ω(log log n) rounds on
  trees, showing how much structure the orientation gives away;
* :class:`GridProductColoring` — Θ(log* n) class: per-dimension
  Cole–Vishkin along the (consistently oriented) dimension lines, combined
  into a proper ``3^d``-coloring of the torus;
* :class:`DimensionLengthProbe` — Θ(n^{1/d}) class: measure the torus
  side length along dimension 0 by walking the dimension line until it
  wraps (global in the paper's Corollary 1.5 sense).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import AlgorithmError
from repro.graphs.core import Graph, HalfEdgeLabeling
from repro.local.algorithms.cole_vishkin import palette_schedule
from repro.local.iterative import IterativeAlgorithm, memoize_per_n
from repro.local.model import LocalAlgorithm, NodeContext

NEVER_WRAPPED = "dimension-0 line never wrapped; not a torus?"


def _directional_ports(
    inputs: Tuple[Any, ...], dimensions: int
) -> Tuple[List[Optional[int]], List[Optional[int]]]:
    """Forward and backward port per dimension, from orientation inputs."""
    forward: List[Optional[int]] = [None] * dimensions
    backward: List[Optional[int]] = [None] * dimensions
    for port, label in enumerate(inputs):
        if label is None:
            raise AlgorithmError("grid algorithms require orientation inputs")
        dim, direction = label
        side = forward if direction == +1 else backward
        if side[dim] is not None:
            raise AlgorithmError(f"duplicate port along dimension {dim}")
        side[dim] = port
    return forward, backward


class FollowDimensionOrientation(LocalAlgorithm):
    """0-round sinkless orientation: orient every edge forward."""

    name = "follow-orientation"

    def radius(self, n: int) -> int:
        return 0

    def run(self, ctx: NodeContext) -> Dict[int, Any]:
        outputs = {}
        for port in range(ctx.degree):
            label = ctx.input(port)
            if label is None:
                raise AlgorithmError("follow-orientation requires orientation inputs")
            outputs[port] = "O" if label[1] == +1 else "I"
        return outputs


class GridProductColoring(IterativeAlgorithm):
    """Proper 3^d-coloring of an oriented d-dimensional torus, O(log* n).

    Each dimension's lines are consistently oriented cycles, so plain
    Cole–Vishkin runs along every dimension simultaneously (seeded by the
    per-dimension PROD-LOCAL identifier when IDs are tuples, or by the
    global identifier otherwise — both are proper along the lines).  The
    output color is the base-3 combination of the d per-dimension colors;
    neighbors along dimension ``i`` differ in digit ``i``.
    """

    finalize_lookahead = 0

    def __init__(self, dimensions: int, id_exponent: int = 3, label_prefix: str = "c"):
        self.dimensions = dimensions
        self.id_exponent = id_exponent
        self.label_prefix = label_prefix
        self.name = f"grid-product-coloring(d={dimensions})"

    def initial_palette(self, n: int) -> int:
        # Per-dimension PROD identifiers live below (d+1) · n^exponent.
        return max(2, (self.dimensions + 1) * n**self.id_exponent + 1)

    @memoize_per_n
    def _cv_rounds(self, n: int) -> int:
        return len(palette_schedule(self.initial_palette(n)))

    @memoize_per_n
    def color_rounds(self, n: int) -> int:
        return self._cv_rounds(n) + 3

    def rounds(self, n: int) -> int:
        return self.color_rounds(n)

    def final_palette(self, n: int) -> int:
        return 3**self.dimensions

    def initial_state(self, node_id, degree, inputs, bits, n):
        if node_id is None:
            raise AlgorithmError(f"{self.name} requires identifiers")
        if isinstance(node_id, tuple):
            if len(node_id) != self.dimensions:
                raise AlgorithmError(
                    f"expected {self.dimensions} per-dimension identifiers"
                )
            colors = list(node_id)
        else:
            colors = [node_id] * self.dimensions
        forward, backward = _directional_ports(inputs, self.dimensions)
        if any(port is None for port in forward) or any(
            port is None for port in backward
        ):
            raise AlgorithmError("torus node missing a directional port")
        return (tuple(colors), tuple(forward), tuple(backward))

    def step(self, round_index, state, neighbor_states, n):
        colors, forward, backward = state
        cv_rounds = self._cv_rounds(n)
        updated = []
        for dim in range(self.dimensions):
            successor = neighbor_states[forward[dim]]
            successor_color = None if successor is None else successor[0][dim]
            if round_index < cv_rounds:
                updated.append(self._cv_step(colors[dim], successor_color))
                continue
            retiring = 5 - (round_index - cv_rounds)
            if colors[dim] != retiring:
                updated.append(colors[dim])
                continue
            # Only the two neighbors on this dimension's line constrain
            # the dimension-`dim` color.
            taken = set()
            for port in (forward[dim], backward[dim]):
                neighbor = neighbor_states[port]
                if neighbor is not None:
                    taken.add(neighbor[0][dim])
            for candidate in range(3):
                if candidate not in taken:
                    updated.append(candidate)
                    break
            else:
                raise AlgorithmError("no free color during grid retirement")
        return (tuple(updated), forward, backward)

    @staticmethod
    def _cv_step(color: int, successor_color: Optional[int]) -> int:
        if successor_color is None:
            return color & 1
        differing = color ^ successor_color
        if differing == 0:
            raise AlgorithmError("equal colors along a dimension line")
        index = (differing & -differing).bit_length() - 1
        return 2 * index + ((color >> index) & 1)

    def color_of(self, state: Any) -> int:
        colors = state[0]
        total = 0
        for digit in reversed(colors):
            total = total * 3 + digit
        return total

    def finalize(self, state, neighbor_states, degree, inputs, n) -> Dict[int, Any]:
        label = f"{self.label_prefix}{self.color_of(state)}"
        return {port: label for port in range(degree)}


class DimensionLengthProbe(LocalAlgorithm):
    """Output the torus side length along dimension 0: Θ(n^{1/d}).

    Adaptive: grow the ball until the forward walk along dimension 0
    wraps back to the center; the measured locality is ~half the side
    length, pinning the problem in the global class of Corollary 1.5.

    A simulator run executes the probe once for all targets
    (:meth:`run_targets`): follow the forward ports from each target
    around its dimension-0 cycle and charge the smallest radius whose ball
    shows every edge of that cycle.  :meth:`run` grows the ball radius by
    radius and is the shared execution's oracle.
    """

    name = "dimension-length-probe"

    def radius(self, n: int) -> int:
        return max(1, n)

    def run_targets(
        self,
        graph: Graph,
        targets: Sequence[int],
        declared_n: int,
        inputs: Optional[HalfEdgeLabeling],
        ids: Optional[List[int]],
        bits: Optional[List[str]],
    ) -> Optional[Tuple[int, List[Dict[int, Any]]]]:
        """Every target's cycle length and the radius :meth:`run` charges.

        An edge lies in a radius-``r`` ball iff its nearer endpoint is at
        distance ``< r`` from the center (Definition 2.1), so :meth:`run`
        wraps at radius ``max(1, max_i min(d_i, d_{i+1}) + 1)`` over the
        cycle's consecutive nodes.  ``None`` (the per-target path, which
        raises :meth:`run`'s exact error) when a walk meets a node without
        a forward port or never returns, a charge exceeds the declared
        radius, or the targets' charges differ; subclasses that override
        :meth:`run` keep the per-target path.
        """
        if type(self).run is not DimensionLengthProbe.run or inputs is None:
            return None
        num_nodes = graph.num_nodes
        forward: List[Optional[int]] = []
        for v in range(num_nodes):
            successor = None
            for port, (u, _) in enumerate(graph.port_entries(v)):
                if inputs.get((v, port)) == (0, +1):
                    successor = u
                    break
            forward.append(successor)
        limit = self.radius(declared_n)
        charges: Set[int] = set()
        outputs: List[Dict[int, Any]] = []
        for target in targets:
            cycle = [target]
            current = forward[target]
            while current != target:
                if current is None or len(cycle) >= num_nodes:
                    return None
                cycle.append(current)
                current = forward[current]
            distance = self._distances_to(graph, target, set(cycle))
            reach = max(
                min(distance[u], distance[w]) for u, w in zip(cycle, cycle[1:] + cycle[:1])
            )
            radius = max(1, reach + 1)
            if radius > limit:
                return None
            charges.add(radius)
            outputs.append({port: len(cycle) for port in range(graph.degree(target))})
        if len(charges) != 1:
            return None
        return charges.pop(), outputs

    @staticmethod
    def _distances_to(graph: Graph, source: int, wanted: Set[int]) -> Dict[int, int]:
        """BFS distances from ``source``, stopped once every node of
        ``wanted`` (which must be reachable) has one."""
        distance = {source: 0}
        missing = len(wanted) - 1
        frontier = [source]
        d = 0
        while missing:
            d += 1
            layer = []
            for v in frontier:
                for u, _ in graph.port_entries(v):
                    if u not in distance:
                        distance[u] = d
                        layer.append(u)
                        if u in wanted:
                            missing -= 1
            frontier = layer
        return distance

    def run(self, ctx: NodeContext) -> Dict[int, Any]:
        limit = self.radius(ctx.declared_n)
        # A wider ball keeps the narrower ball's local indices as a prefix,
        # so the walk resumes at the node where it left the last ball.
        current = steps = 0
        for radius in range(1, limit + 1):
            ball = ctx.ball(radius)
            current, steps = self._walk(ball, current, steps)
            if current == 0 and steps:
                return {port: steps for port in range(ball.center_degree())}
        raise AlgorithmError(NEVER_WRAPPED)

    @staticmethod
    def _walk(ball, current: int, steps: int) -> Tuple[int, int]:
        """Follow dimension 0 forward from local node ``current`` (``steps``
        steps from the center) until the walk is back at the center or
        would leave ``ball``; the node reached and the steps taken in all.

        A walk of ``ball.num_nodes`` steps inside the ball has revisited a
        node other than the center: it circles a cycle that skips the
        center, in every wider ball too, so it raises at once."""
        while True:
            forward_port = None
            for port in range(ball.degrees[current]):
                label = ball.inputs[current][port]
                if label == (0, +1):
                    forward_port = port
                    break
            if forward_port is None:
                raise AlgorithmError("missing orientation inputs")
            entry = ball.adj[current].get(forward_port)
            if entry is None:
                return current, steps  # walked off the ball; need a bigger radius
            current = entry[0]
            steps += 1
            if current == 0:
                return current, steps
            if steps >= ball.num_nodes:
                raise AlgorithmError(NEVER_WRAPPED)
