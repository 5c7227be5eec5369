"""Cole–Vishkin 3-coloring of consistently oriented paths and cycles [23].

The classic "deterministic coin tossing" bit trick: given a proper
coloring (initially the identifiers), every node compares its color with
its *successor*'s color, finds the lowest bit index ``i`` on which they
differ, and recolors itself ``2·i + bit_i(color)``.  One round shrinks a
``K``-color palette to ``2·⌈log₂ K⌉`` colors, so ``O(log* n)`` rounds
reach the 6-color fixed point; three final rounds retire colors 5, 4, 3
greedily (both neighbors' colors are visible and only two can clash).

The orientation is consumed from *input labels*: each half-edge is marked
``"s"`` (this edge leads to my successor) or ``"p"``; every node has at
most one ``"s"`` port.  On oriented grids this structure is free (§5); on
plain paths/cycles it must be provided as input, which is exactly how the
paper's grid argument sidesteps the impossibility of constant-time
orientation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import AlgorithmError
from repro.graphs.core import Graph, HalfEdgeLabeling
from repro.local.iterative import IterativeAlgorithm, memoize_per_n

#: Input label marking the successor port.
SUCCESSOR = "s"
#: Input label marking a predecessor (or unoriented) port.
PREDECESSOR = "p"


def orient_path_inputs(graph: Graph) -> HalfEdgeLabeling:
    """Orientation inputs for paths/cycles given in index order.

    Node ``i``'s successor is node ``i + 1``; each cycle component wraps
    from its last node to its first.  Raises if the graph is not a
    disjoint union of paths and cycles.
    """
    labeling = HalfEdgeLabeling(graph)
    for v in range(graph.num_nodes):
        if graph.degree(v) > 2:
            raise AlgorithmError("orient_path_inputs expects max degree 2")
        for port in range(graph.degree(v)):
            u = graph.neighbor(v, port)
            # In index order the only non-consecutive edge of a component
            # closes its cycle; its far (lower) end is the successor.
            successor = u == v + 1 or u < v - 1
            labeling[(v, port)] = SUCCESSOR if successor else PREDECESSOR
    return labeling


@lru_cache(maxsize=256)
def palette_schedule(initial_palette: int) -> Tuple[int, ...]:
    """Palette sizes after each Cole–Vishkin round, down to the 6 fixpoint.

    Pure in its argument and memoized: every node of every round asks for
    the same schedule, so it is computed once per palette.
    """
    palettes: List[int] = []
    palette = initial_palette
    while palette > 6:
        palette = 2 * max(1, (palette - 1).bit_length())
        palettes.append(palette)
    return tuple(palettes)


class ColeVishkinColoring(IterativeAlgorithm):
    """3-coloring of oriented paths/cycles in O(log* n) rounds."""

    finalize_lookahead = 0

    def __init__(self, id_exponent: int = 3, label_prefix: str = "c"):
        self.id_exponent = id_exponent
        self.label_prefix = label_prefix
        self.name = "cole-vishkin-3-coloring"

    def initial_palette(self, n: int) -> int:
        return max(2, n**self.id_exponent + 1)

    @memoize_per_n
    def _cv_rounds(self, n: int) -> int:
        return len(palette_schedule(self.initial_palette(n)))

    @memoize_per_n
    def color_rounds(self, n: int) -> int:
        return self._cv_rounds(n) + 3

    def rounds(self, n: int) -> int:
        return self.color_rounds(n)

    def final_palette(self, n: int) -> int:
        return 3

    # ----------------------------------------------------------- transitions
    def initial_state(self, node_id, degree, inputs, bits, n):
        if node_id is None:
            raise AlgorithmError(f"{self.name} requires unique identifiers")
        if degree > 2:
            raise AlgorithmError(f"{self.name} runs on paths/cycles only")
        successor_port: Optional[int] = None
        for port, label in enumerate(inputs):
            if label == SUCCESSOR:
                if successor_port is not None:
                    raise AlgorithmError("two successor ports at one node")
                successor_port = port
        return (node_id, successor_port)

    def step(self, round_index, state, neighbor_states, n):
        color, successor_port = state
        cv_rounds = self._cv_rounds(n)
        if round_index < cv_rounds:
            successor_color = None
            if successor_port is not None and neighbor_states[successor_port] is not None:
                successor_color = neighbor_states[successor_port][0]
            return (self._cv_step(color, successor_color), successor_port)
        # Three retirement rounds: colors 5, then 4, then 3.
        retiring = 5 - (round_index - cv_rounds)
        if color != retiring:
            return state
        taken = {s[0] for s in neighbor_states if s is not None}
        for candidate in range(3):
            if candidate not in taken:
                return (candidate, successor_port)
        raise AlgorithmError("both of {0,1,2} taken by <= 2 neighbors?")

    @staticmethod
    def _cv_step(color: int, successor_color: Optional[int]) -> int:
        if successor_color is None:
            # No successor (path end): pretend the successor differs at bit 0.
            return 2 * 0 + (color & 1)
        differing = color ^ successor_color
        if differing == 0:
            raise AlgorithmError("equal colors across an edge; coloring was improper")
        index = (differing & -differing).bit_length() - 1
        return 2 * index + ((color >> index) & 1)

    def color_of(self, state: Any) -> int:
        return state[0]

    def finalize(self, state, neighbor_states, degree, inputs, n) -> Dict[int, Any]:
        label = f"{self.label_prefix}{state[0]}"
        return {port: label for port in range(degree)}
