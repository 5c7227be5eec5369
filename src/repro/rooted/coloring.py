"""3-coloring rooted bounded-degree trees in O(log* n).

With a root (equivalently, consistent parent pointers), Cole–Vishkin runs
directly on trees: every node has exactly one successor — its parent — so
the bit trick shrinks an initial ID-coloring to 6 colors in O(log* n)
rounds, proper across every tree edge (each edge is its child's parent
edge).  The final reduction to 3 colors uses the *shift-down* trick: each
node adopts its parent's color (the root picks a fresh one), making all
siblings monochromatic, so a recoloring node conflicts with at most two
colors (parent's and children's common one) and 3 colors suffice.

This is the rooted counterpart of :class:`LinialColoring`: the same
Θ(log* n) class, reached with far less machinery — a concrete instance of
how much the orientation gives away (the theme of §5 and of the
rooted-vs-unrooted contrast in §1.4).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.exceptions import AlgorithmError
from repro.local.algorithms.cole_vishkin import palette_schedule
from repro.local.iterative import IterativeAlgorithm, memoize_per_n
from repro.rooted.tree import TO_CHILD, TO_PARENT


class RootedCVColoring(IterativeAlgorithm):
    """Cole–Vishkin + shift-down on parent-pointer inputs."""

    finalize_lookahead = 0

    def __init__(self, id_exponent: int = 3, label_prefix: str = "c"):
        self.id_exponent = id_exponent
        self.label_prefix = label_prefix
        self.name = "rooted-cv-3-coloring"

    def initial_palette(self, n: int) -> int:
        return max(2, n**self.id_exponent + 1)

    @memoize_per_n
    def _cv_rounds(self, n: int) -> int:
        return len(palette_schedule(self.initial_palette(n)))

    @memoize_per_n
    def color_rounds(self, n: int) -> int:
        # CV to 6 colors, then three (shift-down + retire) double-rounds.
        return self._cv_rounds(n) + 6

    def rounds(self, n: int) -> int:
        return self.color_rounds(n)

    def final_palette(self, n: int) -> int:
        return 3

    # ----------------------------------------------------------- transitions
    def initial_state(self, node_id, degree, inputs, bits, n):
        if node_id is None:
            raise AlgorithmError(f"{self.name} requires unique identifiers")
        parent_port: Optional[int] = None
        for port, label in enumerate(inputs):
            if label == TO_PARENT:
                if parent_port is not None:
                    raise AlgorithmError("two parent ports at one node")
                parent_port = port
            elif label != TO_CHILD:
                raise AlgorithmError(
                    f"{self.name} requires up/down orientation inputs"
                )
        return (node_id, parent_port)

    def step(self, round_index, state, neighbor_states, n):
        color, parent_port = state
        cv_rounds = self._cv_rounds(n)
        if round_index < cv_rounds:
            parent_color = self._parent_color(parent_port, neighbor_states)
            return (self._cv_step(color, parent_color), parent_port)
        phase, subround = divmod(round_index - cv_rounds, 2)
        retiring = 5 - phase
        if subround == 0:
            # Shift-down: adopt the parent's color; the root moves to a
            # small color different from its own so that already-retired
            # colors are never reintroduced.
            parent_color = self._parent_color(parent_port, neighbor_states)
            if parent_color is None:
                return (0 if color >= 3 else (color + 1) % 3, parent_port)
            return (parent_color, parent_port)
        if color != retiring:
            return (color, parent_port)
        parent_color = self._parent_color(parent_port, neighbor_states)
        children_colors = {
            s[0]
            for port, s in enumerate(neighbor_states)
            if s is not None and port != parent_port
        }
        if len(children_colors) > 1:
            raise AlgorithmError("shift-down failed to align sibling colors")
        taken = children_colors | ({parent_color} if parent_color is not None else set())
        for candidate in range(3):
            if candidate not in taken:
                return (candidate, parent_port)
        raise AlgorithmError("no free color among 3 after shift-down")

    @staticmethod
    def _parent_color(parent_port, neighbor_states) -> Optional[int]:
        if parent_port is None:
            return None
        neighbor = neighbor_states[parent_port]
        return None if neighbor is None else neighbor[0]

    @staticmethod
    def _cv_step(color: int, successor_color: Optional[int]) -> int:
        if successor_color is None:
            return color & 1
        differing = color ^ successor_color
        if differing == 0:
            raise AlgorithmError("equal colors across a parent edge")
        index = (differing & -differing).bit_length() - 1
        return 2 * index + ((color >> index) & 1)

    def color_of(self, state: Any) -> int:
        return state[0]

    def finalize(self, state, neighbor_states, degree, inputs, n) -> Dict[int, Any]:
        label = f"{self.label_prefix}{state[0]}"
        return {port: label for port in range(degree)}
