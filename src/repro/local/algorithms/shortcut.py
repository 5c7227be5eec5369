"""Cole–Vishkin through skip-list shortcuts: the dense region of Fig. 1.

On general constant-degree graphs, [11] constructs LCLs with complexities
strictly between Θ(log log* n) and Θ(log* n): a path problem is embedded
in a graph whose radius-``t`` balls contain radius-``f(t)`` path balls for
an expanding ``f``, so the Θ(log* n) path locality deflates to
``Θ(f⁻¹(log* n))``.

This module instantiates the mechanism on the deterministic skip list of
:func:`repro.graphs.generators.skip_list_graph` (built with its default,
full level set; see DESIGN.md for the degree caveat versus [11]'s
constant-degree gadget): level-``j`` shortcut edges jump ``2^j`` path
positions, so a radius-``r`` ball covers a path window of length
``2^Ω(r)``, and a 3-coloring of the *underlying path* (level-0 edges) —
the Θ(log* n) problem — is computed with measured locality
``Θ(log log* n)``.

Inputs: each half-edge carries ``(level, direction)`` with direction
``+1`` toward higher path positions (see :func:`skip_list_inputs`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import AlgorithmError
from repro.graphs.balls import Ball
from repro.graphs.core import Graph, HalfEdgeLabeling
from repro.local.algorithms.cole_vishkin import palette_schedule
from repro.local.iterative import memoize_per_n
from repro.local.model import LocalAlgorithm, NodeContext


def skip_list_inputs(graph: Graph) -> HalfEdgeLabeling:
    """Level/direction input labels for a ``skip_list_graph``.

    Assumes node indices are path positions (as the generator guarantees):
    an edge between ``i`` and ``i + 2^j`` gets level ``j``; the half-edge
    at ``i`` points ``+1``, the one at ``i + 2^j`` points ``-1``.
    """
    labeling = HalfEdgeLabeling(graph)
    for u, pu, v, pv in graph.edges():
        gap = abs(v - u)
        level = gap.bit_length() - 1
        if 1 << level != gap:
            raise AlgorithmError("edge gap is not a power of two; not a skip list")
        forward = +1 if v > u else -1
        labeling[(u, pu)] = (level, forward)
        labeling[(v, pv)] = (level, -forward)
    return labeling


def _path_window(ball: Ball) -> Dict[int, int]:
    """Map path-offset -> local index for all ball nodes.

    Offsets are relative to the center (offset 0), reconstructed by
    following the level/direction labels; consistency of the labels makes
    the offsets well-defined.
    """
    offsets: Dict[int, int] = {0: 0}
    offset_of_local = {0: 0}
    stack = [0]
    while stack:
        local = stack.pop()
        base = offset_of_local[local]
        for port, entry in ball.adj[local].items():
            neighbor_local = entry[0]
            label = ball.inputs[local][port]
            if label is None:
                raise AlgorithmError("shortcut CV requires level/direction inputs")
            level, direction = label
            offset = base + direction * (1 << level)
            if neighbor_local not in offset_of_local:
                offset_of_local[neighbor_local] = offset
                offsets[offset] = neighbor_local
                stack.append(neighbor_local)
    return offsets


class ShortcutColeVishkin(LocalAlgorithm):
    """3-color the level-0 path of a skip-list graph, exponentially faster.

    The node simulates plain Cole–Vishkin on the path window around it
    (length ``t + O(1)`` where ``t`` is the CV round count for the ID
    palette), gathered through shortcut edges with a ball of radius
    ``O(log t) = O(log log* n)``.
    """

    name = "shortcut-cole-vishkin"

    def __init__(
        self,
        id_exponent: int = 3,
        label_prefix: str = "c",
        cv_rounds_override: Optional[int] = None,
    ):
        """``cv_rounds_override`` simulates a larger log* regime.

        Real log* values never exceed ~7 at physical scales, which makes
        the Θ(log log* n)-vs-Θ(log* n) separation invisible in absolute
        numbers; overriding the CV round count (the benchmark does this)
        exposes the ``t → O(log t)`` locality deflation directly, which is
        the paper's ``f⁻¹`` mechanism.  Extra CV rounds beyond the palette
        fixpoint are harmless (6-color CV is a fixpoint of the update).
        """
        self.id_exponent = id_exponent
        self.label_prefix = label_prefix
        self.cv_rounds_override = cv_rounds_override

    @memoize_per_n
    def _cv_rounds(self, n: int) -> int:
        needed = len(palette_schedule(max(2, n**self.id_exponent + 1)))
        if self.cv_rounds_override is not None:
            # Never run fewer rounds than the palette requires; extra
            # rounds keep the 6-color fixpoint and only affect locality.
            return max(self.cv_rounds_override, needed)
        return needed

    def _window_length(self, n: int) -> int:
        return self._cv_rounds(n) + 4

    def radius(self, n: int) -> int:
        # Reaching path offset k through the skip list takes at most
        # ~2·log2(k) + 3 hops (climb to alignment, jump, descend).
        window = self._window_length(n)
        return 2 * max(1, math.ceil(math.log2(window + 4))) + 3

    def run(self, ctx: NodeContext) -> Dict[int, Any]:
        n = ctx.declared_n
        rounds = self._cv_rounds(n)
        ball = ctx.ball(self.radius(n))
        offsets = _path_window(ball)

        memo: Dict[Tuple[int, int], Optional[int]] = {}

        def color_at(offset: int, t: int) -> Optional[int]:
            """CV color after t iterations at the given path offset.

            ``None`` encodes "no such path position" — missing offsets
            inside the ball's guaranteed coverage window can only be path
            ends, for which CV's no-successor rule applies.
            """
            key = (offset, t)
            if key in memo:
                return memo[key]
            local = offsets.get(offset)
            if local is None:
                memo[key] = None
            elif t == 0:
                memo[key] = ball.ids[local]
            else:
                mine = color_at(offset, t - 1)
                if mine is None:
                    memo[key] = None
                else:
                    memo[key] = self._cv_step(mine, color_at(offset + 1, t - 1))
            return memo[key]

        # Final 6-coloring on offsets -3 .. +3, then three greedy
        # retirement rounds (5, 4, 3) simulated on the window interior.
        current = {k: color_at(k, rounds) for k in range(-3, 4)}
        for retiring in (5, 4, 3):
            updated = dict(current)
            for k in range(-2, 3):
                color = current.get(k)
                if color != retiring:
                    continue
                taken = {current.get(k - 1), current.get(k + 1)}
                for candidate in range(3):
                    if candidate not in taken:
                        updated[k] = candidate
                        break
            current = updated
        mine = current[0]
        if mine is None or mine > 5:
            raise AlgorithmError("shortcut CV failed to color the center")
        return {
            port: f"{self.label_prefix}{mine}" for port in range(ball.center_degree())
        }

    @staticmethod
    def _cv_step(color: int, successor_color: Optional[int]) -> int:
        if successor_color is None:
            return color & 1
        differing = color ^ successor_color
        if differing == 0:
            raise AlgorithmError("equal colors across a path edge")
        index = (differing & -differing).bit_length() - 1
        return 2 * index + ((color >> index) & 1)
