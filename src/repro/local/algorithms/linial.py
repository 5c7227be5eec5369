"""Linial's O(log* n) color reduction [36], for arbitrary Δ.

The algorithm repeatedly recolors a properly colored graph with a smaller
palette.  Each round, a node encodes its current color as a low-degree
polynomial over a prime field GF(q) and picks an evaluation point ``x`` on
which its polynomial differs from all neighbors' polynomials (such a point
exists whenever ``q > Δ·d``, because two distinct degree-``d`` polynomials
agree on at most ``d`` points); the pair ``(x, p(x))`` — encoded as the
integer ``x·q + p(x)`` — is the new color.  The palette shrinks roughly as
``k → O(Δ² log²_Δ k)``, hence ``O(log* n)`` rounds from the ID palette to
a constant; a final phase retires one color per round down to ``Δ + 1``.

This is the canonical member of complexity class Θ(log* n) on trees —
the class whose lower boundary Theorem 1.1 pins down.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Tuple

from repro.exceptions import AlgorithmError
from repro.local.iterative import IterativeAlgorithm, memoize_per_n
from repro.utils.numbers import GFPolynomial, next_prime


@lru_cache(maxsize=256)
def reduction_schedule(
    initial_palette: int, max_degree: int
) -> Tuple[Tuple[int, int, int], ...]:
    """The per-round field parameters: a tuple of ``(q, d, new_palette)``.

    Each entry uses the smallest polynomial degree ``d`` such that the
    prime ``q = next_prime(Δ·d + 1)`` satisfies ``q^{d+1} >= palette``.
    The schedule ends when a round no longer shrinks the palette.

    Pure in its arguments and memoized: every node of every round asks
    for the same schedule, so it is computed once per ``(palette, Δ)``.
    """
    degree = max(2, max_degree)
    schedule: List[Tuple[int, int, int]] = []
    palette = initial_palette
    while True:
        d = 1
        while True:
            q = next_prime(degree * d + 1)
            if q ** (d + 1) >= palette:
                break
            d += 1
        new_palette = q * q
        if new_palette >= palette:
            return tuple(schedule)
        schedule.append((q, d, new_palette))
        palette = new_palette


class LinialColoring(IterativeAlgorithm):
    """(Δ+1)-coloring in O(log* n) + O(Δ² log² Δ) rounds.

    Parameters
    ----------
    max_degree:
        The Δ of the target graph class.
    id_exponent:
        Identifiers are assumed to lie in ``[1, n**id_exponent]`` (the
        polynomial range of Definition 2.1).
    label_prefix:
        Output labels are ``f"{label_prefix}{color}"`` so that results
        check directly against :func:`repro.lcl.catalog.coloring`.
    """

    finalize_lookahead = 0

    def __init__(self, max_degree: int, id_exponent: int = 3, label_prefix: str = "c"):
        self.max_degree = max_degree
        self.id_exponent = id_exponent
        self.label_prefix = label_prefix
        self.name = f"linial-coloring(delta={max_degree})"

    # ------------------------------------------------------------- schedule
    def initial_palette(self, n: int) -> int:
        return max(2, n**self.id_exponent + 1)

    @memoize_per_n
    def schedule(self, n: int) -> Tuple[Tuple[int, int, int], ...]:
        return reduction_schedule(self.initial_palette(n), self.max_degree)

    def final_palette(self, n: int) -> int:
        return self.max_degree + 1

    @memoize_per_n
    def _intermediate_palette(self, n: int) -> int:
        schedule = self.schedule(n)
        return schedule[-1][2] if schedule else self.initial_palette(n)

    @memoize_per_n
    def color_rounds(self, n: int) -> int:
        reduction = len(self.schedule(n))
        sweep = max(0, self._intermediate_palette(n) - (self.max_degree + 1))
        return reduction + sweep

    def rounds(self, n: int) -> int:
        return self.color_rounds(n)

    # ----------------------------------------------------------- transitions
    def initial_state(self, node_id, degree, inputs, bits, n):
        if node_id is None:
            raise AlgorithmError(f"{self.name} requires unique identifiers")
        if node_id < 1 or node_id > self.initial_palette(n) - 1:
            raise AlgorithmError(
                f"identifier {node_id} outside the assumed range [1, n^{self.id_exponent}]"
            )
        return node_id  # states are plain colors

    def step(self, round_index, state, neighbor_states, n):
        schedule = self.schedule(n)
        if round_index < len(schedule):
            return self._polynomial_step(
                schedule[round_index], state, neighbor_states
            )
        retiring = self._retiring_color(round_index, n)
        if state != retiring:
            return state
        taken = {c for c in neighbor_states if c is not None}
        for candidate in range(self.max_degree + 1):
            if candidate not in taken:
                return candidate
        raise AlgorithmError("no free color in a (Δ+1)-palette; coloring was improper")

    def _retiring_color(self, round_index: int, n: int) -> int:
        # Color-retirement sweep: rounds beyond the schedule retire the
        # currently highest color, one per round.
        reduction = len(self.schedule(n))
        return self._intermediate_palette(n) - 1 - (round_index - reduction)

    def moving_state(self, round_index, n):
        """In a sweep round only the nodes holding the retiring color move."""
        if round_index < len(self.schedule(n)):
            return None
        return self._retiring_color(round_index, n)

    def _polynomial_step(self, parameters, state, neighbor_states):
        q, d, _ = parameters
        mine = GFPolynomial.from_integer(q, state, d)
        others = [
            GFPolynomial.from_integer(q, c, d)
            for c in neighbor_states
            if c is not None
        ]
        for x in range(q):
            value = mine(x)
            if all(value != other(x) for other in others):
                return x * q + value
        raise AlgorithmError(
            "no distinguishing evaluation point; neighbors shared a color"
        )

    def color_of(self, state: Any) -> int:
        return state

    def finalize(self, state, neighbor_states, degree, inputs, n) -> Dict[int, Any]:
        label = f"{self.label_prefix}{state}"
        return {port: label for port in range(degree)}
