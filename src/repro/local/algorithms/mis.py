"""Symmetry breaking from coloring: MIS and maximal matching sweeps.

Both are classic O(log* n)-class problems on trees (class (B) of §1.1):
run an O(log* n) coloring, then sweep the color classes — each class is an
independent set, so all its undecided members can act simultaneously.
The sweeps add only O(palette · Δ) = O(1) rounds.

The algorithms embed any coloring that follows the
``color_rounds / final_palette / color_of / initial_state / step``
protocol of :class:`~repro.local.algorithms.linial.LinialColoring` and
:class:`~repro.local.algorithms.cole_vishkin.ColeVishkinColoring`, and
emit outputs in the pointer encodings of :func:`repro.lcl.catalog.mis` and
:func:`repro.lcl.catalog.maximal_matching`, so solutions check directly
against the catalog problems.  Their ``step`` asks the coloring for its
``color_rounds`` every round; each shipped coloring resolves it once per
``n`` (:func:`~repro.local.iterative.memoize_per_n`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import AlgorithmError
from repro.local.iterative import IterativeAlgorithm

UNDECIDED = "undecided"
IN_SET = "in"
OUT = "out"


class ColorClassMIS(IterativeAlgorithm):
    """Maximal independent set by color-class sweep.

    State: ``(coloring state, decision)``.  During the coloring rounds the
    inner algorithm runs unchanged; then, in sweep round ``c``, undecided
    nodes of color ``c`` join the set unless a neighbor already joined,
    and nodes adjacent to a joiner drop out.
    """

    finalize_lookahead = 1

    def __init__(self, coloring):
        self.coloring = coloring
        self.name = f"mis-from[{coloring.name}]"

    def rounds(self, n: int) -> int:
        return self.coloring.color_rounds(n) + self.coloring.final_palette(n)

    def initial_state(self, node_id, degree, inputs, bits, n):
        return (self.coloring.initial_state(node_id, degree, inputs, bits, n), UNDECIDED)

    def step(self, round_index, state, neighbor_states, n):
        color_state, decision = state
        color_rounds = self.coloring.color_rounds(n)
        if round_index < color_rounds:
            inner_neighbors = tuple(
                None if s is None else s[0] for s in neighbor_states
            )
            return (
                self.coloring.step(round_index, color_state, inner_neighbors, n),
                decision,
            )
        sweeping_color = round_index - color_rounds
        if decision != UNDECIDED:
            return state
        neighbor_decisions = {s[1] for s in neighbor_states if s is not None}
        if IN_SET in neighbor_decisions:
            return (color_state, OUT)
        if self.coloring.color_of(color_state) == sweeping_color:
            return (color_state, IN_SET)
        return state

    def finalize(self, state, neighbor_states, degree, inputs, n) -> Dict[int, Any]:
        decision = state[1]
        if degree == 0:
            return {}
        if decision == IN_SET:
            return {port: "M" for port in range(degree)}
        if decision != OUT:
            raise AlgorithmError("sweep ended with an undecided node")
        outputs = {port: "O" for port in range(degree)}
        for port, neighbor in enumerate(neighbor_states):
            if neighbor is not None and neighbor[1] == IN_SET:
                outputs[port] = "P"
                return outputs
        raise AlgorithmError("out-node with no in-neighbor; MIS not maximal")


@dataclass(frozen=True)
class _MatchState:
    color_state: Any
    my_id: int
    matched_port: Optional[int] = None
    #: (my port, target id) while a proposal is pending.
    proposal: Optional[Tuple[int, int]] = None
    #: (my port, proposer id) after accepting a proposal.
    accepted: Optional[Tuple[int, int]] = None


class GreedyMatchingFromColoring(IterativeAlgorithm):
    """Maximal matching by repeated color-class sweeps.

    Each color round runs a three-step handshake:

    1. *propose* — every unmatched node of the sweeping color proposes to
       its lowest-numbered port whose neighbor is unmatched, recording the
       target's ID (so a proposal is unambiguous to everyone who sees it);
    2. *accept* — every unmatched node that received proposals accepts the
       one with the smallest proposer ID;
    3. *resolve* — proposer and target mark the edge matched iff the
       acceptance names the proposer; pending fields are cleared.

    A rejected proposer's target got matched, so a node is rejected at
    most ``Δ`` times before it is matched or has no unmatched neighbor
    left; the whole palette sweep is therefore repeated ``Δ`` times, which
    guarantees maximality (``P`` nodes have only matched neighbors).
    """

    finalize_lookahead = 1

    def __init__(self, coloring, max_degree: int):
        self.coloring = coloring
        self.max_degree = max_degree
        self.name = f"matching-from[{coloring.name}]"

    def rounds(self, n: int) -> int:
        sweep = 3 * self.coloring.final_palette(n) * self.max_degree
        return self.coloring.color_rounds(n) + sweep

    def initial_state(self, node_id, degree, inputs, bits, n):
        if node_id is None:
            raise AlgorithmError(f"{self.name} requires unique identifiers")
        return _MatchState(
            color_state=self.coloring.initial_state(node_id, degree, inputs, bits, n),
            my_id=node_id,
        )

    def step(self, round_index, state, neighbor_states, n):
        color_rounds = self.coloring.color_rounds(n)
        if round_index < color_rounds:
            inner_neighbors = tuple(
                None if s is None else s.color_state for s in neighbor_states
            )
            return replace(
                state,
                color_state=self.coloring.step(
                    round_index, state.color_state, inner_neighbors, n
                ),
            )
        phase = round_index - color_rounds
        color_and_sub, subphase = divmod(phase, 3)
        sweeping_color = color_and_sub % self.coloring.final_palette(n)
        if subphase == 0:
            return self._propose(state, neighbor_states, sweeping_color)
        if subphase == 1:
            return self._accept(state, neighbor_states)
        return self._resolve(state, neighbor_states)

    def _propose(self, state, neighbor_states, sweeping_color):
        if state.matched_port is not None:
            return state
        if self.coloring.color_of(state.color_state) != sweeping_color:
            return state
        for port, neighbor in enumerate(neighbor_states):
            if neighbor is not None and neighbor.matched_port is None:
                return replace(state, proposal=(port, neighbor.my_id))
        return state

    def _accept(self, state, neighbor_states):
        if state.matched_port is not None or state.proposal is not None:
            return state
        best: Optional[Tuple[int, int]] = None  # (proposer id, port)
        for port, neighbor in enumerate(neighbor_states):
            if neighbor is None or neighbor.proposal is None:
                continue
            if neighbor.proposal[1] != state.my_id:
                continue
            if best is None or neighbor.my_id < best[0]:
                best = (neighbor.my_id, port)
        if best is None:
            return state
        return replace(state, accepted=(best[1], best[0]))

    def _resolve(self, state, neighbor_states):
        if state.accepted is not None:
            port, _proposer = state.accepted
            return replace(state, matched_port=port, proposal=None, accepted=None)
        if state.proposal is not None:
            port, _target = state.proposal
            target = neighbor_states[port]
            if (
                target is not None
                and target.accepted is not None
                and target.accepted[1] == state.my_id
            ):
                return replace(state, matched_port=port, proposal=None, accepted=None)
            return replace(state, proposal=None, accepted=None)
        return state

    def finalize(self, state, neighbor_states, degree, inputs, n) -> Dict[int, Any]:
        if degree == 0:
            return {}
        if state.matched_port is not None:
            outputs = {port: "O" for port in range(degree)}
            outputs[state.matched_port] = "M"
            return outputs
        for neighbor in neighbor_states:
            if neighbor is not None and neighbor.matched_port is None:
                raise AlgorithmError(
                    "two adjacent unmatched nodes remain; matching not maximal"
                )
        return {port: "P" for port in range(degree)}
