"""Round-by-round algorithms on top of the ball-based LOCAL simulator.

Classic symmetry-breaking algorithms (Linial, Cole–Vishkin, color-class
sweeps) are naturally stated as synchronous message-passing: every node
holds a state and updates it each round from its neighbors' states.  A
``T``-round message-passing algorithm is exactly a function of the
radius-``T`` ball (Definition 2.1), and :class:`IterativeAlgorithm` makes
that equivalence executable in two ways:

* a simulator run executes **one shared schedule** for all its targets
  (:meth:`IterativeAlgorithm.run_targets`): the region is the union of
  the targets' balls, and each (node, round) pair any target's ball needs
  is stepped once, however many balls overlap there;
* :meth:`IterativeAlgorithm.run` extracts one node's radius-``T`` ball and
  replays the schedule *inside* it.  This per-ball replay serves delegated
  contexts (the Lemma 3.9 lifting simulates an inner algorithm at a
  neighbor) and is the oracle the shared schedule is tested against.

The replay is sound because of the standard information argument: after
``t`` rounds, the state of a node at distance ``d`` from the center is
determined by its radius-``t`` ball, which lies inside the center's
radius-``T`` ball whenever ``d + t <= T`` — so the replay updates exactly
the nodes whose next state is still determined, and after ``T`` rounds the
center's state is correct.

The replay contract, which every subclass keeps:

* :meth:`IterativeAlgorithm.step` is a pure function of its arguments.
  The replay may call it in any order, once per node per round, and the
  same ``(round, state, neighbor states)`` must always give the same
  next state.  This is also what makes a failing shared schedule safe to
  rerun target by target: the rerun raises the same first error.
* Parameters that depend only on ``n`` (round schedules, palettes) are
  resolved once per instance and ``n`` by the :func:`memoize_per_n`
  methods (``schedule``, ``color_rounds``, ``_cv_rounds``, ...), on top
  of memoized pure functions such as
  :func:`~repro.local.algorithms.linial.reduction_schedule` and
  :func:`~repro.local.algorithms.cole_vishkin.palette_schedule`. ``step``
  looks them up; it does not recompute them for every node and round.
* The replay gathers a node's port-indexed neighbor states with one
  getter built per node before the first round (an
  :func:`operator.itemgetter` over its neighbors' local indices, with
  explicit 0- and 1-port cases), so ``step`` always receives a tuple.
* The replay relies on the BFS order of a ball's local indices (see
  :mod:`repro.graphs.balls`): ``distance`` never decreases with the local
  index, so the nodes still determined after a round are a prefix of the
  local indices, and only that prefix is stepped.  A multi-source region
  (:func:`~repro.graphs.balls.extract_region`) keeps that order, so the
  shared schedule is the same replay over the region.
* A round may be sparse.  When :meth:`IterativeAlgorithm.moving_state`
  names a state for the round (Linial's colour-retirement sweep names
  the retiring colour), the replay copies the active prefix and calls
  ``step`` only on the nodes holding that state.  ``step`` must then
  return every other state unchanged, so the sparse round equals the
  dense one.  The default ``None`` steps the whole prefix.
"""

from __future__ import annotations

import abc
import functools
from bisect import bisect_right
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.graphs.balls import Ball, extract_region
from repro.graphs.core import Graph, HalfEdgeLabeling
from repro.local.model import LocalAlgorithm, NodeContext

_Result = TypeVar("_Result")


def memoize_per_n(method: Callable[[Any, int], _Result]) -> Callable[[Any, int], _Result]:
    """Memoize a method whose value depends only on its instance and ``n``.

    The memo is a dict in the instance's ``__dict__``, one per decorated
    function (named by its qualified name, so an override decorated in a
    subclass keeps its own entries): two instances — say with different
    ``id_exponent`` or ``max_degree`` — never share an entry, and the memo
    dies with its instance.  The method must read only parameters fixed at
    construction; anything it calls through ``self`` (an overridden
    ``initial_palette``, say) is honoured on the first call for each ``n``.
    """
    slot = "_memo_" + method.__qualname__

    @functools.wraps(method)
    def memoized(self: Any, n: int) -> _Result:
        try:
            return self.__dict__[slot][n]
        except KeyError:
            pass
        value = method(self, n)
        self.__dict__.setdefault(slot, {})[n] = value
        return value

    return memoized


def _no_neighbors(states: List[Any]) -> Tuple[()]:
    return ()


def _neighbor_getter(ports: Tuple[int, ...]) -> Callable[[List[Any]], Tuple[Any, ...]]:
    """The states at ``ports`` as a tuple, gathered by one call.

    ``itemgetter`` returns a bare item for one index and cannot be built
    for none, so those two arities get their own getters.
    """
    if not ports:
        return _no_neighbors
    if len(ports) == 1:
        (only,) = ports
        return lambda states: (states[only],)
    return itemgetter(*ports)


class IterativeAlgorithm(LocalAlgorithm):
    """Base class for synchronous-round algorithms.

    Subclasses implement:

    * :meth:`rounds` — number of synchronous rounds for ``n`` nodes,
    * :meth:`initial_state` — a node's state before round 0, from its
      purely local information,
    * :meth:`step` — the state transition given the neighbors' states
      (indexed by port; ``None`` for ports whose neighbor's state is no
      longer determined, which by the information argument can only happen
      when the center's output no longer depends on it),
    * :meth:`finalize` — map the center's final state (plus the final
      states of its neighbors, for output conventions like pointers) to
      per-port output labels.
    """

    @abc.abstractmethod
    def rounds(self, n: int) -> int:
        """Number of synchronous rounds on ``n``-node graphs."""

    @abc.abstractmethod
    def initial_state(
        self,
        node_id: Optional[int],
        degree: int,
        inputs: Tuple[Any, ...],
        bits: Optional[str],
        n: int,
    ) -> Any:
        """State before round 0."""

    @abc.abstractmethod
    def step(
        self,
        round_index: int,
        state: Any,
        neighbor_states: Tuple[Optional[Any], ...],
        n: int,
    ) -> Any:
        """State after round ``round_index``."""

    @abc.abstractmethod
    def finalize(
        self,
        state: Any,
        neighbor_states: Tuple[Optional[Any], ...],
        degree: int,
        inputs: Tuple[Any, ...],
        n: int,
    ) -> Dict[int, Any]:
        """Port-indexed output labels from the final states."""

    def moving_state(self, round_index: int, n: int) -> Any:
        """The only state that :meth:`step` changes in this round, if any.

        The default ``None`` steps every node of the round.  A subclass
        whose round moves only the nodes holding one state returns that
        state, and the replay then calls :meth:`step` on those nodes
        alone; its ``step`` must return every other state unchanged.
        """
        return None

    #: Extra radius needed by :meth:`finalize` to see neighbor states
    #: (1 in the common pointer-output case, hence the default).
    finalize_lookahead: int = 1

    def radius(self, n: int) -> int:
        return self.rounds(n) + self.finalize_lookahead

    # ------------------------------------------------------------ execution
    def run_targets(
        self,
        graph: Graph,
        targets: Sequence[int],
        declared_n: int,
        inputs: Optional[HalfEdgeLabeling],
        ids: Optional[List[int]],
        bits: Optional[List[str]],
    ) -> Optional[Tuple[int, List[Dict[int, Any]]]]:
        """One synchronous schedule over the union of the targets' balls.

        The region is the multi-source BFS from the targets out to the
        horizon ``rounds + finalize_lookahead``; round ``t`` steps the nodes
        within ``horizon - t - 1`` of some target — exactly the union of
        the (node, round) pairs the per-target replays of :meth:`run`
        step, so each is stepped once however many balls share it.
        Subclasses that override :meth:`run` keep the per-target path.
        """
        if type(self).run is not IterativeAlgorithm.run:
            return None
        total_rounds = self.rounds(declared_n)
        lookahead = self.finalize_lookahead
        horizon = total_rounds + lookahead
        region = extract_region(graph, targets, horizon, inputs, ids, bits)
        states = self._replay(region, total_rounds, declared_n)
        outputs: List[Dict[int, Any]] = []
        for v in targets:
            local = region.local_of_global(v)
            degree = region.degrees[local]
            # Without lookahead the center's ball ends at the center after
            # the last round, so its neighbors' states read None — even
            # when a neighbor is itself a target of the region.
            neighbor_states = (
                self._neighbor_states(region, local, states)
                if lookahead
                else (None,) * degree
            )
            outputs.append(
                self.finalize(
                    states[local], neighbor_states, degree, region.inputs[local], declared_n
                )
            )
        return horizon, outputs

    def run(self, ctx: NodeContext) -> Dict[int, Any]:
        n = ctx.declared_n
        total_rounds = self.rounds(n)
        ball = ctx.ball(total_rounds + self.finalize_lookahead)
        states = self._replay(ball, total_rounds, n)
        center_neighbors = self._neighbor_states(ball, 0, states)
        return self.finalize(
            states[0], center_neighbors, ball.center_degree(), ball.center_inputs(), n
        )

    def _replay(self, ball: Ball, total_rounds: int, n: int) -> List[Any]:
        num_nodes = ball.num_nodes
        states: List[Any] = [
            self.initial_state(ball.ids[v], ball.degrees[v], ball.inputs[v], ball.bits[v], n)
            for v in range(num_nodes)
        ]
        distance = ball.distance
        horizon = ball.radius
        # One port-indexed neighbor getter per node stepped in round 0; a
        # port whose edge leaves the ball reads the extra slot `num_nodes`,
        # which always holds None.
        gathers = [
            _neighbor_getter(
                tuple(
                    ball.adj[v][port][0] if port in ball.adj[v] else num_nodes
                    for port in range(ball.degrees[v])
                )
            )
            for v in range(bisect_right(distance, horizon - 1))
        ]
        step = self.step
        moving_state = self.moving_state
        states.append(None)
        for round_index in range(total_rounds):
            # After this round, states are determined for nodes at distance
            # <= horizon - (round_index + 1) from the center: a prefix of
            # the BFS-ordered local indices.
            active = bisect_right(distance, horizon - (round_index + 1))
            moving = moving_state(round_index, n)
            if moving is None:
                stepped = [
                    step(round_index, state, gather(states), n)
                    for state, gather in zip(states, gathers[:active])
                ]
            else:
                # A sparse round: every other state of the prefix is kept.
                stepped = states[:active]
                v = -1
                try:
                    while True:
                        v = states.index(moving, v + 1, active)
                        stepped[v] = step(round_index, moving, gathers[v](states), n)
                except ValueError:
                    pass
            states = stepped + [None] * (num_nodes + 1 - active)
        return states[:num_nodes]

    @staticmethod
    def _neighbor_states(
        ball: Ball, local: int, states: List[Any]
    ) -> Tuple[Optional[Any], ...]:
        collected: List[Optional[Any]] = []
        for port in range(ball.degrees[local]):
            entry = ball.adj[local].get(port)
            collected.append(None if entry is None else states[entry[0]])
        return tuple(collected)
