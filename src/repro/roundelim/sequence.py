"""The round elimination problem sequence ``Π, f(Π), f²(Π), …``.

§3.1 defines the sequence by iterating ``f = R̄ ∘ R``.  Each application
trades one round of the LOCAL algorithm for a controlled increase in local
failure probability (Theorem 3.4, forward direction) and can be undone at
the cost of one deterministic round (Lemma 3.9, backward direction).

:class:`ProblemSequence` caches both ``Π_k = f^k(Π)`` and the intermediate
``R(Π_k)`` (which the Lemma 3.9 lifting needs for its first choice step),
and optionally applies the solvability-preserving hygiene passes between
iterations to keep the doubly-exponential alphabets tractable — see
:mod:`repro.roundelim.ops` for why this does not affect the pipeline's
soundness or completeness.

Fault tolerance
---------------
A walk persists through the operator cache: with its disk layer on
(``REPRO_CACHE_DIR``, or the CLI's ``--checkpoint DIR``) every ``R`` /
``R̄`` / ``simplify`` result is stored as it is computed.  A later walk
over the same problem and options calls :meth:`ProblemSequence.resume`
to rebuild the completed prefix by cache lookups alone — identical to
the uninterrupted walk, names included, with zero operator computes —
and continues from there.  A corrupt entry reads as a miss, so damage
only shortens the restored prefix.  The walk also cooperates with the
ambient :class:`repro.utils.budget.Budget`: the step about to be
computed is reported so a budget trip carries ``step``-level
diagnostics.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Set

from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.roundelim.canonical import canonical_hash, canonically_equal
from repro.roundelim.ops import R, R_bar, _lookup, simplify
from repro.utils import budget as budget_scope

logger = logging.getLogger(__name__)


class ProblemSequence:
    """Lazily computed sequence of round-eliminated problems.

    Parameters
    ----------
    problem:
        The node-edge-checkable problem ``Π = Π_0``.
    use_simplification:
        Apply :func:`repro.roundelim.ops.simplify` after each ``R`` and
        ``R̄`` application.  Strongly recommended (and the default): the
        raw alphabets grow doubly exponentially.
    use_domination:
        Additionally prune dominated labels during simplification (the
        round-eliminator's non-maximal pruning; solvability-preserving,
        but *not* what the paper's proof manipulates — keep off when
        checking literal fixed-point structure, on for the gap pipeline).
    max_universe:
        Safety bound on the power-set alphabet per step.
    use_cache:
        Route each ``R`` / ``R̄`` / ``simplify`` application through the
        canonical operator cache (:mod:`repro.utils.cache`): a warm
        sequence over a previously seen problem performs zero operator
        recomputations.  ``False`` forces fresh kernel runs (the
        per-instance memo in this object still applies).
    """

    def __init__(
        self,
        problem: NodeEdgeCheckableLCL,
        use_simplification: bool = True,
        use_domination: bool = True,
        max_universe: int = 4096,
        universe_mode: str = "reduced",
        use_cache: bool = True,
    ):
        self.base = problem
        self.use_simplification = use_simplification
        self.use_domination = use_domination
        self.max_universe = max_universe
        self.universe_mode = universe_mode
        self.use_cache = use_cache
        self._problems: List[NodeEdgeCheckableLCL] = [problem]
        self._intermediates: Dict[int, NodeEdgeCheckableLCL] = {}

    def resume(self) -> int:
        """Restore the completed prefix of an earlier walk from the cache.

        Walks ``R(Π_k)`` → ``simplify`` → ``R̄`` → ``simplify`` by cache
        lookups alone, from the last step this sequence holds, and stops
        at the first miss — or once a restored ``Π_k`` repeats an earlier
        one, since past a fixed point every lookup would hit again.  When
        only the ``R̄`` half of a step is cached, ``R(Π_k)`` is restored
        without ``Π_{k+1}``.  Returns the number of completed steps (0 when
        caching is off or nothing is cached).  Computes no operator;
        restored problems equal the ones the original walk computed.
        """
        seen: Set[str] = set()
        while True:
            k = len(self._problems) - 1
            if k not in self._intermediates:
                half = self._restore("R", self._problems[k])
                if half is None:
                    break
                self._intermediates[k] = half
            following = self._restore("Rbar", self._intermediates[k])
            if following is None:
                break
            seen.add(canonical_hash(self._problems[k]))
            self._problems.append(following)
            if canonical_hash(following) in seen:
                break
        restored = len(self._problems) - 1
        if restored:
            logger.info(
                "resumed %s at step %d (zero recomputation for the prefix)",
                self.base.name,
                restored,
            )
        return restored

    def _restore(
        self, operator: str, problem: NodeEdgeCheckableLCL
    ) -> Optional[NodeEdgeCheckableLCL]:
        """The cached, hygiene-cleaned ``operator(problem)``, or ``None``."""
        _, result = _lookup(
            operator,
            problem,
            self.use_cache,
            max_universe=self.max_universe,
            universe_mode=self.universe_mode,
        )
        if result is None or not self.use_simplification:
            return result
        _, result = _lookup(
            "simplify", result, self.use_cache, domination=self.use_domination
        )
        return result

    def _clean(self, problem: NodeEdgeCheckableLCL) -> NodeEdgeCheckableLCL:
        if not self.use_simplification:
            return problem
        return simplify(
            problem, domination=self.use_domination, use_cache=self.use_cache
        )

    def intermediate(self, k: int) -> NodeEdgeCheckableLCL:
        """``R(Π_k)`` — the half-step problem between ``Π_k`` and ``Π_{k+1}``."""
        if k not in self._intermediates:
            budget_scope.note_step(k)
            self._intermediates[k] = self._clean(
                R(
                    self.problem(k),
                    max_universe=self.max_universe,
                    universe_mode=self.universe_mode,
                    use_cache=self.use_cache,
                )
            )
        return self._intermediates[k]

    def problem(self, k: int) -> NodeEdgeCheckableLCL:
        """``Π_k = f^k(Π)`` (with hygiene applied if enabled)."""
        while len(self._problems) <= k:
            index = len(self._problems) - 1
            budget_scope.note_step(index)
            half = self.intermediate(index)
            self._problems.append(
                self._clean(
                    R_bar(
                        half,
                        max_universe=self.max_universe,
                        universe_mode=self.universe_mode,
                        use_cache=self.use_cache,
                    )
                )
            )
        return self._problems[k]

    def completed_steps(self) -> int:
        """How many steps ``Π_1 .. Π_k`` have been fully computed."""
        return len(self._problems) - 1

    def alphabet_sizes(self, upto: int) -> List[int]:
        """|Σ_out| of ``Π_0 .. Π_upto`` — the growth data of §3.2's remark."""
        return [len(self.problem(k).sigma_out) for k in range(upto + 1)]

    def find_fixed_point(self, max_steps: int) -> Optional[int]:
        """Smallest ``k < max_steps`` with ``Π_{k+1}`` isomorphic to ``Π_k``.

        A fixed point of ``f`` that is not 0-round solvable is the classic
        round-elimination lower-bound certificate (e.g. sinkless
        orientation).  Isomorphism is checked up to output renaming
        (via :func:`repro.roundelim.canonical.canonically_equal`, i.e.
        canonical-hash comparison with an exact fallback), so sequences
        that stabilize only up to relabeling are still detected; this is
        only meaningful with hygiene enabled.
        """
        for k in range(max_steps):
            if canonically_equal(self.problem(k + 1), self.problem(k)):
                return k
        return None
