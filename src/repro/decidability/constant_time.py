"""Question 1.7: semideciding constant-time solvability on trees.

The paper observes that Theorem 3.11 reduces Question 1.7 ("is it
decidable whether an LCL can be solved in constant time on trees?") to
the semidecidability of Ω(log* n) lower bounds, because the *positive*
direction is semidecidable: ``Π`` is constant-time solvable **iff** some
``f^k(Π)`` admits a deterministic 0-round algorithm (forward direction by
the Theorem 3.10 walk; backward by ``k`` applications of Lemma 3.9).

:func:`semidecide_constant_time` runs that loop with a step budget and
reports one of three verdicts; ``CONSTANT`` verdicts come with the
synthesized algorithm, ``NOT_CONSTANT`` verdicts with a fixed-point
certificate — only ``INCONCLUSIVE`` reflects the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.local.model import LocalAlgorithm
from repro.roundelim.gap import GapResult, speedup
from repro.utils import cache as operator_cache
from repro.utils.budget import Budget, BudgetDiagnostics

CONSTANT = "CONSTANT"
NOT_CONSTANT = "NOT_CONSTANT"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ConstantTimeVerdict:
    problem: NodeEdgeCheckableLCL
    verdict: str
    #: Rounds of the synthesized algorithm (CONSTANT only).
    rounds: Optional[int]
    #: The synthesized deterministic LOCAL algorithm (CONSTANT only).
    algorithm: Optional[LocalAlgorithm]
    #: The underlying gap-pipeline result.
    gap_result: GapResult
    #: Per-operator counter deltas (hits/misses/computes/…) accumulated by
    #: this run alone — how much work the walk did vs. found cached.
    cache_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def unknown_since_step(self) -> Optional[int]:
        """For INCONCLUSIVE: no ``f^j(Π)`` with ``j`` below this is 0-round
        solvable — the anytime partial answer ``UNKNOWN(>= step k)``."""
        return self.gap_result.unknown_since_step

    @property
    def budget_diagnostics(self) -> Optional[BudgetDiagnostics]:
        """Machine-readable budget-trip record, when a budget ended the run."""
        return self.gap_result.budget_diagnostics

    def summary(self) -> str:
        if self.verdict == CONSTANT:
            return (
                f"{self.problem.name}: constant-time solvable "
                f"({self.rounds} rounds, algorithm synthesized)"
            )
        if self.verdict == NOT_CONSTANT:
            return (
                f"{self.problem.name}: not o(log* n)-solvable "
                f"(round-elimination fixed point at depth "
                f"{self.gap_result.fixed_point_at})"
            )
        step = self.unknown_since_step
        label = "UNKNOWN" if step is None else f"UNKNOWN(>= step {step})"
        reason = self.gap_result.note or "step budget exhausted"
        return f"{self.problem.name}: {label} — {reason}"


def _stats_delta(
    before: Dict[str, Dict[str, float]], after: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    delta: Dict[str, Dict[str, float]] = {}
    for operator, counters in after.items():
        baseline = before.get(operator, {})
        changed = {
            f: v - baseline.get(f, 0) for f, v in counters.items() if v != baseline.get(f, 0)
        }
        if changed:
            delta[operator] = changed
    return delta


def semidecide_constant_time(
    problem: NodeEdgeCheckableLCL,
    max_steps: int = 4,
    max_universe: int = 4096,
    use_cache: bool = True,
    budget: Optional[Budget] = None,
    resume: bool = False,
) -> ConstantTimeVerdict:
    """Run the Question 1.7 semidecision loop on a node-edge-checkable LCL.

    The round-elimination walk runs through the canonical operator cache
    (unless ``use_cache=False``); the verdict's ``cache_stats`` records
    the per-operator hit/miss/compute deltas of this run, so a warm
    re-verdict shows zero ``computes``.

    With a ``budget`` (or an ambient ``with Budget(...):``), the
    semidecision becomes an *anytime* algorithm: exhaustion yields an
    ``INCONCLUSIVE`` verdict whose :attr:`~ConstantTimeVerdict.unknown_since_step`
    and :attr:`~ConstantTimeVerdict.budget_diagnostics` report exactly how
    far the walk got — never a hang, never a bare exception.
    ``resume=True`` restores the completed prefix of the underlying
    sequence walk from the operator cache (see
    :meth:`repro.roundelim.sequence.ProblemSequence.resume`).
    """
    before = operator_cache.stats()["operators"]
    result = speedup(
        problem,
        max_steps=max_steps,
        max_universe=max_universe,
        use_cache=use_cache,
        budget=budget,
        resume=resume,
    )
    cache_stats = _stats_delta(before, operator_cache.stats()["operators"])
    if result.status == "constant":
        return ConstantTimeVerdict(
            problem=problem,
            verdict=CONSTANT,
            rounds=result.constant_rounds,
            algorithm=result.algorithm,
            gap_result=result,
            cache_stats=cache_stats,
        )
    if result.status == "fixed-point":
        return ConstantTimeVerdict(
            problem=problem,
            verdict=NOT_CONSTANT,
            rounds=None,
            algorithm=None,
            gap_result=result,
            cache_stats=cache_stats,
        )
    return ConstantTimeVerdict(
        problem=problem,
        verdict=INCONCLUSIVE,
        rounds=None,
        algorithm=None,
        gap_result=result,
        cache_stats=cache_stats,
    )
