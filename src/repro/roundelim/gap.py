"""The gap pipeline: Theorems 3.10 / 3.11 as an executable procedure.

The paper proves that any LCL with complexity ``o(log* n)`` on trees (or
forests) has complexity ``O(1)`` by walking a problem down the round
elimination sequence to a 0-round-solvable problem and lifting the trivial
algorithm back up.  :func:`speedup` runs exactly that walk:

* for ``k = 0, 1, 2, …`` test whether ``f^k(Π)`` admits a deterministic
  0-round algorithm (a complete decision, :mod:`repro.roundelim.zero_round`);
* on success, synthesize the deterministic ``k``-round LOCAL algorithm for
  ``Π`` via the Lemma 3.9 lifting — a runnable, verifiable artifact;
* if instead the sequence reaches a *fixed point* (``f(Π_k)`` isomorphic
  to ``Π_k``) that is not 0-round solvable, report it: iterating further
  can never succeed, which is the classic round-elimination lower-bound
  certificate (e.g. sinkless orientation) placing ``Π`` outside
  ``o(log* n)``;
* otherwise stop at the step budget with status ``"unknown"``.

This is also the semidecision procedure the paper offers toward
Question 1.7 (decidability of constant-time solvability on trees): by
Theorem 3.10, ``Π ∈ O(1)`` **iff** some ``f^k(Π)`` is 0-round solvable,
so the loop halts with ``"constant"`` on every constant-time problem.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional

from repro.exceptions import BudgetExceededError, ProblemDefinitionError
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.local.model import LocalAlgorithm
from repro.roundelim.canonical import canonically_equal
from repro.roundelim.lift import ZeroRoundLocalAlgorithm, lift_to_local_algorithm
from repro.roundelim.sequence import ProblemSequence
from repro.roundelim.zero_round import ZeroRoundAlgorithm, find_zero_round_algorithm
from repro.utils.budget import Budget, BudgetDiagnostics

logger = logging.getLogger(__name__)


@dataclass
class GapResult:
    """Outcome of the gap pipeline for one problem."""

    problem: NodeEdgeCheckableLCL
    #: ``"constant"`` (algorithm synthesized), ``"fixed-point"`` (provably
    #: not o(log* n) via a non-solvable RE fixed point), or ``"unknown"``.
    status: str
    #: Rounds of the synthesized algorithm (= elimination depth), if any.
    constant_rounds: Optional[int]
    #: The deterministic LOCAL algorithm for the original problem, if any.
    algorithm: Optional[LocalAlgorithm]
    #: The 0-round table at the bottom of the sequence, if any.
    zero_round: Optional[ZeroRoundAlgorithm]
    #: The (hygiene-reduced) alphabet sizes along the explored sequence.
    alphabet_sizes: List[int]
    #: Step at which a fixed point was detected, if any.
    fixed_point_at: Optional[int]
    sequence: ProblemSequence
    #: Free-form diagnostics (e.g. why the walk stopped early).
    note: str = ""
    #: For ``"unknown"``: the walk established that no ``f^j(Π)`` with
    #: ``j < unknown_since_step`` is 0-round solvable, i.e. the verdict is
    #: ``UNKNOWN(>= step k)`` — an *anytime* partial answer, not a bare
    #: give-up.
    unknown_since_step: Optional[int] = None
    #: Machine-readable account of the budget trip, when one ended the walk.
    budget_diagnostics: Optional[BudgetDiagnostics] = None

    def verdict_label(self) -> str:
        """``"constant"`` / ``"fixed-point"`` / ``"UNKNOWN(>= step k)"``."""
        if self.status == "unknown" and self.unknown_since_step is not None:
            return f"UNKNOWN(>= step {self.unknown_since_step})"
        return self.status

    def certify(self, **kwargs):
        """Package this verdict as a checkable, serializable certificate.

        Delegates to :func:`repro.verify.certify_result`; see
        :mod:`repro.verify` for the certificate format and the
        engine-free checker.  Keyword arguments (``trials``,
        ``component_sizes``, ``seed``) tune the recorded transcript for
        ``"constant"`` verdicts.
        """
        from repro.verify.certify import certify_result

        return certify_result(self, **kwargs)

    def summary(self) -> str:
        lines = [f"gap pipeline for {self.problem.name!r}: {self.verdict_label()}"]
        if self.note:
            lines.append(f"  note: {self.note}")
        if self.budget_diagnostics is not None:
            lines.append(f"  budget: {self.budget_diagnostics.as_dict()}")
        if self.constant_rounds is not None:
            lines.append(f"  synthesized deterministic {self.constant_rounds}-round algorithm")
        if self.fixed_point_at is not None:
            lines.append(
                f"  round-elimination fixed point at step {self.fixed_point_at} "
                "(not 0-round solvable => not o(log* n))"
            )
        lines.append(f"  alphabet sizes along f^k: {self.alphabet_sizes}")
        return "\n".join(lines)


def speedup(
    problem: NodeEdgeCheckableLCL,
    max_steps: int = 4,
    use_domination: bool = True,
    max_universe: int = 4096,
    detect_fixed_points: bool = True,
    use_cache: bool = True,
    budget: Optional[Budget] = None,
    resume: bool = False,
) -> GapResult:
    """Run the Theorem 3.10 pipeline on a node-edge-checkable problem.

    ``max_steps`` bounds the elimination depth (the procedure is a
    semidecision: constant-time problems terminate, Θ(log* n) problems
    never would).  See :class:`GapResult` for the three outcomes.  The
    underlying operators run through the canonical result cache unless
    ``use_cache=False``, so repeated walks over the same problem are
    pure lookups.

    Anytime semantics: pass a :class:`~repro.utils.budget.Budget` (or run
    inside ``with Budget(...):``) and exhaustion mid-walk degrades to a
    structured ``"unknown"`` result with :attr:`GapResult.unknown_since_step`
    and :attr:`GapResult.budget_diagnostics` populated — no hang, no bare
    exception.  ``resume=True`` first restores the completed prefix of an
    earlier walk from the operator cache's disk layer
    (:meth:`~repro.roundelim.sequence.ProblemSequence.resume`), so an
    interrupted walk continues from its last cached step.
    """
    sequence = ProblemSequence(
        problem,
        use_simplification=True,
        use_domination=use_domination,
        max_universe=max_universe,
        use_cache=use_cache,
    )
    if resume:
        restored = sequence.resume()
        if restored:
            logger.info("speedup(%s): resumed %d step(s)", problem.name, restored)
    if budget is not None:
        with budget:
            return _walk(problem, sequence, max_steps, detect_fixed_points)
    return _walk(problem, sequence, max_steps, detect_fixed_points)


def _unknown(
    problem: NodeEdgeCheckableLCL,
    sequence: ProblemSequence,
    alphabet_sizes: List[int],
    examined: int,
    note: str,
    diagnostics: Optional[BudgetDiagnostics] = None,
) -> GapResult:
    return GapResult(
        problem=problem,
        status="unknown",
        constant_rounds=None,
        algorithm=None,
        zero_round=None,
        alphabet_sizes=alphabet_sizes,
        fixed_point_at=None,
        sequence=sequence,
        note=note,
        unknown_since_step=examined,
        budget_diagnostics=diagnostics,
    )


def _walk(
    problem: NodeEdgeCheckableLCL,
    sequence: ProblemSequence,
    max_steps: int,
    detect_fixed_points: bool,
) -> GapResult:
    alphabet_sizes: List[int] = []
    # Steps whose 0-round check completed negatively: the walk has *proved*
    # that a constant-time verdict needs depth >= examined.
    examined = 0
    for step in range(max_steps + 1):
        try:
            current = sequence.problem(step)
        except ProblemDefinitionError as error:
            # The power-set alphabet outgrew the budget.  For Θ(log* n)
            # problems this is the expected way the walk ends: the sequence
            # never becomes 0-round solvable and its alphabets blow up
            # doubly exponentially (remark in §3.2).
            return _unknown(
                problem,
                sequence,
                alphabet_sizes,
                examined,
                f"stopped before step {step}: {error}",
            )
        except BudgetExceededError as error:
            logger.warning("speedup(%s): %s", problem.name, error.diagnostics)
            return _unknown(
                problem,
                sequence,
                alphabet_sizes,
                examined,
                f"budget exceeded before step {step}",
                diagnostics=error.diagnostics,
            )
        alphabet_sizes.append(len(current.sigma_out))
        zero_round = find_zero_round_algorithm(current)
        if zero_round is not None:
            algorithm = lift_to_local_algorithm(zero_round, sequence, step)
            return GapResult(
                problem=problem,
                status="constant",
                constant_rounds=step,
                algorithm=algorithm,
                zero_round=zero_round,
                alphabet_sizes=alphabet_sizes,
                fixed_point_at=None,
                sequence=sequence,
            )
        examined = step + 1
        if detect_fixed_points and step < max_steps:
            try:
                is_fixed = canonically_equal(sequence.problem(step + 1), current)
            except ProblemDefinitionError as error:
                return _unknown(
                    problem,
                    sequence,
                    alphabet_sizes,
                    examined,
                    f"stopped before step {step + 1}: {error}",
                )
            except BudgetExceededError as error:
                logger.warning("speedup(%s): %s", problem.name, error.diagnostics)
                return _unknown(
                    problem,
                    sequence,
                    alphabet_sizes,
                    examined,
                    f"budget exceeded before step {step + 1}",
                    diagnostics=error.diagnostics,
                )
            if is_fixed:
                return GapResult(
                    problem=problem,
                    status="fixed-point",
                    constant_rounds=None,
                    algorithm=None,
                    zero_round=None,
                    alphabet_sizes=alphabet_sizes,
                    fixed_point_at=step,
                    sequence=sequence,
                )
    return _unknown(
        problem,
        sequence,
        alphabet_sizes,
        examined,
        "step budget exhausted without stabilization",
    )


def verify_on_random_forests(
    result: GapResult,
    component_sizes=(7, 5, 3, 1),
    trials: int = 5,
    seed: int = 0,
) -> bool:
    """Run the synthesized algorithm on random forests and check outputs.

    Inputs are drawn uniformly from ``Σ_in``; identifiers are random from
    a polynomial range.  Returns ``True`` iff every trial yields a valid
    solution (and raises via the simulator if the algorithm overdraws its
    declared radius).

    The seeded trial family lives in :mod:`repro.verify.transcript` so
    that certificates record and re-derive exactly the instances this
    function checks; this wrapper keeps the historical engine-side entry
    point.
    """
    from repro.verify.transcript import verify_algorithm_on_random_forests

    if result.algorithm is None:
        raise ValueError("result carries no synthesized algorithm to verify")
    return verify_algorithm_on_random_forests(
        result.problem,
        result.algorithm,
        component_sizes=component_sizes,
        trials=trials,
        seed=seed,
    )
