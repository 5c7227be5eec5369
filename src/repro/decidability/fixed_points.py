"""Round-elimination fixed points as lower-bound certificates.

The "standard use case" of round elimination (§1.1) is proving lower
bounds for concrete problems: if ``f(Π) = R̄(R(Π))`` is (equivalent to)
``Π`` itself and ``Π`` is not 0-round solvable, then no ``o(log* n)``
algorithm exists — by Theorem 3.10, an ``o(log* n)`` algorithm would make
some ``f^k(Π)`` 0-round solvable, but every ``f^k(Π)`` *is* ``Π``.  (For
the classic fixed points, e.g. sinkless orientation [14, 15], the same
structure powers the Ω(log log n) randomized / Ω(log n) deterministic
bounds via the failure-probability recurrence of Theorem 3.4.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.roundelim.sequence import ProblemSequence
from repro.roundelim.zero_round import decide_zero_round


@dataclass(frozen=True)
class FixedPointCertificate:
    """A verified fixed point of the round elimination step."""

    problem: NodeEdgeCheckableLCL
    #: Elimination depth at which the fixed point appears.
    depth: int
    #: The fixed-point problem itself (f^depth, isomorphic to f^{depth+1}).
    fixed_problem: NodeEdgeCheckableLCL
    #: True if the fixed point is 0-round solvable (then it certifies
    #: nothing: the problem is constant-time).
    zero_round_solvable: bool

    @property
    def certifies_lower_bound(self) -> bool:
        """Does this certificate rule out o(log* n) algorithms?"""
        return not self.zero_round_solvable

    def summary(self) -> str:
        verdict = (
            "NOT o(log* n)-solvable (fixed point without 0-round algorithm)"
            if self.certifies_lower_bound
            else "0-round solvable fixed point (no lower bound)"
        )
        return (
            f"{self.problem.name}: round-elimination fixed point at depth "
            f"{self.depth}; {verdict}"
        )


def find_fixed_point_certificate(
    problem: NodeEdgeCheckableLCL,
    max_steps: int = 4,
    max_universe: int = 4096,
) -> Optional[FixedPointCertificate]:
    """Search the f-sequence of ``problem`` for a fixed point.

    Uses hygiene + domination pruning (label-level, solvability-
    preserving), under which e.g. sinkless orientation stabilizes after a
    single step.  Returns ``None`` if no fixed point appears within the
    step budget (which is how Θ(log* n) problems behave — their alphabets
    keep growing).
    """
    sequence = ProblemSequence(
        problem, use_domination=True, max_universe=max_universe
    )
    depth = sequence.find_fixed_point(max_steps)
    if depth is None:
        return None
    fixed_problem = sequence.problem(depth)
    # Decision-only: the certificate records *whether* the fixed point is
    # 0-round solvable, so the rule table is never needed.
    return FixedPointCertificate(
        problem=problem,
        depth=depth,
        fixed_problem=fixed_problem,
        zero_round_solvable=decide_zero_round(fixed_problem),
    )
