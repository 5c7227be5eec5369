"""REP012 — summary-based engine freedom for the certificate checker.

REP003 proves ``import repro.verify`` cannot *load* the engine: it walks
module-level import statements only, because function-level imports are
the sanctioned lazy-loading idiom.  But that sanctioning leaves a gap
REP003 cannot close by construction: a checker function that does

.. code-block:: python

    def check_certificate(cert):
        from repro.roundelim.ops import apply_round  # lazily, so REP003 is blind
        return apply_round(...) == cert.claimed

keeps the import graph clean while still *executing* the engine during
verification — precisely what certificate independence forbids.  The
dynamic fresh-interpreter test only catches this if the offending branch
happens to run.

This rule closes the gap with the call half of the engine's reach walk
(:meth:`~repro.analysis.dataflow.WholeProgram.engine_reach`, shared with
REP003): function-level imports register as alias-resolved *call edges*
in the per-function summaries, so walking calls from every checker-module
function reaches the lazy case REP003 must ignore.  The producer half
(``certify``) remains the single sanctioned boundary — the walk does not
enter it.  Each checker function reports its shallowest engine crossing,
anchored at the first outgoing call edge of the chain.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.core import Finding, Project, Rule, register


@register
class EngineFreeCallRule(Rule):
    code = "REP012"
    name = "engine call reachable from the certificate checker"
    rationale = (
        "A certificate is independent evidence only if *checking* it never "
        "executes the engine that produced it — including through lazy "
        "function-level imports that the module-level import rule (REP003) "
        "deliberately exempts."
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        for reach in project.whole_program.engine_reach():
            if reach.calls:
                yield project.finding(
                    self.code,
                    reach.path,
                    reach.line,
                    f"checker function {reach.root} reaches engine function "
                    f"{reach.target} through calls ({' -> '.join(reach.chain)}); "
                    "checking a certificate must not execute the engine",
                )
