"""REP003 — the certificate checker must be statically engine-free.

``import repro.verify`` must never execute the round-elimination engine
(:mod:`repro.roundelim`) or the decidability stack
(:mod:`repro.decidability`): a certificate is only trustworthy evidence
if the machinery that produced the verdict plays no part in checking it.
The producer half (``repro.verify.certify``) is the single declared
exception, reachable only through lazy PEP 562 attribute access.

A view over the engine's reach walk
(:meth:`~repro.analysis.dataflow.WholeProgram.engine_reach`): from every
checker-half module under a ``verify`` package it follows module-level
import edges (:mod:`repro.analysis.imports`) and reports the first edge
of each chain that enters a forbidden module.  Function-level imports
do not count — they *are* the sanctioned lazy-loading idiom, and the
call-chain half of the same walk (REP012) covers what they execute.

The dynamic complement is the fresh-interpreter test
(``tests/test_certificates.py::test_check_certificate_is_engine_free``),
which catches what static analysis cannot (``importlib`` tricks,
``__getattr__`` that eagerly imports); this rule catches what the
dynamic test cannot — a violating import on a code path the test run
never touches.  ``tests/test_lint_selfcheck.py`` asserts the two agree.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.core import Finding, Project, Rule, register


@register
class EngineFreeImportRule(Rule):
    code = "REP003"
    name = "engine import reachable from the certificate checker"
    rationale = (
        "Certificates are independent evidence only while 'import "
        "repro.verify' cannot execute the engine that produced them; the "
        "checker half must stay statically unreachable from repro.roundelim "
        "and repro.decidability."
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        for reach in project.whole_program.engine_reach():
            if not reach.calls:
                yield project.finding(
                    self.code,
                    reach.path,
                    reach.line,
                    f"checker module {reach.root!r} reaches engine module "
                    f"{reach.target!r} via module-level imports "
                    f"({' -> '.join(reach.chain)}); move the import into the "
                    "function that needs it",
                )
