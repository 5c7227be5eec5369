"""REP010 — interprocedural determinism taint into serialization sinks.

The single-pass rules catch nondeterminism *at the statement that
commits it*: REP002 sees a set iterated inside a codec module, REP001
sees ``random.random()`` in library code.  What they provably cannot see
is the cross-call shape — a helper three modules away returns an
unseeded sample, the value rides through two plumbing functions, and
only then lands in ``encode_problem`` / ``journal.append`` /
``encode_result``.  Every hop is individually innocent; the *flow* is
the bug, and it is exactly the class the fresh-interpreter replay suites
keep re-discovering dynamically, one incident at a time.

This rule consumes the whole-program engine
(:mod:`repro.analysis.dataflow`): per-function summaries propagated to a
fixed point over the project call graph, covering both directions —

* **return flows**: a taint born in a callee travels back through
  return values into a sink argument, and
* **argument flows**: a tainted value is passed down through call
  arguments into a function whose parameter (transitively) feeds a sink.

Findings are anchored at the **sink call line** with the full witness
chain in the message, so a single suppression on the sink line silences
the whole chain (the sink is where a human must decide the flow is
acceptable).  Set-order taint that both originates and sinks inside one
ordered-output module is left to REP002, which already flags the
iteration line itself.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.core import Finding, Project, Rule, register


@register
class InterproceduralTaintRule(Rule):
    code = "REP010"
    name = "nondeterministic value reaches a serialization sink across calls"
    rationale = (
        "Canonical bytes, journals, and checkpoints must be pure functions of "
        "their logical inputs; a value born from unseeded RNG, set/dict-view "
        "order, the wall clock, or os.environ that flows into them — through "
        "any number of intermediate calls — makes recorded artifacts "
        "unreproducible."
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        if not project.facts:
            return
        engine = project.whole_program
        for hit in engine.taint_hits():
            view = next(
                (v for v in project.views if v.rel_path == hit.path), None
            )
            chain = " -> ".join(hit.chain)
            yield Finding(
                rule=self.code,
                path=hit.path,
                line=hit.line,
                col=1,
                message=(
                    f"nondeterministic value ({hit.kind}) reaches serialization "
                    f"sink {hit.sink}; flow: {chain}"
                ),
                source_line=view.source_line(hit.line) if view is not None else "",
            )
