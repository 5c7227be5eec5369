"""REP010 and REP002 — determinism taint into serialization output.

**REP010** (interprocedural).  The per-file rules catch nondeterminism
*at the statement that commits it*: REP001 sees ``random.random()`` in
library code.  What they provably cannot see is the cross-call shape — a
helper three modules away returns an unseeded sample, the value rides
through two plumbing functions, and only then lands in
``encode_problem`` / ``journal.append`` / ``encode_result``.  Every hop
is individually innocent; the *flow* is the bug, and it is exactly the
class the fresh-interpreter replay suites keep re-discovering
dynamically, one incident at a time.

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
acceptable).

**REP002** is the zero-hop case: inside an ordered-output module the
module's own bytes are the sink, so every iteration over an unordered
value (a ``set``, a dict view, or a variable holding one) is reported
where the summary extractor creates its set-order taint — unless an
order-insensitive builtin (``sorted``, ``min``, ``len``, ``set``, ...)
consumes the comprehension directly, or it builds a set.  Wrap the
iterable in ``sorted(...)``, or suppress with a justification when the
loop is genuinely order-free.  A set-order flow born at such a site and
sunk in the same file is left to REP002; REP010 reports the rest.
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
        for hit in project.whole_program.taint_hits():
            yield project.finding(
                self.code,
                hit.path,
                hit.line,
                f"nondeterministic value ({hit.kind}) reaches serialization "
                f"sink {hit.sink}; flow: {' -> '.join(hit.chain)}",
            )


@register
class UnorderedIterationRule(Rule):
    code = "REP002"
    name = "unordered iteration in an ordered-output module"
    rationale = (
        "Canonical forms, codecs, checkpoints, and certificates must be "
        "byte-identical across processes; set/dict-view iteration order is "
        "a process artifact and must pass through sorted() first."
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        for site in project.whole_program.order_sites():
            yield project.finding(
                self.code,
                site.path,
                site.line,
                f"iterating {site.reason} in an ordered-output module threads "
                "hash/insertion order into canonical bytes; wrap the iterable "
                "in sorted(...)",
                col=site.col,
            )
