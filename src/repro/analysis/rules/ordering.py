"""REP002 — no unordered iteration feeding canonical/serialized output.

Canonical hashing (:mod:`repro.roundelim.canonical`), the label codec
(:mod:`repro.lcl.codec`), campaign journals
(:mod:`repro.supervisor.journal`), and certificate envelopes
(:mod:`repro.verify`) all promise byte-identical output for equal
inputs, across processes and label spellings.  Iterating a ``set`` /
``frozenset`` or a dict view in those modules threads *insertion or hash
order* — a process artifact — straight into the bytes, which is exactly
the class of bug the fresh-interpreter and replay suites keep catching
dynamically.  This rule catches it at lint time.

Within the ordered-output modules the rule flags ``for`` statements and
comprehensions whose iterable is

* a call to ``set(...)`` / ``frozenset(...)``, or
* a ``.keys()`` / ``.values()`` / ``.items()`` dict view,

unless the iteration result flows directly into an order-insensitive
sink (``sorted``, ``min``, ``max``, ``sum``, ``len``, ``any``, ``all``,
``set``, ``frozenset``).  Wrap the iterable in ``sorted(...)`` (with a
key for mixed-type labels), or suppress with a justification when the
loop is genuinely order-free (e.g. populating a membership set).

The check is syntactic: iteration over a *variable* that happens to hold
a set is invisible to it.  That is deliberate — the rule is the cheap,
always-on tripwire; the hypothesis replay suites remain the semantic
backstop.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.contracts import (
    ORDER_INSENSITIVE_SINKS,
    ORDERED_OUTPUT_PACKAGES,
    ORDERED_OUTPUT_STEMS,
    UNORDERED_VIEW_METHODS,
    is_ordered_output_module,
)
from repro.analysis.core import FileContext, Finding, Rule, register

# Backwards-compatible aliases (the scope tables now live in
# repro.analysis.contracts, shared with REP010/REP011/REP012).
_ORDER_INSENSITIVE_SINKS = ORDER_INSENSITIVE_SINKS
_VIEW_METHODS = UNORDERED_VIEW_METHODS


def _unordered_reason(iterable: ast.expr) -> Optional[str]:
    """Why ``iterable`` is unordered, or ``None`` when it is not."""
    if isinstance(iterable, ast.Call):
        func = iterable.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"a {func.id}()"
        if isinstance(func, ast.Attribute) and func.attr in _VIEW_METHODS:
            return f"a .{func.attr}() dict view"
    if isinstance(iterable, (ast.SetComp, ast.Set)):
        return "a set literal/comprehension"
    return None


def _sink_call_name(node: ast.AST) -> Optional[str]:
    parent = getattr(node, "parent", None)
    if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
        if node in parent.args:
            return parent.func.id
    return None


@register
class UnorderedIterationRule(Rule):
    code = "REP002"
    name = "unordered iteration in an ordered-output module"
    rationale = (
        "Canonical forms, codecs, checkpoints, and certificates must be "
        "byte-identical across processes; set/dict-view iteration order is "
        "a process artifact and must pass through sorted() first."
    )
    node_types = (ast.For, ast.comprehension)

    def applies_to(self, ctx: FileContext) -> bool:
        return is_ordered_output_module(ctx.path.stem, ctx.segments)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        iterable = node.iter
        reason = _unordered_reason(iterable)
        if reason is None:
            return
        if isinstance(node, ast.comprehension):
            # The comprehension's owner (GeneratorExp/ListComp/...) may be
            # the direct argument of an order-insensitive sink.
            owner = getattr(node, "parent", None)
            if owner is not None and _sink_call_name(owner) in _ORDER_INSENSITIVE_SINKS:
                return
            anchor: ast.AST = iterable
        else:
            anchor = node
        yield ctx.finding(
            self.code,
            anchor,
            f"iterating {reason} in an ordered-output module threads hash/"
            "insertion order into canonical bytes; wrap the iterable in "
            "sorted(...)",
        )
