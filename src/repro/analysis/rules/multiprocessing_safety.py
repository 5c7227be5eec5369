"""REP004 — pool-bound callables must be module-level and picklable.

Process pools ship callables to child processes by pickle.  A lambda or
a function defined inside another function pickles by *qualified name*,
which fails at runtime — but only on the parallel path, which is exactly
the path unit tests exercise least.  Worse, under the ``fork`` start
method a closure can *appear* to work while silently capturing parent
state that diverges on retry.

Flags lambda arguments and nested-function-name arguments in calls to
pool submission APIs: ``<pool>.submit``, ``apply_async``, ``map_async``,
``imap`` / ``imap_unordered``, and their ``func=`` / ``initializer=``
keywords.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Tuple

from repro.analysis.core import FileContext, Finding, Rule, register

_SUBMIT_ATTRS = frozenset(
    {"submit", "apply_async", "map_async", "imap", "imap_unordered"}
)
_CALLABLE_KEYWORDS = frozenset({"func", "initializer"})


def _callable_args(node: ast.Call) -> Iterator[Tuple[str, ast.expr]]:
    """The (description, expression) pairs of pool-bound callables in a
    submission call, or nothing when the call is not a submission."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in _SUBMIT_ATTRS):
        return
    if node.args:
        yield "argument 1", node.args[0]
    for keyword in node.keywords:
        if keyword.arg in _CALLABLE_KEYWORDS:
            yield f"keyword {keyword.arg!r}", keyword.value


@register
class PoolCallableRule(Rule):
    code = "REP004"
    name = "unpicklable callable handed to a worker pool"
    rationale = (
        "Pool workers receive callables by pickle; lambdas and nested "
        "functions fail (or silently capture divergent closure state under "
        "fork) only on the parallel path, where tests look least."
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        for where, value in _callable_args(node):
            if isinstance(value, ast.Lambda):
                yield ctx.finding(
                    self.code,
                    value,
                    f"lambda passed as {where} of a pool submission cannot be "
                    "pickled into a worker; use a module-level function",
                )
            elif (
                isinstance(value, ast.Name)
                and value.id in ctx.nested_function_names
            ):
                yield ctx.finding(
                    self.code,
                    value,
                    f"nested function {value.id!r} passed as {where} of a pool "
                    "submission; closures do not pickle — hoist it to module "
                    "level",
                )
