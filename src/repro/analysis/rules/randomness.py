"""REP001 — no unseeded or global-state randomness in library code.

Every guarantee in this pipeline — relabeling-invariant canonical
hashes, bit-identical resume from the operator cache, seed-replayable
certificate transcripts — dies the moment any code path consumes OS
entropy or the shared module-level generator.  Randomized algorithms must draw from an
injected, explicitly seeded generator (``random.Random(seed)`` or
:class:`repro.utils.rng.SplittableRNG`).

Flags:

* calls to module-level ``random.*`` functions (``random.random``,
  ``random.randint``, ``random.shuffle``, ``random.seed``, ...) — these
  all touch the hidden global generator;
* ``random.Random()`` / ``random.SystemRandom(...)`` — the former seeds
  from the OS, the latter *is* the OS;
* ``numpy.random.*`` except ``numpy.random.default_rng(seed)`` with an
  explicit seed argument;
* ``from random import randint, ...`` — importing the global-generator
  functions directly (harder to spot at the call site).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import FileContext, Finding, Rule, register

#: random-module callables backed by the hidden global generator.
_GLOBAL_STATE_FUNCTIONS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "triangular",
        "getrandbits",
        "randbytes",
        "seed",
        "setstate",
        "getstate",
    }
)


@register
class UnseededRandomnessRule(Rule):
    code = "REP001"
    name = "unseeded or global randomness"
    rationale = (
        "Reproducibility requires every random draw to come from an "
        "injected, explicitly seeded generator; global/OS randomness makes "
        "canonical hashes, checkpoints, and certificate replays unstable."
    )
    node_types = (ast.Call, ast.ImportFrom)

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_scaffolding

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                for alias in node.names:
                    if alias.name in _GLOBAL_STATE_FUNCTIONS:
                        yield ctx.finding(
                            self.code,
                            node,
                            f"'from random import {alias.name}' binds the hidden "
                            "global generator; inject a seeded random.Random "
                            "instead",
                        )
            return
        assert isinstance(node, ast.Call)
        qualname = ctx.resolve_qualname(node.func)
        if qualname is None:
            return
        parts = qualname.split(".")
        if parts[0] == "random" and len(parts) == 2:
            attr = parts[1]
            if attr == "Random":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self.code,
                        node,
                        "random.Random() without a seed draws OS entropy; pass "
                        "an explicit seed",
                    )
            elif attr == "SystemRandom":
                yield ctx.finding(
                    self.code,
                    node,
                    "random.SystemRandom is OS entropy by construction and can "
                    "never replay",
                )
            elif attr in _GLOBAL_STATE_FUNCTIONS:
                yield ctx.finding(
                    self.code,
                    node,
                    f"random.{attr}() uses the hidden module-level generator; "
                    "draw from an injected seeded random.Random",
                )
        elif parts[:2] == ["numpy", "random"] and len(parts) >= 3:
            if parts[2] == "default_rng" and (node.args or node.keywords):
                return
            yield ctx.finding(
                self.code,
                node,
                f"{qualname}() uses numpy's global (or unseeded) generator; use "
                "numpy.random.default_rng(seed)",
            )
