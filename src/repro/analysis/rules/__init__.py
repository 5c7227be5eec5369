"""Built-in lint rules.  Importing this package registers every rule
with :data:`repro.analysis.core.RULE_REGISTRY` (the decorator pattern —
a new rule module only needs to be imported here to ship)."""

from repro.analysis.rules import (  # noqa: F401
    enginefree_calls,
    envknobs,
    forksafety,
    hygiene,
    interproc,
    purity,
    randomness,
    wallclock,
)
