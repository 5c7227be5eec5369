"""Static analysis for the gap pipeline: ``repro-lint``.

The pipeline's headline guarantees — relabeling-invariant canonical
hashes, bit-identical resume from the operator cache, engine-free and
seed-replayable certificates — rest on invariants that used to be enforced only
dynamically, after the fact, by fresh-interpreter and replay test
suites.  This package proves them at lint time, on every file:

========  ==============================================================
REP001    no unseeded / global randomness in library code
REP002    no unordered (set / dict-view) iteration in ordered-output
          modules without ``sorted()`` (engine-backed: the zero-hop
          case of REP010)
REP003    the certificate checker stays statically engine-free
          (engine-backed: the import-edge case of REP012's reach walk)
REP004    retired — pool submission APIs have no call site left
REP005    no wall-clock reads in replay-sensitive paths
REP006    every ``REPRO_*`` knob is declared in ``repro.utils.env`` and
          read through its typed accessors
REP007    no bare ``except:``
REP008    no mutable default arguments
REP009    only ``ReproError`` subclasses cross the public API
REP010    no nondeterministic value reaching a serialization sink across
          calls (interprocedural taint with witness chains)
REP011    no fork-unsafe state (global mutation, unpicklable captures,
          parent-scoped knob reads) reachable from pool/cell workers
REP012    no engine *call* reachable from the certificate checker, even
          through sanctioned lazy function-level imports
========  ==============================================================

REP001 and REP005–REP009 are single-pass, per-file rules.  REP002,
REP003 and REP010–REP012 are views over the whole-program dataflow
engine: per-function summaries and module-level import edges
(:mod:`repro.analysis.summaries`, cached per content hash by
:mod:`repro.analysis.cache`) propagated to a fixed point over the
project call graph (:mod:`repro.analysis.dataflow`) on every run.

Entry points: the ``repro-lint`` console script, ``python -m
repro.analysis``, and the ``lcl-landscape lint`` verb.  See
``docs/STATIC_ANALYSIS.md`` for the rule catalog, suppression syntax
(``# repro-lint: disable=REPXXX``), and the baseline workflow.
"""

from repro.analysis.core import (
    Finding,
    LintResult,
    Project,
    Rule,
    RULE_REGISTRY,
    all_rules,
    register,
    run_lint,
)

__all__ = [
    "Finding",
    "LintResult",
    "Project",
    "Rule",
    "RULE_REGISTRY",
    "all_rules",
    "register",
    "run_lint",
]
