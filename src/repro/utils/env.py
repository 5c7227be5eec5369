"""Central registry for every ``REPRO_*`` environment knob.

The pipeline's determinism story depends on knowing *exactly* which
environment variables can change behavior: a knob that only one module
knows about is a knob that no reproducibility audit will ever vary.  This
module is therefore the single source of truth — every ``REPRO_*``
variable read anywhere in the codebase must be declared here with its
type, default, and a docstring, and every read must go through the typed
accessors below (:func:`get_bool` / :func:`get_int` / :func:`get_float` /
:func:`get_str`) or, for call sites with bespoke parsing, :func:`get_raw`.

The contract is enforced statically by lint rule ``REP006``
(:mod:`repro.analysis.rules.envknobs`): a ``REPRO_*`` string literal that
does not name a registered knob, or a direct ``os.environ`` /
``os.getenv`` read of one outside this module, fails ``repro-lint``.

``lcl-landscape lint --env`` prints the registered table
(:func:`render_table`).

This module deliberately imports nothing from :mod:`repro` so that any
package — including the import-pure :mod:`repro.verify` checker half —
can depend on it without dragging machinery along.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

logger = logging.getLogger(__name__)

#: Strings (lower-cased) that parse as ``False`` for boolean knobs.
FALSE_STRINGS = ("0", "false", "off", "no")


@dataclass(frozen=True)
class EnvKnob:
    """Declaration of one ``REPRO_*`` environment variable."""

    name: str
    type: str  # one of "bool", "int", "float", "str"
    default: Any
    doc: str
    #: Where the knob may be read: ``"any"`` (default) or ``"parent"`` —
    #: parent-scoped knobs configure the supervising process and must be
    #: resolved *before* forking; re-reading one inside a scheduler worker
    #: silently picks up whatever environment the worker inherited, which
    #: lint rule REP011 flags.
    scope: str = "any"

    def describe_default(self) -> str:
        return "unset" if self.default is None else repr(self.default)


#: name -> declaration; populated by :func:`declare` at import time.
REGISTRY: Dict[str, EnvKnob] = {}

_VALID_TYPES = ("bool", "int", "float", "str")
_VALID_SCOPES = ("any", "parent")


def declare(name: str, type: str, default: Any, doc: str, scope: str = "any") -> EnvKnob:
    """Register a knob (idempotent for identical re-declarations)."""
    if not name.startswith("REPRO_"):
        raise ValueError(f"environment knobs must be REPRO_-prefixed, got {name!r}")
    if type not in _VALID_TYPES:
        raise ValueError(f"knob type must be one of {_VALID_TYPES}, got {type!r}")
    if scope not in _VALID_SCOPES:
        raise ValueError(f"knob scope must be one of {_VALID_SCOPES}, got {scope!r}")
    knob = EnvKnob(
        name=name, type=type, default=default, doc=" ".join(doc.split()), scope=scope
    )
    existing = REGISTRY.get(name)
    if existing is not None and existing != knob:
        raise ValueError(f"conflicting re-declaration of knob {name}")
    REGISTRY[name] = knob
    return knob


def parent_scoped_knobs() -> frozenset:
    """Names of knobs that must only be read in the supervising process."""
    return frozenset(name for name, knob in REGISTRY.items() if knob.scope == "parent")


def _require(name: str) -> EnvKnob:
    knob = REGISTRY.get(name)
    if knob is None:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"undeclared environment knob {name!r}; declared: {known}")
    return knob


def get_raw(name: str) -> Optional[str]:
    """The raw string value of a *declared* knob, or ``None`` when unset.

    Call sites with parsing semantics the typed accessors cannot express
    (dynamic defaults, floors) read through here so the declaration
    requirement still holds.
    """
    _require(name)
    return os.environ.get(name)


def get_str(name: str) -> Optional[str]:
    """String knob: unset or empty reads as the declared default."""
    knob = _require(name)
    raw = os.environ.get(name)
    if not raw:
        return knob.default
    return raw


def get_bool(name: str) -> bool:
    """Boolean knob: ``0 / false / off / no`` (any case) is ``False``,
    any other non-empty value is ``True``, unset is the default."""
    knob = _require(name)
    raw = os.environ.get(name)
    if raw is None:
        return bool(knob.default)
    return raw.strip().lower() not in FALSE_STRINGS


def get_int(name: str) -> Optional[int]:
    """Integer knob; a malformed value logs a warning and reads as the
    default rather than crashing the process at import time."""
    knob = _require(name)
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return knob.default
    try:
        return int(raw)
    except ValueError:
        logger.warning("ignoring non-integer %s=%r", name, raw)
        return knob.default


def get_float(name: str) -> Optional[float]:
    """Float knob; malformed values warn and fall back like :func:`get_int`."""
    knob = _require(name)
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return knob.default
    try:
        return float(raw)
    except ValueError:
        logger.warning("ignoring non-numeric %s=%r", name, raw)
        return knob.default


def render_table() -> str:
    """The knob table printed by ``lcl-landscape lint --env``."""
    rows = [("knob", "type", "default", "description")]
    for name in sorted(REGISTRY):
        knob = REGISTRY[name]
        rows.append((knob.name, knob.type, knob.describe_default(), knob.doc))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for index, (name, type_, default, doc) in enumerate(rows):
        lines.append(
            f"{name:<{widths[0]}}  {type_:<{widths[1]}}  {default:<{widths[2]}}  {doc}"
        )
        if index == 0:
            lines.append(
                f"{'-' * widths[0]}  {'-' * widths[1]}  {'-' * widths[2]}  {'-' * 11}"
            )
    return "\n".join(lines)


# --------------------------------------------------------------- declarations
# The complete catalog of environment knobs recognized by the pipeline.
# Lint rule REP006 cross-checks every REPRO_* literal in the tree against
# this registry, so adding a knob anywhere else fails `repro-lint`.

declare(
    "REPRO_CACHE",
    "bool",
    True,
    "Master switch for the canonical operator cache; 0/false/off/no computes "
    "everything from scratch.",
)
declare(
    "REPRO_CACHE_DIR",
    "str",
    None,
    "Directory for the on-disk cache layer (one JSON file per entry, written "
    "atomically); unset keeps the cache memory-only.",
)
declare(
    "REPRO_CACHE_MAX_BYTES",
    "int",
    None,
    "Size bound for the on-disk cache layer; least-recently-used entries are "
    "evicted once the total exceeds it.",
)
declare(
    "REPRO_BITSET",
    "bool",
    True,
    "Compiled bitset backend for the round-elimination operators and label "
    "hygiene (numpy bitmask kernels); 0/false/off/no forces the pure-Python "
    "oracle path.  Every node degree is compiled; the only shapes that fall "
    "back to the oracle automatically are a base alphabet over 64 labels, an "
    "empty alphabet, and configurations too wide to pack into one 64-bit word.",
)
declare(
    "REPRO_BITSET_DIFF_COUNT",
    "int",
    100,
    "Population size for the bitset-vs-oracle differential fuzz sweep "
    "(tests marked 'fuzz' in tests/test_bitset_differential.py).",
)
declare(
    "REPRO_SAT",
    "bool",
    False,
    "Retired: the SAT backend is gone and this knob has no effect.  It "
    "stays declared only because the benchmark harness still reads it, and "
    "goes with the next benchmark change.",
)
declare(
    "REPRO_FAULTS",
    "str",
    "",
    "Deterministic fault-injection spec, e.g. 'sim_crash:0.1,"
    "cache_corrupt:0.02'; empty disables the harness.",
)
declare(
    "REPRO_FAULTS_SEED",
    "int",
    0,
    "Seed for the fault-injection plan; the same spec+seed fires the same "
    "faults at the same injection points on every run.",
)
declare(
    "REPRO_CELL_TIMEOUT",
    "float",
    120.0,
    "Per-cell wall-clock limit in seconds for supervised campaign cells "
    "(repro.supervisor); a cell exceeding it is killed and retried, then "
    "quarantined as 'timeout'.",
    scope="parent",
)
declare(
    "REPRO_CELL_MEM_MB",
    "int",
    None,
    "Address-space cap in MiB applied via resource.setrlimit once in each "
    "campaign worker process, so it covers the whole worker: the cell running "
    "now plus whatever earlier cells left allocated.  Resolved by the "
    "supervising parent and handed to the worker, never re-read there.",
    scope="parent",
)
declare(
    "REPRO_CELL_RETRIES",
    "int",
    1,
    "Bounded retry attempts for a failed supervised cell beyond the first "
    "try (each attempt re-derives its RNG from scratch); exhaustion "
    "quarantines the cell.",
    scope="parent",
)
declare(
    "REPRO_JOURNAL_DIR",
    "str",
    None,
    "Default directory for append-only, checksummed campaign run journals "
    "(the landscape --journal flag overrides it).",
    scope="parent",
)
declare(
    "REPRO_SCHED_WORKERS",
    "int",
    None,
    "Concurrent worker processes for the lease-based campaign scheduler "
    "(repro.scheduler); defaults to min(usable CPUs, 4), counting the CPUs "
    "the process's affinity set allows.  Resolved by the "
    "scheduling parent, never re-read in a worker.",
    scope="parent",
)
declare(
    "REPRO_SCHED_LEASE_SECS",
    "float",
    5.0,
    "Lease duration in seconds for scheduler-dispatched cells; a worker "
    "whose heartbeats stop for this long is presumed dead, killed, and its "
    "cell re-dispatched (at-least-once execution with bit-identical dedup).",
    scope="parent",
)
declare(
    "REPRO_SCHED_BACKOFF_BASE",
    "float",
    0.05,
    "Base delay in seconds for the deterministic seeded retry backoff "
    "between cell attempts; 0 disables backoff.  Applied only to transient "
    "failures (timeout/oom/signal/lost), never to deterministic errors.",
    scope="parent",
)
declare(
    "REPRO_SCHED_BACKOFF_FACTOR",
    "float",
    2.0,
    "Exponential growth factor for the retry backoff: attempt k waits "
    "base * factor**k (capped, jittered).",
    scope="parent",
)
declare(
    "REPRO_SCHED_BACKOFF_MAX",
    "float",
    30.0,
    "Upper bound in seconds on any single retry-backoff delay.",
    scope="parent",
)
declare(
    "REPRO_SCHED_BACKOFF_JITTER",
    "float",
    0.5,
    "Multiplicative jitter fraction in [0, 1] for retry backoff; the delay "
    "is scaled by a deterministic per-(cell, attempt) draw in [1-jitter, 1] "
    "derived from the campaign seed, so replays back off identically.",
    scope="parent",
)
declare(
    "REPRO_LINT_CACHE",
    "bool",
    True,
    "Incremental per-file cache for repro-lint (content-hash keyed; skips "
    "re-parsing unchanged files); 0/false/off/no analyzes every file from "
    "scratch.  Cached and uncached runs produce byte-identical reports.",
)
declare(
    "REPRO_LINT_CACHE_DIR",
    "str",
    ".repro-lint-cache",
    "Directory for repro-lint's incremental cache records (one JSON file "
    "per linted source file, written atomically).",
)
declare(
    "REPRO_CONFORMANCE_COUNT",
    "int",
    200,
    "Population size for the conformance fuzz sweep (tests marked 'fuzz'); "
    "CI's nightly job runs 5x the default.",
)
