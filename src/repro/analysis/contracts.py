"""The declarative contract registry shared by every rule family.

This module is the single place where the project's determinism
*vocabulary* lives, so the set-order rules (REP002 and the
interprocedural REP010), the fork-safety rule (REP011), and the
engine-freedom rules (REP003/REP012) can never drift apart on what
counts as a source, a sink, or an entrypoint.

Everything here is data, not behavior:

* **ordered-output surfaces** — module stems/packages whose bytes must
  be identical across processes (REP002's scope, REP010's sink modules);
* **taint sources** — the expression shapes that introduce
  nondeterminism (unseeded RNG, unordered iteration, wall clock,
  ``os.environ``);
* **sink verbs** — the function-name shapes that serialize, hash, or
  persist a value (``encode*``, ``canonical*``, ``append``ing to a
  journal, ...);
* **fork entrypoints** — where execution crosses into a forked child
  (``@register_runner`` cell runners, the supervisor and scheduler child
  entries);
* **engine-freedom frontier** — checker roots, producer exemptions, and
  forbidden engine packages.

``tests/test_lint_contracts.py`` asserts the tables stay in sync with
the real tree: every public serialization entrypoint of the
canonical/codec/journal/encode modules must be classified as
a sink by :func:`is_sink_name`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

# --------------------------------------------------------------------------
# Ordered-output surfaces (REP002 scope; REP010 sink modules).
# --------------------------------------------------------------------------

#: File stems whose whole module is an ordered-output surface: their
#: public functions produce bytes/structures that must be identical
#: across processes and label spellings.
ORDERED_OUTPUT_STEMS = frozenset(
    {"bitset", "canonical", "codec", "encode", "journal"}
)

#: Any module inside a package with one of these segments is an
#: ordered-output surface (the certificate envelope tree).
ORDERED_OUTPUT_PACKAGES = frozenset({"verify"})

#: Builtins that consume an iterable order-insensitively; feeding them
#: an unordered iterable is safe, and their result sheds order taint.
ORDER_INSENSITIVE_SINKS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: Dict methods returning unordered-contract views (dict order is
#: insertion order, which is itself a process artifact for our
#: canonical-bytes purposes).
UNORDERED_VIEW_METHODS = frozenset({"keys", "values", "items"})


def is_ordered_output_module(stem: str, segments: Sequence[str]) -> bool:
    """Whether ``module`` (file stem + dotted segments) is an
    ordered-output surface."""
    if stem in ORDERED_OUTPUT_STEMS:
        return True
    return bool(ORDERED_OUTPUT_PACKAGES & set(segments[:-1]))


# --------------------------------------------------------------------------
# Sink verbs (REP010): function names that serialize/hash/persist.
# --------------------------------------------------------------------------

#: Name prefixes marking a function as a serialization/persistence sink
#: *when it lives in an ordered-output module*.  A tainted value passed
#: into one of these crosses from "in-memory" to "bytes someone will
#: compare".
SINK_NAME_PREFIXES: Tuple[str, ...] = (
    "encode",
    "canonical",
    "serialize",
    "checksum",
    "digest",
    "dump",
    "write",
    "save",
    "append",
    "record",
    "pack",
    "store",
    "fingerprint",
)

#: Method names that persist their argument when invoked on a receiver
#: whose name mentions one of :data:`SINK_RECEIVER_HINTS` (catches
#: ``journal.append(row)`` / ``self._checkpoint.write(...)`` where the
#: receiver type is invisible statically).
SINK_METHOD_NAMES = frozenset({"append", "write", "save", "record", "add_row"})

#: Receiver-name fragments that mark an attribute call as a persistence
#: sink (``self._journal``, ``run_journal``, ``checkpoint`` ...).
SINK_RECEIVER_HINTS = frozenset({"journal", "checkpoint", "certificate", "envelope"})


def is_sink_name(name: str) -> bool:
    """Whether a function *name* has a sink verb shape."""
    return name.lstrip("_").startswith(SINK_NAME_PREFIXES)


def is_sink_function(qualname: str) -> bool:
    """Whether a project function qualname is a serialization sink:
    a sink-verb name defined in an ordered-output module."""
    parts = qualname.split(".")
    if len(parts) < 2:
        return False
    name = parts[-1]
    # The defining module may be `pkg.codec` (function) or
    # `pkg.codec.Class` (method) — scan every candidate module prefix.
    for end in range(1, len(parts)):
        stem = parts[end - 1]
        if is_ordered_output_module(stem, parts[:end]) and is_sink_name(name):
            return True
    return False


def sink_method_receiver(receiver_parts: Sequence[str], method: str) -> Optional[str]:
    """Classify an attribute call ``a.b.method(x)`` as a sink from the
    receiver's *name* alone; returns a short sink description or None.

    ``receiver_parts`` are the dotted name parts of the receiver
    expression (``self._journal`` -> ``("self", "_journal")``).
    """
    if method not in SINK_METHOD_NAMES:
        return None
    for part in receiver_parts:
        lowered = part.lstrip("_").lower()
        for hint in SINK_RECEIVER_HINTS:
            if hint in lowered:
                return f"{'.'.join(receiver_parts)}.{method}"
    return None


# --------------------------------------------------------------------------
# Taint sources.
# --------------------------------------------------------------------------

#: Taint kinds tracked by the dataflow engine.
TAINT_RNG = "unseeded-rng"
TAINT_ORDER = "set-order"
TAINT_CLOCK = "wall-clock"
TAINT_ENV = "environ"

ALL_TAINT_KINDS = (TAINT_RNG, TAINT_ORDER, TAINT_CLOCK, TAINT_ENV)

#: ``random``-module callables backed by the hidden global generator
#: (shared with REP001).
GLOBAL_RANDOM_FUNCTIONS = frozenset(
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

#: Wall-clock reads (shared with REP005).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Environment reads whose value is ambient process state.
ENVIRON_CALLS = frozenset({"os.getenv", "os.environ.get"})


# --------------------------------------------------------------------------
# Fork entrypoints (REP011).
# --------------------------------------------------------------------------

#: Decorator name whose decorated function runs inside a forked
#: scheduler worker (``@register_runner("name")`` in repro.supervisor).
FORK_RUNNER_DECORATORS = frozenset({"register_runner"})

#: Qualname suffixes that are fork-child entrypoints by construction.
FORK_ENTRYPOINT_SUFFIXES: Tuple[str, ...] = (
    "supervisor.isolation._execute",
    "scheduler.worker._worker_main",
)

#: Module-level constructor calls considered unpicklable when a
#: fork-reachable function references the global they are bound to.
UNPICKLABLE_GLOBAL_CALLS = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition", "open"}
)


# --------------------------------------------------------------------------
# Engine-freedom frontier (REP003 module-level, REP012 call-level).
# --------------------------------------------------------------------------

#: Package segments marking the import-pure checker roots.
CHECKER_PACKAGES = frozenset({"verify"})

#: Final segments of modules declared producer-side (lazily loaded, may
#: use the engine); both the import-graph rule and the call-graph rule
#: treat them as a sanctioned boundary.
PRODUCER_STEMS = frozenset({"certify"})

#: Package segments the checker half must never reach.
FORBIDDEN_ENGINE_SEGMENTS = frozenset({"roundelim", "decidability"})


def is_checker_module(module: str) -> bool:
    parts = module.split(".")
    return bool(CHECKER_PACKAGES & set(parts)) and parts[-1] not in PRODUCER_STEMS


def is_producer_module(module: str) -> bool:
    parts = module.split(".")
    return bool(CHECKER_PACKAGES & set(parts)) and parts[-1] in PRODUCER_STEMS


def is_engine_module(module: str) -> bool:
    return bool(FORBIDDEN_ENGINE_SEGMENTS & set(module.split(".")))
