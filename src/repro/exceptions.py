"""Exception hierarchy for the ``repro`` package.

Every error deliberately raised by this library derives from
:class:`ReproError` so downstream users can catch library failures with a
single ``except`` clause while letting programming errors (``TypeError``,
``KeyError`` from internal bugs, ...) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Malformed graph structure (bad ports, dangling half-edges, ...)."""


class LabelingError(ReproError):
    """A half-edge labeling is structurally invalid for its graph."""


class ProblemDefinitionError(ReproError):
    """An LCL problem definition is inconsistent or incomplete."""


class SimulationError(ReproError):
    """A model simulation (LOCAL / VOLUME / PROD-LOCAL) cannot proceed."""


class NodeExecutionError(SimulationError):
    """A node's per-node computation crashed inside the simulator.

    Wraps any non-:class:`ReproError` exception escaping an algorithm's
    ``run``/``step`` callback so that supervisors and campaign runners
    receive a *structured* failure — which node crashed, in which
    algorithm, at what delegation depth — instead of an anonymous
    ``KeyError`` three frames deep.  The original exception is chained
    as ``__cause__`` and the full traceback is what a quarantined cell
    records.
    """

    def __init__(self, message: str, node: int, algorithm: str):
        super().__init__(message)
        self.node = node
        self.algorithm = algorithm


class ProbeError(SimulationError):
    """An invalid probe was issued in the VOLUME / LCA model."""


class AlgorithmError(ReproError):
    """An algorithm produced output outside its declared contract."""


class UnsolvableError(ReproError):
    """The requested instance admits no correct solution."""


class DecidabilityError(ReproError):
    """A decision procedure was invoked outside its supported fragment."""


class BudgetExceededError(ReproError):
    """A cooperative resource budget was exhausted mid-computation.

    Carries machine-readable diagnostics (see
    :class:`repro.utils.budget.BudgetDiagnostics`): which limit tripped,
    the observed value, the elapsed wall time, how many configurations
    were enumerated, and — when the budget was attached to a sequence
    walk — the round-elimination step that was in progress.  Callers such
    as :func:`repro.roundelim.gap.speedup` convert this into a structured
    ``UNKNOWN(>= step k)`` verdict rather than letting it escape.
    """

    def __init__(self, diagnostics):
        super().__init__(str(diagnostics))
        self.diagnostics = diagnostics


class BruteForceLimitError(ReproError):
    """A brute-force search was asked to explore an instance beyond its
    declared size guard.

    :func:`repro.lcl.checker.brute_force_solution` is exponential in the
    number of half-edges; this error replaces the former behavior of
    silently running hot on oversized graphs.  Pass ``max_nodes=None``
    to opt back into unguarded search.
    """


class CertificateError(ReproError):
    """A verdict certificate cannot be produced, serialized, or decoded.

    Note the asymmetry with checking: :func:`repro.verify.check_certificate`
    reports tampering/corruption as a failed :class:`~repro.verify.CheckOutcome`
    rather than raising, so a hostile certificate can never crash the
    checker; this error signals *producer-side* failures (unserializable
    labels, a result that carries nothing to certify, malformed files).
    """


class LandscapeError(ReproError):
    """A landscape measurement series or panel is malformed.

    Raised for series that cannot be fitted honestly: empty sample
    grids, NaN/infinite measurements (a crashed cell must become a
    quarantined row, never a poisoned fit), or mismatched ``ns`` /
    ``values`` lengths.  Replaces the former behavior of letting
    ``fit_growth`` crash with an unguarded ``ValueError`` /
    ``ZeroDivisionError`` mid-panel.
    """


class SupervisorError(ReproError):
    """A supervised campaign cannot be configured or safely journaled.

    Signals *caller* errors — an unknown cell runner, a missing journal
    directory, a journal belonging to a different campaign.  Damage to
    journal contents never raises this: torn or corrupt journal lines
    degrade to recomputation of the affected cells, exactly like corrupt
    operator-cache entries do for a resumed sequence walk.
    """


class SchedulerError(SupervisorError):
    """The multi-worker campaign scheduler detected an integrity violation.

    Raised when the lease-based scheduler (:mod:`repro.scheduler`)
    observes something that must never happen under the determinism
    contract — most importantly two completions of the same cell whose
    payloads are *not* bit-identical (duplicate completions are expected
    under at-least-once execution; divergent ones mean a cell runner is
    nondeterministic).  Worker crashes, expired leases, and duplicate-
    but-identical completions never raise this: they are recovered,
    counted, and logged.
    """


class SchedulerHalted(SchedulerError):
    """A scheduled campaign was hard-stopped before finishing.

    Raised by the test-only crash hook (``halt_after``) that simulates
    the scheduler process dying mid-campaign: workers are killed
    immediately, no drain or journal finalization runs, and per-worker
    journal shards are deliberately left on disk for the next
    ``resume=True`` run to recover.
    """

