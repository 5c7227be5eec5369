"""Deterministic seeded retry backoff for supervised cells.

Without it, a failed cell's attempt ``N+1`` would fire immediately after
the failure — correct, but hostile to the very hosts the retry is
trying to outlive: a transiently-OOMing or overloaded machine gets
hammered with back-to-back re-executions.  This module adds the missing
pause, with two properties the supervisor's contracts demand:

* **Deterministic.**  Every delay is a pure function of
  ``(campaign seed, cell id, attempt index)`` via the same
  :class:`~repro.utils.rng.SplittableRNG` derivation the cells use, so
  a replayed campaign backs off for exactly the same durations and the
  recorded ``delays`` in a :class:`~repro.supervisor.cells.CellResult`
  payload are auditable against the seed.  No global RNG state is
  consumed.
* **Transience-aware.**  The quarantine taxonomy
  (:data:`repro.supervisor.cells.CLASSIFICATIONS`) splits into
  *transient* kinds — ``timeout`` / ``oom`` / ``signal`` / ``lost``,
  environmental failures that a pause genuinely helps — and the
  *permanent* kind ``error``, a deterministic exception from the cell
  body that will recur no matter how long we wait.  Permanent failures
  are still retried (an injected ``sim_crash`` classifies as ``error``
  and must stay recoverable) but without any delay, recorded as ``0.0``.

The policy is exponential with multiplicative jitter: attempt ``k``
waits ``min(max_delay, base * factor**k)`` scaled by a deterministic
draw in ``[1 - jitter, 1]``.  The ``REPRO_SCHED_BACKOFF_*`` knobs
(:mod:`repro.utils.env`) configure the defaults; the multi-worker
scheduler (:mod:`repro.scheduler`) reuses the identical policy, turning
delays into not-before dispatch times instead of sleeps so a waiting
cell never blocks a worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils import env
from repro.utils.rng import SplittableRNG

ENV_BACKOFF_BASE = "REPRO_SCHED_BACKOFF_BASE"
ENV_BACKOFF_FACTOR = "REPRO_SCHED_BACKOFF_FACTOR"
ENV_BACKOFF_MAX = "REPRO_SCHED_BACKOFF_MAX"
ENV_BACKOFF_JITTER = "REPRO_SCHED_BACKOFF_JITTER"

#: Quarantine classifications worth waiting out: the fault lives in the
#: environment (a hung host, a memory spike, an OOM-killer pass), not in
#: the cell body, so the next attempt has a real chance after a pause.
TRANSIENT_CLASSIFICATIONS = ("timeout", "oom", "signal", "lost")


def is_transient(classification: str) -> bool:
    """Whether a quarantine classification names an environmental
    (retry-with-backoff) failure rather than a deterministic one."""
    return classification in TRANSIENT_CLASSIFICATIONS


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic multiplicative jitter.

    ``None`` fields fall back to the ``REPRO_SCHED_BACKOFF_*`` knobs at
    resolution time (:func:`BackoffPolicy.resolved`).  A resolved policy
    with ``base == 0`` disables backoff entirely (every delay is 0.0) —
    the escape hatch for latency-sensitive tests.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base < 0 or self.factor < 1.0 or self.max_delay < 0:
            raise ValueError(
                f"backoff needs base >= 0, factor >= 1, max >= 0; got "
                f"base={self.base}, factor={self.factor}, max={self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"backoff jitter must be in [0, 1], got {self.jitter}")

    @staticmethod
    def resolved(
        base: Optional[float] = None,
        factor: Optional[float] = None,
        max_delay: Optional[float] = None,
        jitter: Optional[float] = None,
    ) -> "BackoffPolicy":
        """A policy from explicit values, with ``None`` fields read from
        the ``REPRO_SCHED_BACKOFF_*`` environment knobs."""

        def pick(value: Optional[float], knob: str) -> float:
            if value is not None:
                return float(value)
            declared = env.get_float(knob)
            assert declared is not None  # every knob declares a default
            return declared

        return BackoffPolicy(
            base=pick(base, ENV_BACKOFF_BASE),
            factor=pick(factor, ENV_BACKOFF_FACTOR),
            max_delay=pick(max_delay, ENV_BACKOFF_MAX),
            jitter=pick(jitter, ENV_BACKOFF_JITTER),
        )

    def delay(self, campaign_seed: int, cell_id: str, attempt: int) -> float:
        """The pause before retrying ``cell_id`` after failed attempt
        ``attempt`` (0-based) — a pure function of its arguments.

        The jitter draw comes from the campaign RNG tree
        (``SplittableRNG(seed).child("backoff", cell_id, attempt)``), so
        it is independent of the cell's own measurement stream and of
        every other cell's backoff.
        """
        if self.base <= 0.0:
            return 0.0
        raw = min(self.max_delay, self.base * (self.factor ** attempt))
        if self.jitter <= 0.0:
            return raw
        draw = (
            SplittableRNG(campaign_seed).child("backoff", cell_id, attempt).seed
            / float(1 << 64)
        )
        return raw * (1.0 - self.jitter * draw)
