"""REP011 — deep fork safety for worker-reachable code.

This rule checks everything *behind* the project's own fork boundaries.
Starting from the fork roots —

* ``@register_runner`` cell runners (executed inside a forked
  scheduler worker), and
* the worker-side entrypoints themselves
  (``supervisor.isolation._execute``, ``scheduler.worker._worker_main``) —

it walks the project call graph and flags, anywhere in the reachable
set:

* **mutation of a module-level mutable global** — the write lands in the
  child's copy-on-write page and silently vanishes when the worker
  exits; under spawn it never happens at all.  State must travel through
  arguments and return values;
* **touching an unpicklable module-level object** (locks, open file
  handles) — works by accident under fork, breaks under spawn, and is a
  shared-state smell either way;
* **re-reading a parent-scoped ``REPRO_*`` knob in the child** — knobs
  declared ``scope="parent"`` in :mod:`repro.utils.env` configure the
  *supervising* process (timeouts, retry budgets, journal locations);
  reading one child-side picks up whatever environment the child
  happened to inherit, so a knob change between fork and read splits the
  campaign's configuration in two.  Resolve parent-side and pass the
  value down.

Findings anchor at the hazardous line; the message carries the
reachability chain from the fork root so the reviewer can see *why* the
function counts as worker-side.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.core import Finding, Project, Rule, register


@register
class ForkSafetyRule(Rule):
    code = "REP011"
    name = "fork-unsafe state in pool/cell-reachable code"
    rationale = (
        "Code reachable from pool workers or isolated supervisor cells runs "
        "in a forked child: mutated module globals vanish with the child, "
        "unpicklable module state breaks spawn, and re-read parent-scoped "
        "knobs can disagree with the supervising process."
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        try:
            from repro.utils.env import parent_scoped_knobs

            parent_knobs = parent_scoped_knobs()
        except Exception:  # pragma: no cover - env module always importable
            parent_knobs = frozenset()
        engine = project.whole_program
        for hazard in engine.fork_hazards(parent_scoped_knobs=parent_knobs):
            yield project.finding(
                self.code,
                hazard.path,
                hazard.line,
                f"{hazard.hazard}; reachable: {' -> '.join(hazard.chain)}",
            )
