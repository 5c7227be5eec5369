"""Panel plans for landscape campaigns.

Each measured Figure-1 panel is a campaign: one cell per ``(series,
n)``, run by the registered cell runners of
:mod:`repro.supervisor.runners` (resolved by name, so this module never
imports the simulators and stays cheap to import).
:func:`assemble_panel` turns the campaign's report back into the panel,
holes included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.exceptions import SupervisorError
from repro.landscape import LandscapePanel
from repro.supervisor.campaign import CampaignReport
from repro.supervisor.cells import CellResult, CellSpec

#: Panels measurable as supervised campaigns (the ``re`` panel is a
#: budgeted decision procedure, not a cell grid — it keeps its own path).
MEASURED_PANELS = ("trees", "grids", "volume")


# -------------------------------------------------------------------- plans
@dataclass(frozen=True)
class SeriesPlan:
    """One planned series: its cells are one campaign cell per ``n``."""

    problem: str
    expected: str
    cells: Tuple[CellSpec, ...]

    @property
    def ns(self) -> Tuple[int, ...]:
        return tuple(spec.n for spec in self.cells)


@dataclass(frozen=True)
class PanelPlan:
    """A full panel as a campaign: title plus per-series cell grids."""

    panel: str
    title: str
    series: Tuple[SeriesPlan, ...]

    @property
    def cells(self) -> List[CellSpec]:
        return [spec for plan in self.series for spec in plan.cells]


def plan_panel(panel: str, points: int) -> PanelPlan:
    """The campaign cell grid for one measured landscape panel."""
    if panel == "trees":
        ns = [2**k for k in range(5, 5 + points)]
        series = [
            ("two-hop-max-degree", "O(1)"),
            ("linial-coloring", "Theta(log* n)"),
        ]
        plans = tuple(
            SeriesPlan(
                problem,
                expected,
                tuple(
                    CellSpec.make("landscape.trees", problem, n, seed=n) for n in ns
                ),
            )
            for problem, expected in series
        )
        return PanelPlan(panel, "LCL landscape on trees", plans)
    if panel == "volume":
        ns = [2**k for k in range(4, 4 + points)]
        series = [
            ("neighborhood-max-degree", "O(1)"),
            ("chain-CV-3-coloring", "Theta(log* n)"),
            ("component-count", "Theta(n)"),
        ]
        plans = tuple(
            SeriesPlan(
                problem,
                expected,
                tuple(
                    CellSpec.make("landscape.volume", problem, n, seed=n) for n in ns
                ),
            )
            for problem, expected in series
        )
        return PanelPlan(panel, "VOLUME landscape on oriented cycles", plans)
    if panel == "grids":
        sides = [4 + 3 * k for k in range(points)]
        series = [
            ("follow-orientation", "O(1)"),
            ("product-CV-coloring", "Theta(log* n)"),
            ("dim0-side-length", "Theta(n^{1/2})"),
        ]
        plans = tuple(
            SeriesPlan(
                problem,
                expected,
                tuple(
                    CellSpec.make(
                        "landscape.grids",
                        problem,
                        side * side,
                        seed=side,
                        params={"side": side},
                    )
                    for side in sides
                ),
            )
            for problem, expected in series
        )
        return PanelPlan(panel, "LCL landscape on oriented 2-d grids", plans)
    raise SupervisorError(
        f"panel {panel!r} is not a measured campaign; known: {MEASURED_PANELS}"
    )


def assemble_panel(plan: PanelPlan, report: CampaignReport) -> LandscapePanel:
    """Assemble the (possibly partial) panel from campaign results.

    A series with at least two intact measurements is fitted from the
    surviving sample points and carries an explicit degradation note
    naming its quarantined cells; a series with fewer becomes a
    :class:`~repro.landscape.QuarantinedRow`.  Either way, quarantined
    cells are *visible holes* — they never feed ``fit_growth`` and never
    count as gap evidence.
    """
    panel = LandscapePanel(plan.title)
    by_id = report.by_id()
    for series in plan.series:
        ns_ok: List[int] = []
        values: List[float] = []
        failures: List[Tuple[CellSpec, Optional[CellResult]]] = []
        for spec in series.cells:
            result = by_id.get(spec.cell_id())
            if result is not None and result.ok:
                ns_ok.append(spec.n)
                values.append(float(result.value))
            else:
                failures.append((spec, result))
        if len(ns_ok) >= 2:
            note = "; ".join(
                f"n={spec.n} quarantined"
                f" ({result.classification if result is not None else 'missing'})"
                for spec, result in failures
            )
            panel.add(series.problem, series.expected, ns_ok, values, note=note)
        else:
            worst = next(
                (result for _, result in failures if result is not None), None
            )
            panel.quarantine(
                series.problem,
                series.expected,
                classification=worst.classification if worst is not None else "lost",
                reason=(
                    worst.reason
                    if worst is not None
                    else "no cell of this series completed"
                ),
                traceback=worst.traceback if worst is not None else "",
            )
    return panel
