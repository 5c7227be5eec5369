"""Built-in cell runners and panel plans for landscape campaigns.

This module turns the Figure-1 measurement code that used to live
inline in ``cmd_landscape`` into *registered, importable cell runners*
(:func:`repro.supervisor.cells.register_runner`), so each
``(series, n)`` measurement can run as a supervised, crash-isolated,
journaled campaign cell — and re-resolve by name inside a worker
process or a cold resume.

The measured values are identical to the pre-supervisor CLI: the same
graphs, the same explicit seeds (``seed = n`` / ``seed = side``), the
same sampled-node localities.  Supervision changes who survives a bad
cell, never what a good cell measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.exceptions import SupervisorError
from repro.landscape import LandscapePanel
from repro.supervisor.campaign import CampaignReport
from repro.supervisor.cells import CellResult, CellSpec, register_runner
from repro.utils.rng import SplittableRNG

#: Panels measurable as supervised campaigns (the ``re`` panel is a
#: budgeted decision procedure, not a cell grid — it keeps its own path).
MEASURED_PANELS = ("trees", "grids", "volume")


# ------------------------------------------------------------------ runners
def _sampled_locality(graph: Any, algorithm: Any, seed: int) -> int:
    from repro.graphs.ids import random_ids
    from repro.local.model import run_local_algorithm

    nodes = list(range(0, graph.num_nodes, max(1, graph.num_nodes // 8)))
    result = run_local_algorithm(
        graph, algorithm, ids=random_ids(graph, seed=seed), nodes=nodes
    )
    return max(result.radius_per_node)


@register_runner("landscape.trees")
def run_tree_cell(spec: CellSpec, rng: SplittableRNG) -> int:
    """Measured locality of one tree-panel series at one ``n``."""
    from repro.graphs import random_tree
    from repro.local.algorithms import LinialColoring, TwoHopMaxDegree

    graph = random_tree(spec.n, 3, seed=spec.n)
    if spec.problem == "two-hop-max-degree":
        return _sampled_locality(graph, TwoHopMaxDegree(), spec.seed)
    if spec.problem == "linial-coloring":
        return _sampled_locality(graph, LinialColoring(3), spec.seed)
    raise SupervisorError(f"unknown trees-panel series {spec.problem!r}")


@register_runner("landscape.volume")
def run_volume_cell(spec: CellSpec, rng: SplittableRNG) -> int:
    """Probes used by one VOLUME-panel series at one ``n``."""
    from repro.graphs import cycle
    from repro.graphs.ids import random_ids
    from repro.local.algorithms.cole_vishkin import orient_path_inputs
    from repro.volume import (
        ChainColeVishkin,
        ComponentCount,
        NeighborhoodAggregate,
        run_volume_algorithm,
    )

    builders = {
        "neighborhood-max-degree": (lambda: NeighborhoodAggregate(2), False),
        "chain-CV-3-coloring": (ChainColeVishkin, True),
        "component-count": (ComponentCount, False),
    }
    if spec.problem not in builders:
        raise SupervisorError(f"unknown volume-panel series {spec.problem!r}")
    build, needs_orientation = builders[spec.problem]
    graph = cycle(spec.n)
    inputs = orient_path_inputs(graph) if needs_orientation else None
    result = run_volume_algorithm(
        graph, build(), inputs=inputs, ids=random_ids(graph, seed=spec.seed)
    )
    return result.max_probes_used


@register_runner("landscape.grids")
def run_grid_cell(spec: CellSpec, rng: SplittableRNG) -> int:
    """Measured locality of one grid-panel series at one side length."""
    from repro.grids import (
        DimensionLengthProbe,
        FollowDimensionOrientation,
        GridProductColoring,
        OrientedGrid,
        prod_ids,
    )
    from repro.local.model import run_local_algorithm

    side = int(spec.param("side", 0))
    if side <= 0:
        raise SupervisorError(f"grid cell {spec.cell_id()} lacks a side parameter")
    grid = OrientedGrid([side, side])
    inputs = grid.orientation_inputs()
    if spec.problem == "follow-orientation":
        result = run_local_algorithm(
            grid.graph, FollowDimensionOrientation(), inputs=inputs
        )
    elif spec.problem == "product-CV-coloring":
        result = run_local_algorithm(
            grid.graph,
            GridProductColoring(dimensions=2),
            inputs=inputs,
            ids=prod_ids(grid, seed=side),
        )
    elif spec.problem == "dim0-side-length":
        result = run_local_algorithm(grid.graph, DimensionLengthProbe(), inputs=inputs)
    else:
        raise SupervisorError(f"unknown grids-panel series {spec.problem!r}")
    return result.max_radius_used


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
