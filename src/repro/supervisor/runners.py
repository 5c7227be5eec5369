"""Built-in cell runners for the landscape campaigns.

Each ``(series, n)`` measurement of a Figure-1 panel is a registered,
importable cell runner (:func:`repro.supervisor.cells.register_runner`),
so it runs as a supervised, crash-isolated, journaled campaign cell and
re-resolves by name inside a worker process or a cold resume.  The panel
plans that name these runners live in
:mod:`repro.supervisor.measurements`.

The simulators are imported here, at module level: the campaign engine
resolves every runner of a campaign in the parent before it forks
(:func:`repro.scheduler.engine.preload_runners`), so each worker inherits
them loaded instead of importing them again in every panel.  Importing
this module is what costs; :mod:`repro.supervisor.measurements` stays
cheap because it does not import it.  Entry points are called through
their modules (``local_model.run_local_algorithm``), so a wrapper
installed on the module after this import still sees every call.

The measured values are identical to the pre-supervisor CLI: the same
graphs, the same explicit seeds (``seed = n`` / ``seed = side``), the
same sampled-node localities.  Supervision changes who survives a bad
cell, never what a good cell measures.
"""

from __future__ import annotations

from typing import Any

import repro.volume as volume
from repro.exceptions import SupervisorError
from repro.graphs import cycle, random_tree
from repro.graphs.ids import random_ids
from repro.grids import (
    DimensionLengthProbe,
    FollowDimensionOrientation,
    GridProductColoring,
    OrientedGrid,
    prod_ids,
)
from repro.local import model as local_model
from repro.local.algorithms import LinialColoring, TwoHopMaxDegree
from repro.local.algorithms.cole_vishkin import orient_path_inputs
from repro.supervisor.cells import CellSpec, register_runner
from repro.utils.rng import SplittableRNG


def _sampled_locality(graph: Any, algorithm: Any, seed: int) -> int:
    nodes = list(range(0, graph.num_nodes, max(1, graph.num_nodes // 8)))
    result = local_model.run_local_algorithm(
        graph, algorithm, ids=random_ids(graph, seed=seed), nodes=nodes
    )
    return max(result.radius_per_node)


@register_runner("landscape.trees")
def run_tree_cell(spec: CellSpec, rng: SplittableRNG) -> int:
    """Measured locality of one tree-panel series at one ``n``."""
    graph = random_tree(spec.n, 3, seed=spec.n)
    if spec.problem == "two-hop-max-degree":
        return _sampled_locality(graph, TwoHopMaxDegree(), spec.seed)
    if spec.problem == "linial-coloring":
        return _sampled_locality(graph, LinialColoring(3), spec.seed)
    raise SupervisorError(f"unknown trees-panel series {spec.problem!r}")


@register_runner("landscape.volume")
def run_volume_cell(spec: CellSpec, rng: SplittableRNG) -> int:
    """Probes used by one VOLUME-panel series at one ``n``."""
    builders = {
        "neighborhood-max-degree": (lambda: volume.NeighborhoodAggregate(2), False),
        "chain-CV-3-coloring": (volume.ChainColeVishkin, True),
        "component-count": (volume.ComponentCount, False),
    }
    if spec.problem not in builders:
        raise SupervisorError(f"unknown volume-panel series {spec.problem!r}")
    build, needs_orientation = builders[spec.problem]
    graph = cycle(spec.n)
    inputs = orient_path_inputs(graph) if needs_orientation else None
    result = volume.run_volume_algorithm(
        graph, build(), inputs=inputs, ids=random_ids(graph, seed=spec.seed)
    )
    return result.max_probes_used


@register_runner("landscape.grids")
def run_grid_cell(spec: CellSpec, rng: SplittableRNG) -> int:
    """Measured locality of one grid-panel series at one side length."""
    side = int(spec.param("side", 0))
    if side <= 0:
        raise SupervisorError(f"grid cell {spec.cell_id()} lacks a side parameter")
    grid = OrientedGrid([side, side])
    inputs = grid.orientation_inputs()
    if spec.problem == "follow-orientation":
        result = local_model.run_local_algorithm(
            grid.graph, FollowDimensionOrientation(), inputs=inputs
        )
    elif spec.problem == "product-CV-coloring":
        result = local_model.run_local_algorithm(
            grid.graph,
            GridProductColoring(dimensions=2),
            inputs=inputs,
            ids=prod_ids(grid, seed=side),
        )
    elif spec.problem == "dim0-side-length":
        result = local_model.run_local_algorithm(
            grid.graph, DimensionLengthProbe(), inputs=inputs
        )
    else:
        raise SupervisorError(f"unknown grids-panel series {spec.problem!r}")
    return result.max_radius_used
