"""Place-and-route substrate (flat reference flow vs hierarchical flow).

Replaces the SoC Encounter flows of the paper with a standard-cell placement
(row-based start plus simulated-annealing refinement), an HPWL-based routing
estimator and a linear parasitic extractor.  The two flows of Section VI are
available as :func:`run_flat_flow` and :func:`run_hierarchical_flow`.
"""

from .cells import (
    PlacedCell,
    block_areas_um2,
    cell_from_instance,
    cells_from_netlist,
    die_side_for_area,
)
from .extraction import (
    ExtractionLookupError,
    ExtractionReport,
    IncrementalExtractor,
    channel_rail_caps,
    extract_capacitances,
)
from .floorplan import (
    Floorplan,
    FloorplanError,
    Rect,
    Region,
    flat_floorplan,
    hierarchical_floorplan,
)
from .anneal import PlacerConnectivity, VectorPlacementEngine, compile_connectivity
from .flows import PlacedDesign, compare_flows, run_flat_flow, run_hierarchical_flow
from .placement import (
    AnnealingSchedule,
    FlatPlacer,
    HierarchicalPlacer,
    LegalityViolation,
    Placement,
    PlacementError,
    initial_placement,
    legality_violations,
)
from .routing import (
    RoutedNet,
    RoutingEstimate,
    RoutingError,
    estimate_net,
    estimate_routing,
    fanout_factor,
)
from .sweep import PlacementSweep, SweepPoint, SweepResult, SweepRow

__all__ = [
    "PlacedCell",
    "block_areas_um2",
    "cell_from_instance",
    "cells_from_netlist",
    "die_side_for_area",
    "ExtractionLookupError",
    "ExtractionReport",
    "IncrementalExtractor",
    "channel_rail_caps",
    "extract_capacitances",
    "Floorplan",
    "FloorplanError",
    "Rect",
    "Region",
    "flat_floorplan",
    "hierarchical_floorplan",
    "PlacedDesign",
    "compare_flows",
    "run_flat_flow",
    "run_hierarchical_flow",
    "AnnealingSchedule",
    "FlatPlacer",
    "HierarchicalPlacer",
    "LegalityViolation",
    "Placement",
    "PlacementError",
    "legality_violations",
    "initial_placement",
    "PlacerConnectivity",
    "VectorPlacementEngine",
    "compile_connectivity",
    "PlacementSweep",
    "SweepPoint",
    "SweepResult",
    "SweepRow",
    "RoutedNet",
    "RoutingEstimate",
    "RoutingError",
    "estimate_net",
    "estimate_routing",
    "fanout_factor",
]
