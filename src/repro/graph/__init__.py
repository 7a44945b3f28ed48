"""Annotated directed-graph formalism of Section III of the paper.

A QDI block's netlist is converted into a directed graph G(V, E) whose
vertices are gates and whose edges are interconnections, annotated with gate
and net parameters.  The graph supports the logical analysis (levels, Nt / Nc
/ Nij, data-path symmetry) and, once back-end capacitances are annotated, the
electrical analysis of the block's current profile.
"""

from .annotate import (
    GateAnnotation,
    NetAnnotation,
    all_net_annotations,
    annotate_levels,
    describe_graph,
    gate_annotation,
    net_annotation,
    total_gate_area,
)
from .build import (
    EDGE_CHANNEL,
    EDGE_LOAD_CAP,
    EDGE_NET,
    EDGE_RAIL,
    EDGE_ROUTING_CAP,
    EDGE_TOTAL_CAP,
    NODE_AREA,
    NODE_BLOCK,
    NODE_CELL,
    NODE_KIND,
    NODE_LEVEL,
    build_circuit_graph,
    gate_nodes,
    input_node,
    output_node,
)
from .levels import (
    LevelProfile,
    compute_levels,
    critical_path_length,
    gates_by_level,
    structural_profile,
    switching_profile,
    verify_constant_profile,
)
from .symmetry import (
    ConeProfile,
    SymmetryReport,
    compare_channel_symmetry,
    cone_profile,
    rail_cone,
    verify_block_symmetry,
)

__all__ = [
    "GateAnnotation",
    "NetAnnotation",
    "all_net_annotations",
    "annotate_levels",
    "describe_graph",
    "gate_annotation",
    "net_annotation",
    "total_gate_area",
    "EDGE_CHANNEL",
    "EDGE_LOAD_CAP",
    "EDGE_NET",
    "EDGE_RAIL",
    "EDGE_ROUTING_CAP",
    "EDGE_TOTAL_CAP",
    "NODE_AREA",
    "NODE_BLOCK",
    "NODE_CELL",
    "NODE_KIND",
    "NODE_LEVEL",
    "build_circuit_graph",
    "gate_nodes",
    "input_node",
    "output_node",
    "LevelProfile",
    "compute_levels",
    "critical_path_length",
    "gates_by_level",
    "structural_profile",
    "switching_profile",
    "verify_constant_profile",
    "ConeProfile",
    "SymmetryReport",
    "compare_channel_symmetry",
    "cone_profile",
    "rail_cone",
    "verify_block_symmetry",
]
