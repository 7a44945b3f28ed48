"""Directed-graph formalism of Section III of the paper.

A QDI block's netlist is converted into a directed graph G(V, E) whose
vertices are gates and whose edges are interconnections.  The graph supports
the logical analysis (levels, Nt / Nc / Nij, data-path symmetry); the gate
and net parameters of the electrical analysis stay on the netlist.
"""

from .build import CircuitGraph, build_circuit_graph
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
    "CircuitGraph",
    "build_circuit_graph",
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
