"""Annotation records for vertices and edges of the circuit graph.

The paper's methodology annotates the graph with "all gates' parameters" on
the vertices and "all nets' parameters" on the edges, at every phase of the
design (after synthesis with estimated capacitances, after back-end with
extracted ones).  This module provides typed views over those annotations and
helpers to produce human-readable reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import networkx as nx

from ..circuits.netlist import Netlist
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
    gate_nodes,
)


@dataclass(frozen=True)
class GateAnnotation:
    """Parameters attached to a gate vertex."""

    name: str
    cell: str
    block: str
    area_um2: float
    level: int


@dataclass(frozen=True)
class NetAnnotation:
    """Parameters attached to an interconnection edge."""

    net: str
    routing_cap_ff: float
    load_cap_ff: float
    total_cap_ff: float
    channel: Optional[str]
    rail: Optional[int]


def gate_annotation(graph: nx.DiGraph, node: str) -> GateAnnotation:
    """Typed view of the annotations of a gate vertex."""
    data = graph.nodes[node]
    if data.get(NODE_KIND) != "gate":
        raise ValueError(f"node {node!r} is not a gate vertex")
    return GateAnnotation(
        name=node,
        cell=data.get(NODE_CELL, ""),
        block=data.get(NODE_BLOCK, ""),
        area_um2=float(data.get(NODE_AREA, 0.0)),
        level=int(data.get(NODE_LEVEL, 0)),
    )


def net_annotation(graph: nx.DiGraph, source: str, target: str) -> NetAnnotation:
    """Typed view of the annotations of an edge."""
    data = graph.edges[source, target]
    return NetAnnotation(
        net=data[EDGE_NET],
        routing_cap_ff=float(data.get(EDGE_ROUTING_CAP, 0.0)),
        load_cap_ff=float(data.get(EDGE_LOAD_CAP, 0.0)),
        total_cap_ff=float(data.get(EDGE_TOTAL_CAP, 0.0)),
        channel=data.get(EDGE_CHANNEL),
        rail=data.get(EDGE_RAIL),
    )


def all_net_annotations(graph: nx.DiGraph) -> List[NetAnnotation]:
    seen: Dict[str, NetAnnotation] = {}
    for source, target in graph.edges():
        annotation = net_annotation(graph, source, target)
        seen.setdefault(annotation.net, annotation)
    return list(seen.values())


def annotate_levels(graph: nx.DiGraph, levels: Dict[str, int]) -> None:
    """Store logical levels on the gate vertices."""
    for node, level in levels.items():
        if node in graph:
            graph.nodes[node][NODE_LEVEL] = level


def total_gate_area(graph: nx.DiGraph) -> float:
    """Sum of the cell areas of all gate vertices (µm²)."""
    return sum(gate_annotation(graph, node).area_um2 for node in gate_nodes(graph))


def describe_graph(graph: nx.DiGraph, netlist: Optional[Netlist] = None) -> str:
    """Produce a short multi-line description of an annotated graph."""
    gates = list(gate_nodes(graph))
    lines = [
        f"graph {graph.name or '<unnamed>'}: {len(gates)} gates, "
        f"{graph.number_of_edges()} edges",
    ]
    cells: Dict[str, int] = {}
    for node in gates:
        cell = graph.nodes[node].get(NODE_CELL, "?")
        cells[cell] = cells.get(cell, 0) + 1
    for cell in sorted(cells):
        lines.append(f"  {cell:<12s} x{cells[cell]}")
    if netlist is not None:
        lines.append(f"  total cell area: {netlist.total_area_um2():.1f} um2")
    return "\n".join(lines)
