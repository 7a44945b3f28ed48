"""networkx circuit-graph oracle: the Section III analyses on ``nx.DiGraph``.

:mod:`repro.graph` computes logical levels and rail cones on plain per-gate
lists.  This module keeps the networkx formulation they replaced verbatim:
the ``DiGraph`` builder with its I/O pseudo-nodes, the data subgraph whose
remaining cycles are cut by repeated ``find_cycle``, the topological-order
levelizer and the backward rail-cone walk — plus the cone profile and the
channel comparison on top of them, so the equivalence tests can compare
levels, cones (order included) and mismatch strings.  Needs networkx.
"""

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

import networkx as nx

from repro.circuits.channels import ChannelNets
from repro.circuits.netlist import Netlist
from repro.graph import ConeProfile, SymmetryReport

NODE_KIND = "kind"
NODE_CELL = "cell"
NODE_BLOCK = "block"
NODE_AREA = "area_um2"

EDGE_NET = "net"
EDGE_ROUTING_CAP = "routing_cap_ff"
EDGE_LOAD_CAP = "load_cap_ff"
EDGE_TOTAL_CAP = "total_cap_ff"
EDGE_CHANNEL = "channel"
EDGE_RAIL = "rail"

INPUT_PREFIX = "IN:"
OUTPUT_PREFIX = "OUT:"


def input_node(net_name: str) -> str:
    return f"{INPUT_PREFIX}{net_name}"


def output_node(net_name: str) -> str:
    return f"{OUTPUT_PREFIX}{net_name}"


def build_circuit_graph(netlist: Netlist, *, block: Optional[str] = None,
                        include_io_nodes: bool = True) -> nx.DiGraph:
    """Build the directed graph G(V, E) of a netlist."""
    graph = nx.DiGraph(name=netlist.name)

    def want(instance_name: str) -> bool:
        if block is None:
            return True
        return netlist.instance(instance_name).block == block

    for instance in netlist.instances():
        if not want(instance.name):
            continue
        cell = netlist.library.get(instance.cell)
        graph.add_node(
            instance.name,
            **{
                NODE_KIND: "gate",
                NODE_CELL: cell.name,
                NODE_BLOCK: instance.block,
                NODE_AREA: cell.area_um2,
            },
        )

    for net in netlist.nets():
        edge_attrs = {
            EDGE_NET: net.name,
            EDGE_ROUTING_CAP: net.routing_cap_ff,
            EDGE_LOAD_CAP: netlist.load_cap_ff(net.name),
            EDGE_TOTAL_CAP: netlist.total_cap_ff(net.name),
            EDGE_CHANNEL: net.channel,
            EDGE_RAIL: net.rail,
        }
        driver_in_graph = net.driver is not None and net.driver.instance in graph
        if driver_in_graph:
            source = net.driver.instance
        elif include_io_nodes and net.sinks:
            source = input_node(net.name)
        else:
            source = None

        for sink in net.sinks:
            if sink.instance not in graph:
                continue
            if source is None:
                continue
            if source == input_node(net.name) and source not in graph:
                graph.add_node(source, **{NODE_KIND: "input"})
            graph.add_edge(source, sink.instance, **edge_attrs)

        # Edge towards a primary output (or the block boundary).
        if driver_in_graph:
            external_sinks = [s for s in net.sinks if s.instance not in graph]
            is_primary_output = net.name in set(netlist.output_nets())
            if include_io_nodes and (is_primary_output or (block is not None and external_sinks)
                                     or not net.sinks):
                out = output_node(net.name)
                graph.add_node(out, **{NODE_KIND: "output"})
                graph.add_edge(source, out, **edge_attrs)

    return graph


def _data_subgraph(graph: nx.DiGraph, ignore_nets: Optional[Iterable[str]] = None) -> nx.DiGraph:
    """Return a copy of the graph without edges flagged as acknowledge nets."""
    ignore = set(ignore_nets) if ignore_nets is not None else set()
    sub = graph.copy()
    to_remove = []
    for source, target, data in sub.edges(data=True):
        net = (data.get("net") or "").lower()
        if data.get("net") in ignore:
            to_remove.append((source, target))
        elif "ack" in net or "reset" in net or "rst" in net:
            to_remove.append((source, target))
    sub.remove_edges_from(to_remove)
    if not nx.is_directed_acyclic_graph(sub):
        # Break remaining cycles (e.g. self-timed loops) by removing one edge
        # per cycle; levels are then defined per pipeline stage.
        while True:
            try:
                cycle = nx.find_cycle(sub)
            except nx.NetworkXNoCycle:
                break
            sub.remove_edge(*cycle[0][:2])
    return sub


def compute_levels(graph: nx.DiGraph, *,
                   ignore_nets: Optional[Iterable[str]] = None) -> Dict[str, int]:
    """Assign a logical level to every gate vertex."""
    sub = _data_subgraph(graph, ignore_nets)
    levels: Dict[str, int] = {}
    for node in nx.topological_sort(sub):
        if sub.nodes[node].get(NODE_KIND) != "gate":
            continue
        feeding = [
            levels[p] for p in sub.predecessors(node)
            if sub.nodes[p].get(NODE_KIND) == "gate"
        ]
        levels[node] = (max(feeding) + 1) if feeding else 1
    return levels


def rail_cone(netlist: Netlist, graph: nx.DiGraph, rail_net: str, *,
              stop_at: Optional[Set[str]] = None) -> List[str]:
    """Gate instances in the transitive fan-in cone of ``rail_net``."""
    net = netlist.net(rail_net)
    if net.driver is None:
        return []
    stop = stop_at if stop_at is not None else set()
    cone: List[str] = []
    seen: Set[str] = set()
    frontier = [net.driver.instance]
    while frontier:
        instance = frontier.pop()
        if instance in seen or instance not in graph:
            continue
        seen.add(instance)
        cone.append(instance)
        if instance in stop:
            continue
        for predecessor in graph.predecessors(instance):
            if graph.nodes[predecessor].get(NODE_KIND) == "gate":
                edge = graph.edges[predecessor, instance]
                net_name = (edge.get("net") or "").lower()
                if "ack" in net_name or "reset" in net_name or "rst" in net_name:
                    continue
                frontier.append(predecessor)
    return cone


def cone_profile(graph: nx.DiGraph, rail: str, cone: Sequence[str], *,
                 levels: Optional[Mapping[str, int]] = None) -> ConeProfile:
    """Summarise a cone per logical level (gate count and cell types)."""
    if levels is None:
        levels = compute_levels(graph)
    gates_per_level: Dict[int, int] = {}
    cells_per_level: Dict[int, Counter] = {}
    for instance in cone:
        level = levels.get(instance, 0)
        gates_per_level[level] = gates_per_level.get(level, 0) + 1
        cells_per_level.setdefault(level, Counter())[
            graph.nodes[instance].get(NODE_CELL, "?")
        ] += 1
    return ConeProfile(
        rail=rail,
        gates=list(cone),
        gates_per_level=gates_per_level,
        cells_per_level=cells_per_level,
    )


def compare_channel_symmetry(netlist: Netlist, graph: nx.DiGraph,
                             channel: ChannelNets, *,
                             levels: Optional[Mapping[str, int]] = None,
                             require_same_cells: bool = True) -> SymmetryReport:
    """Compare the cones of every rail of a channel and report mismatches."""
    if levels is None:
        levels = compute_levels(graph)
    profiles = []
    for rail in channel.rails:
        cone = rail_cone(netlist, graph, rail)
        profiles.append(cone_profile(graph, rail, cone, levels=levels))

    mismatches: List[str] = []
    reference = profiles[0]
    for other in profiles[1:]:
        if set(other.gates_per_level) != set(reference.gates_per_level):
            mismatches.append(
                f"rails {reference.rail!r} and {other.rail!r} span different levels: "
                f"{sorted(reference.gates_per_level)} vs {sorted(other.gates_per_level)}"
            )
            continue
        for level in sorted(reference.gates_per_level):
            if other.gates_per_level[level] != reference.gates_per_level[level]:
                mismatches.append(
                    f"level {level}: {reference.gates_per_level[level]} gate(s) on "
                    f"{reference.rail!r} vs {other.gates_per_level[level]} on {other.rail!r}"
                )
            elif require_same_cells and other.cells_per_level[level] != reference.cells_per_level[level]:
                mismatches.append(
                    f"level {level}: cell types differ between {reference.rail!r} "
                    f"({dict(reference.cells_per_level[level])}) and {other.rail!r} "
                    f"({dict(other.cells_per_level[level])})"
                )
    return SymmetryReport(channel=channel.name, profiles=profiles, mismatches=mismatches)
