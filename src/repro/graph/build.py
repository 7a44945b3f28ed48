"""Construction of the annotated directed graph G(V, E) of Section III.

The paper represents a QDI block as a directed graph built "from the gate
netlist by defining all the gates as the elements of the set V (vertices) and
all the interconnections as the elements of the set E (directed edges)"
(Fig. 5 shows the graph of the dual-rail XOR).  Vertices are annotated with
gate parameters and edges with net parameters, so that both the logical
analysis (levels, transition counts, symmetry) and the electrical analysis
(capacitances after back-end) operate on the same object.

We materialise the graph with :mod:`networkx` so that standard graph
algorithms (topological sorting, reachability) are available to the analysis
layers.
"""

from __future__ import annotations

from typing import Iterable, Optional

import networkx as nx

from ..circuits.netlist import Netlist

#: Node attribute keys
NODE_KIND = "kind"          #: "gate", "input" or "output"
NODE_CELL = "cell"          #: library cell name for gate nodes
NODE_BLOCK = "block"        #: architectural block of the instance
NODE_AREA = "area_um2"
NODE_LEVEL = "level"        #: logical level (filled by levels.compute_levels)

#: Edge attribute keys
EDGE_NET = "net"
EDGE_ROUTING_CAP = "routing_cap_ff"
EDGE_LOAD_CAP = "load_cap_ff"
EDGE_TOTAL_CAP = "total_cap_ff"
EDGE_CHANNEL = "channel"
EDGE_RAIL = "rail"

#: Prefix used for pseudo-nodes representing primary inputs / outputs.
INPUT_PREFIX = "IN:"
OUTPUT_PREFIX = "OUT:"


def input_node(net_name: str) -> str:
    """Name of the pseudo-vertex representing the primary input ``net_name``."""
    return f"{INPUT_PREFIX}{net_name}"


def output_node(net_name: str) -> str:
    """Name of the pseudo-vertex representing the primary output ``net_name``."""
    return f"{OUTPUT_PREFIX}{net_name}"


def gate_nodes(graph: nx.DiGraph) -> Iterable[str]:
    """Iterate over the gate vertices of the graph (skipping I/O pseudo-nodes)."""
    return (n for n, data in graph.nodes(data=True) if data.get(NODE_KIND) == "gate")


def build_circuit_graph(netlist: Netlist, *, block: Optional[str] = None,
                        include_io_nodes: bool = True) -> nx.DiGraph:
    """Build the directed graph G(V, E) of a netlist.

    Parameters
    ----------
    netlist:
        The gate-level netlist to convert.
    block:
        When given, restrict the graph to instances of that architectural
        block (edges crossing the block boundary end on I/O pseudo-nodes).
    include_io_nodes:
        Add pseudo-vertices for primary inputs and outputs, as in Fig. 5 where
        the dotted edges represent the block boundary.

    Returns
    -------
    networkx.DiGraph
        Gate vertices carry ``cell``, ``block`` and ``area_um2`` attributes;
        edges carry the net name and its capacitance decomposition.
    """
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
