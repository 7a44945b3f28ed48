"""Construction of the directed graph G(V, E) of Section III.

The paper represents a QDI block as a directed graph built "from the gate
netlist by defining all the gates as the elements of the set V (vertices) and
all the interconnections as the elements of the set E (directed edges)"
(Fig. 5 shows the graph of the dual-rail XOR).  The logical analyses —
levels, transition counts, rail-cone symmetry — walk this graph; the
electrical parameters of the gates and nets stay on the netlist they came
from.

:class:`CircuitGraph` holds the topology as plain per-gate lists indexed by
gate id, the position of the instance in ``netlist.instances()``.  It is
built straight from the netlist's instances and nets, so it tolerates what
the compiled engine rejects (unconnected pins, self-loops): the DRC runs
the graph analyses on malformed designs too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..circuits.netlist import Netlist


@dataclass
class CircuitGraph:
    """Gate vertices and their interconnections, as per-gate lists.

    Gate ``g`` is instance ``names[g]`` of cell ``cells[g]``; ``index`` maps
    instance names back to gate ids.  ``predecessors[v]`` holds one
    ``(u, net)`` pair per gate ``u`` driving a net read by ``v``, in the
    netlist's net order; ``successors[u]`` holds the gates reading ``u``'s
    output, in sink order, each once.  ``data_predecessors[v]`` keeps the
    gates of ``predecessors[v]`` whose net carries data (see
    :func:`is_control_net`), in the same order.
    """

    names: List[str]
    cells: List[str]
    predecessors: List[List[Tuple[int, str]]]
    successors: List[List[int]]
    data_predecessors: List[List[int]]
    index: Dict[str, int]


def is_control_net(net: str) -> bool:
    """True for acknowledge / reset nets, which carry no data."""
    net = net.lower()
    return "ack" in net or "reset" in net or "rst" in net


def build_circuit_graph(netlist: Netlist) -> CircuitGraph:
    """Build the directed graph G(V, E) of a netlist."""
    instances = list(netlist.instances())
    index = {instance.name: gate for gate, instance in enumerate(instances)}
    cells = [netlist.library.get(instance.cell).name for instance in instances]
    # Dicts keep one edge per gate pair: a gate reading a net on two pins
    # is one predecessor / successor, at its first position.
    predecessors: List[Dict[int, str]] = [{} for _ in instances]
    successors: List[Dict[int, None]] = [{} for _ in instances]
    for net in netlist.nets():
        if net.driver is None:
            continue
        source = index[net.driver.instance]
        for sink in net.sinks:
            target = index[sink.instance]
            predecessors[target][source] = net.name
            successors[source][target] = None
    return CircuitGraph(
        names=list(index),
        cells=cells,
        predecessors=[list(feeding.items()) for feeding in predecessors],
        successors=[list(fanout) for fanout in successors],
        data_predecessors=[[source for source, net in feeding.items()
                            if not is_control_net(net)]
                           for feeding in predecessors],
        index=index,
    )
