"""Formal verification of data-path symmetry on the circuit graph.

One of the two benefits the paper claims for the graph representation is that
"it offers the opportunity to formally verify the logical symmetry of the
data-path".  For a dual-rail (or 1-of-N) output channel, the cones of logic
driving each rail must be structurally equivalent: same number of gates per
logical level and same multiset of cell types per level.  Any structural
asymmetry translates into a different number (or weight) of transitions per
rail and therefore into first-order DPA leakage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..circuits.channels import ChannelNets
from ..circuits.netlist import Netlist
from .build import CircuitGraph
from .levels import compute_levels


@dataclass
class ConeProfile:
    """Structural summary of the logic cone driving one rail."""

    rail: str
    gates: List[str]
    gates_per_level: Dict[int, int]
    cells_per_level: Dict[int, Counter]

    @property
    def size(self) -> int:
        return len(self.gates)

    @property
    def depth(self) -> int:
        return max(self.gates_per_level) if self.gates_per_level else 0


@dataclass
class SymmetryReport:
    """Result of comparing the rail cones of one channel."""

    channel: str
    profiles: List[ConeProfile]
    mismatches: List[str] = field(default_factory=list)

    @property
    def is_symmetric(self) -> bool:
        return not self.mismatches


def rail_cone(netlist: Netlist, graph: CircuitGraph, rail_net: str, *,
              stop_at: Optional[Set[str]] = None) -> List[str]:
    """Gate instances in the transitive fan-in cone of ``rail_net``.

    The traversal walks backwards from the driver of the rail through data
    edges, stopping at primary inputs and at any instance listed in
    ``stop_at`` (used to bound the cone at channel boundaries).
    """
    net = netlist.net(rail_net)
    if net.driver is None or net.driver.instance not in graph.index:
        return []
    stop = stop_at if stop_at is not None else set()
    feeding = graph.data_predecessors
    cone: List[str] = []
    seen: Set[int] = set()
    frontier = [graph.index[net.driver.instance]]
    while frontier:
        gate = frontier.pop()
        if gate in seen:
            continue
        seen.add(gate)
        cone.append(graph.names[gate])
        if graph.names[gate] in stop:
            continue
        # ``seen`` only grows, so dropping seen gates here keeps the order.
        frontier.extend(source for source in feeding[gate]
                        if source not in seen)
    return cone


def cone_profile(graph: CircuitGraph, rail: str, cone: Sequence[str], *,
                 levels: Optional[Mapping[str, int]] = None) -> ConeProfile:
    """Summarise a cone per logical level (gate count and cell types)."""
    if levels is None:
        levels = compute_levels(graph)
    gates_per_level: Dict[int, int] = {}
    cells_per_level: Dict[int, Counter] = {}
    for instance in cone:
        level = levels.get(instance, 0)
        gates_per_level[level] = gates_per_level.get(level, 0) + 1
        cells = cells_per_level.get(level)
        if cells is None:
            cells = cells_per_level[level] = Counter()
        cells[graph.cells[graph.index[instance]]] += 1
    return ConeProfile(
        rail=rail,
        gates=list(cone),
        gates_per_level=gates_per_level,
        cells_per_level=cells_per_level,
    )


def compare_channel_symmetry(netlist: Netlist, graph: CircuitGraph,
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


def verify_block_symmetry(netlist: Netlist, graph: CircuitGraph,
                          channels: Sequence[ChannelNets], **kwargs) -> List[SymmetryReport]:
    """Run :func:`compare_channel_symmetry` over several output channels."""
    return [compare_channel_symmetry(netlist, graph, c, **kwargs) for c in channels]
