"""Logical levels and the Nt / Nc / Nij quantities of Section III.

The paper divides a block into ``Nc`` logical levels (``Nc`` = number of gates
along the critical data path), counts ``Nij`` gates switching at each level
``i`` for a given computation, and uses the fixed total number of transitions
``Nt`` of a balanced block to write the block current profile

    ``P_dc(t) = Σ_i Σ_j I_ij(t) + P_dn(t)``                (equation (5)).

For the dual-rail XOR of Fig. 5 the graph exploration yields
``Nt = Nc = 4`` and ``N_1j = N_2j = N_3j = N_4j = 1``, i.e. exactly one gate
fires per level per computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

import networkx as nx

from ..circuits.signals import TraceRecord, TransitionKind
from .build import NODE_KIND, gate_nodes


def _data_subgraph(graph: nx.DiGraph, ignore_nets: Optional[Iterable[str]] = None) -> nx.DiGraph:
    """Return a copy of the graph without edges flagged as acknowledge nets.

    QDI circuits contain feedback through acknowledgement wires; the logical
    levels of Section III are defined on the forward data path, so edges whose
    net name marks them as acknowledge/reset signals are dropped before the
    longest-path computation.  Remaining cycles are broken conservatively.
    """
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
    """Assign a logical level to every gate vertex.

    The level of a gate is one plus the maximum level of the gates feeding it
    (gates fed only by primary inputs are level 1), i.e. the longest data path
    from the block inputs — the quantity the paper uses to slice the block
    into ``Nc`` levels.
    """
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


def critical_path_length(graph: nx.DiGraph, **kwargs) -> int:
    """``Nc``: the number of gates along the longest data path."""
    levels = compute_levels(graph, **kwargs)
    return max(levels.values()) if levels else 0


@dataclass
class LevelProfile:
    """The (Nt, Nc, Nij) description of a block.

    ``nij`` maps level → number of gates that switch at that level during one
    computation; ``structural_nij`` maps level → number of gates present at
    that level (the upper bound used when no simulation is available).
    """

    nc: int
    nt: int
    nij: Dict[int, int] = field(default_factory=dict)
    structural_nij: Dict[int, int] = field(default_factory=dict)

    def gates_at(self, level: int) -> int:
        return self.nij.get(level, 0)

    def is_one_per_level(self) -> bool:
        """True when exactly one gate switches at every level (the XOR case)."""
        return all(count == 1 for count in self.nij.values()) and len(self.nij) == self.nc


def structural_profile(graph: nx.DiGraph, *,
                       levels: Optional[Mapping[str, int]] = None) -> LevelProfile:
    """Profile derived from the netlist structure only (no simulation).

    ``Nt`` is taken as the total number of gates (every gate of a balanced
    block switches exactly once per phase), ``Nij`` as the gate count per
    level.
    """
    if levels is None:
        levels = compute_levels(graph)
    per_level: Dict[int, int] = {}
    for node in gate_nodes(graph):
        level = levels.get(node, 0)
        if level <= 0:
            continue
        per_level[level] = per_level.get(level, 0) + 1
    nc = max(per_level) if per_level else 0
    nt = sum(per_level.values())
    return LevelProfile(nc=nc, nt=nt, nij=dict(per_level), structural_nij=dict(per_level))


def switching_profile(trace: TraceRecord, levels: Mapping[str, int], *,
                      kind: TransitionKind = TransitionKind.RISING,
                      gate_filter: Optional[Set[str]] = None) -> LevelProfile:
    """Profile derived from a simulation trace.

    Counts, per logical level, the gates that produced a transition of the
    requested direction (rising = evaluation phase, falling = return-to-zero
    phase).  ``Nt`` is the number of switching gates and ``Nc`` the deepest
    level reached.
    """
    switching: Dict[int, Set[str]] = {}
    for transition in trace.transitions:
        if transition.cause is None:
            continue
        if gate_filter is not None and transition.cause not in gate_filter:
            continue
        if transition.kind is not kind:
            continue
        level = levels.get(transition.cause)
        if level is None or level <= 0:
            continue
        switching.setdefault(level, set()).add(transition.cause)
    nij = {level: len(gates) for level, gates in switching.items()}
    nc = max(nij) if nij else 0
    nt = sum(nij.values())
    structural: Dict[int, int] = {}
    for level in levels.values():
        if level > 0:
            structural[level] = structural.get(level, 0) + 1
    return LevelProfile(nc=nc, nt=nt, nij=nij, structural_nij=structural)


def gates_by_level(levels: Mapping[str, int]) -> Dict[int, List[str]]:
    """Group gate names by logical level (sorted within each level)."""
    grouped: Dict[int, List[str]] = {}
    for gate, level in levels.items():
        grouped.setdefault(level, []).append(gate)
    for names in grouped.values():
        names.sort()
    return grouped


def verify_constant_profile(profiles: Sequence[LevelProfile]) -> bool:
    """Check that several per-computation profiles are identical.

    Balanced secured blocks must show the same (Nt, Nc, Nij) for every input
    combination; this is the logical-balance property of Section II.
    """
    if not profiles:
        return True
    reference = profiles[0]
    return all(
        p.nc == reference.nc and p.nt == reference.nt and p.nij == reference.nij
        for p in profiles[1:]
    )
