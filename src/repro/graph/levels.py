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
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..circuits.signals import TraceRecord, TransitionKind
from .build import CircuitGraph, is_control_net


def _edge_dfs(successors: Sequence[Sequence[int]], start: int) -> Iterator[Tuple[int, int]]:
    """Depth-first edge traversal from ``start``, out-edges in list order."""
    pending = {start: iter(successors[start])}
    stack = [start]
    while stack:
        tail = stack[-1]
        head = next(pending[tail], None)
        if head is None:
            stack.pop()
            continue
        if head not in pending:
            pending[head] = iter(successors[head])
        stack.append(head)
        yield tail, head


def _cycle_edge(successors: Sequence[Sequence[int]]) -> Optional[Tuple[int, int]]:
    """First edge of the cycle a depth-first search meets, or ``None``.

    Starts in gate order and keeps the active path of the traversal; the
    returned edge leaves the node that closes the cycle.  This cut rule
    decides the levels of the gates on self-timed loops (and so ``SEC001``'s
    messages): a different rule, such as cutting the lowest-id edge, moves
    them.
    """
    explored: Set[int] = set()
    for start in range(len(successors)):
        if start in explored:
            continue
        path: List[Tuple[int, int]] = []
        seen = {start}
        active = {start}
        previous_head = None
        for tail, head in _edge_dfs(successors, start):
            if head in explored:
                continue
            if previous_head is not None and tail != previous_head:
                # Backtracking: shorten the path until it ends at ``tail``.
                while True:
                    if not path:
                        active = {tail}
                        break
                    active.remove(path.pop()[1])
                    if path and path[-1][1] == tail:
                        break
            path.append((tail, head))
            if head in active:
                return next((edge for edge in path if edge[0] == head), path[-1])
            seen.add(head)
            active.add(head)
            previous_head = head
        explored |= seen
    return None


def compute_levels(graph: CircuitGraph, *,
                   ignore_nets: Optional[Iterable[str]] = None) -> Dict[str, int]:
    """Assign a logical level to every gate vertex.

    The level of a gate is one plus the maximum level of the gates feeding it
    (gates fed only by primary inputs are level 1), i.e. the longest data path
    from the block inputs — the quantity the paper uses to slice the block
    into ``Nc`` levels.

    QDI circuits contain feedback through acknowledgement wires; the levels
    are defined on the forward data path, so edges on acknowledge / reset
    nets (and on ``ignore_nets``) are dropped first.  Remaining cycles (e.g.
    self-timed loops) are broken by removing one edge per cycle found, so
    levels are then defined per pipeline stage.  The dict iterates in
    topological order.
    """
    ignore = set(ignore_nets) if ignore_nets is not None else set()
    data_edges = {(source, target)
                  for target, feeding in enumerate(graph.predecessors)
                  for source, net in feeding
                  if net not in ignore and not is_control_net(net)}
    successors = [[target for target in fanout if (source, target) in data_edges]
                  for source, fanout in enumerate(graph.successors)]
    while True:
        edge = _cycle_edge(successors)
        if edge is None:
            break
        successors[edge[0]].remove(edge[1])
    indegree = [0] * len(successors)
    for fanout in successors:
        for target in fanout:
            indegree[target] += 1
    order = [gate for gate, count in enumerate(indegree) if count == 0]
    level = [1] * len(successors)
    for source in order:
        for target in successors[source]:
            level[target] = max(level[target], level[source] + 1)
            indegree[target] -= 1
            if indegree[target] == 0:
                order.append(target)
    return {graph.names[gate]: level[gate] for gate in order}


def critical_path_length(graph: CircuitGraph, **kwargs) -> int:
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


def structural_profile(graph: CircuitGraph, *,
                       levels: Optional[Mapping[str, int]] = None) -> LevelProfile:
    """Profile derived from the netlist structure only (no simulation).

    ``Nt`` is taken as the total number of gates (every gate of a balanced
    block switches exactly once per phase), ``Nij`` as the gate count per
    level.
    """
    if levels is None:
        levels = compute_levels(graph)
    per_level: Dict[int, int] = {}
    for node in graph.names:
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
