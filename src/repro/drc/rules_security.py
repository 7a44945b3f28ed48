"""Security-structure rules (``SEC``): the paper's countermeasures, statically.

These rules check the *structural* side-channel countermeasures without
simulating a single trace: cone symmetry per 1-of-N channel (the balanced
datapath of Section III), rail-capacitance dissymmetry straight from the
extracted netlist (the d_A criterion), and dummy loads that cannot
possibly balance anything because they sit on disconnected nets.
"""

from __future__ import annotations

from typing import List

from ..circuits.channels import ChannelNets, ChannelSpec
from ..graph.symmetry import compare_channel_symmetry
from .diagnostics import Severity
from .registry import Finding, Rule, finding


def check_cone_symmetry(context) -> List[Finding]:
    """SEC001 — asymmetric logic cones behind the rails of a channel.

    Runs :func:`repro.graph.symmetry.compare_channel_symmetry` over every
    fully driven channel (undriven channels are primary inputs — their
    cones are empty and trivially symmetric; malformed channels are
    ``NET005``'s business).  An attacker who can tell the rails apart by
    gate count or cell mix defeats the constant-activity argument before
    capacitances even matter.  A netlist using a cell missing from the
    library has no graph; ``NET004`` reports it and this rule skips it.
    """
    netlist = context.netlist
    if any(inst.cell not in netlist.library for inst in netlist.instances()):
        return []
    hits: List[Finding] = []
    graph = levels = None
    for channel_name, rails in sorted(netlist.channels().items()):
        if len(rails) < 2:
            continue
        if any(net.driver is None for net in rails):
            continue
        if any(net.rail is None for net in rails):
            continue
        if graph is None:
            graph, levels = context.graph(), context.levels()
        nets = ChannelNets(
            spec=ChannelSpec(name=channel_name, radix=len(rails)),
            rails=tuple(net.name for net in rails),
            ack=f"{channel_name}_ack")
        report = compare_channel_symmetry(
            netlist, graph, nets, levels=levels,
            require_same_cells=context.require_same_cells)
        for mismatch in report.mismatches:
            hits.append(finding(
                f"rail cones are not symmetric: {mismatch}",
                "channel", channel_name,
                hint="restructure the cone so every rail sees the same "
                     "gate count and cell mix per level"))
    return hits


def check_rail_dissymmetry(context) -> List[Finding]:
    """SEC002 — extracted rail-capacitance dissymmetry above the bound.

    Evaluates the paper's criterion d_A = (max - min) / min over the rail
    load capacitances of every channel, straight from the extraction
    annotations — no simulation.  The bound is ``context.cap_bound``
    (default 0.15, the paper's 15 %).
    """
    from ..core.criterion import evaluate_netlist_channels

    report = evaluate_netlist_channels(context.netlist, use_load_cap=True)
    hits: List[Finding] = []
    for entry in report.channels_above(context.cap_bound):
        caps = ", ".join(f"{cap:.2f}" for cap in entry.rail_caps_ff)
        hits.append(finding(
            f"rail capacitance dissymmetry d_A = {entry.dissymmetry:.3f} "
            f"exceeds bound {context.cap_bound:g} (rail caps [{caps}] fF)",
            "channel", entry.channel,
            detail=f"block {entry.block}" if entry.block else "",
            hint="balance the rails with add_dummy_load or re-route; "
                 "harden.hardening_pipeline automates this"))
    return hits


def check_dummy_loads(context) -> List[Finding]:
    """SEC003 — a dummy load that cannot balance anything.

    A dummy capacitance on a net with neither driver nor sinks loads a
    wire no transition ever reaches: the balancing pass that placed it
    targeted a net that no longer exists in the live circuit (renamed,
    disconnected by a later edit).  A negative dummy load is nonsense
    outright.
    """
    netlist = context.netlist
    hits: List[Finding] = []
    for net in netlist.nets():
        if net.dummy_cap_ff < 0.0:
            hits.append(finding(
                f"negative dummy load {net.dummy_cap_ff:.2f} fF",
                "net", net.name,
                hint="dummy loads only ever add capacitance"))
        elif net.dummy_cap_ff > 0.0 and net.driver is None and not net.sinks:
            hits.append(finding(
                f"dummy load {net.dummy_cap_ff:.2f} fF sits on a "
                "disconnected net — no transition ever charges it",
                "net", net.name,
                hint="the balancing target no longer exists; re-run the "
                     "repair pass against the current netlist"))
    return hits


RULES = (
    Rule("SEC001", "asymmetric rail cones", "security",
         Severity.ERROR, check_cone_symmetry,
         "The logic cones behind a channel's rails differ in gate count "
         "or cell mix."),
    Rule("SEC002", "rail capacitance dissymmetry above bound", "security",
         Severity.WARNING, check_rail_dissymmetry,
         "The extracted d_A criterion exceeds the configured bound on a "
         "channel."),
    Rule("SEC003", "dummy load on disconnected net", "security",
         Severity.ERROR, check_dummy_loads,
         "A balancing dummy load sits on a net nothing drives or reads."),
)
