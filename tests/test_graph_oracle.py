"""Equivalence of the circuit-graph analyses with the networkx oracle.

``repro.graph`` levels, rail cones and channel-symmetry reports must equal
the ``nx.DiGraph`` formulation kept in ``tests/oracles/graph.py``: the same
level per gate (so the same cycle cuts), the same cone members in the same
order, and the same mismatch strings — the text ``SEC001`` prints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import graph as oracle
from repro.asyncaes import build_aes_netlist
from repro.circuits import Netlist, build_dual_rail_xor, build_half_buffer
from repro.circuits.channels import ChannelNets, ChannelSpec
from repro.graph import (
    build_circuit_graph,
    compare_channel_symmetry,
    compute_levels,
    rail_cone,
)

#: Output-net name styles: plain data, acknowledge / reset nets (dropped
#: from the data graph) and channel rails.
_STYLES = ("data", "data", "rail", "rail", "ack", "rst", "reset")


def _net_name(gate: int, style: str) -> str:
    return {"data": f"w{gate}", "ack": f"w{gate}_ack", "rst": f"rst{gate}",
            "reset": f"Reset_{gate}", "rail": f"c{gate // 2}_r{gate % 2}"}[style]


@st.composite
def netlists(draw):
    """Small BUF/AND2/MULLER2 netlists with feedback, self-loops and
    duplicate sinks; nets are declared in a drawn order so the net order
    differs from the instance order."""
    styles = draw(st.lists(st.sampled_from(_STYLES), min_size=1, max_size=10))
    outputs = [_net_name(gate, style) for gate, style in enumerate(styles)]
    rails = {_net_name(gate, "rail"): (f"c{gate // 2}", gate % 2)
             for gate, style in enumerate(styles) if style == "rail"}
    inputs = [f"in{index}" for index in range(draw(st.integers(0, 3)))]
    netlist = Netlist("generated")
    for name in draw(st.permutations(inputs + outputs)):
        channel, rail = rails.get(name, (None, None))
        netlist.add_net(name, channel=channel, rail=rail)
    for name in inputs:
        netlist.add_input(name)
    for gate, output in enumerate(outputs):
        cell = draw(st.sampled_from(("BUF", "AND2", "MULLER2")))
        pins = ("A",) if cell == "BUF" else ("A", "B")
        connections = {pin: draw(st.sampled_from(inputs + outputs))
                       for pin in pins}
        connections["Z"] = output
        netlist.add_instance(f"g{gate}", cell, connections)
    return netlist


def _driven_channels(netlist):
    for name, nets in sorted(netlist.channels().items()):
        if len(nets) >= 2 and all(net.driver is not None for net in nets):
            yield ChannelNets(spec=ChannelSpec(name=name, radix=len(nets)),
                              rails=tuple(net.name for net in nets),
                              ack=f"{name}_ack")


def _assert_matches_oracle(netlist):
    graph = build_circuit_graph(netlist)
    reference = oracle.build_circuit_graph(netlist)
    levels = compute_levels(graph)
    reference_levels = oracle.compute_levels(reference)
    assert levels == reference_levels
    for net in netlist.nets():
        assert (rail_cone(netlist, graph, net.name)
                == oracle.rail_cone(netlist, reference, net.name))
    for channel in _driven_channels(netlist):
        report = compare_channel_symmetry(netlist, graph, channel,
                                          levels=levels)
        expected = oracle.compare_channel_symmetry(
            netlist, reference, channel, levels=reference_levels)
        assert report.mismatches == expected.mismatches


@given(netlists())
@settings(max_examples=200, deadline=None)
def test_generated_netlists_match_oracle(netlist):
    _assert_matches_oracle(netlist)


@pytest.mark.parametrize("build", [
    lambda: build_dual_rail_xor("x").netlist,
    lambda: build_half_buffer("h").netlist,
    # Three datapath cycles survive the ack/reset cut on the 8-bit AES;
    # the cycle-breaking order decides their levels.
    lambda: build_aes_netlist(word_width=8),
], ids=["xor", "half_buffer", "aes_8bit"])
def test_reference_designs_match_oracle(build):
    _assert_matches_oracle(build())
