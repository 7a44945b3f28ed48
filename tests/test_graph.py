"""Tests of the directed-graph formalism of Section III."""

import pytest

from repro.circuits import build_dual_rail_xor, build_half_buffer, Netlist, simulate_two_operand_block
from repro.circuits.signals import TransitionKind
from repro.graph import (
    build_circuit_graph,
    compare_channel_symmetry,
    compute_levels,
    critical_path_length,
    gates_by_level,
    rail_cone,
    structural_profile,
    switching_profile,
    verify_constant_profile,
)


@pytest.fixture
def xor_block():
    return build_dual_rail_xor("x")


@pytest.fixture
def xor_graph(xor_block):
    return build_circuit_graph(xor_block.netlist)


class TestGraphConstruction:
    def test_gate_vertex_count(self, xor_graph):
        assert len(xor_graph.names) == 9


class TestLevels:
    def test_levels_match_fig5(self, xor_block, xor_graph):
        """Fig. 5: M gates at level 1, OR at 2, Cr at 3, completion at 4."""
        levels = compute_levels(xor_graph)
        assert levels[xor_block.instance_at(1, 1)] == 1
        assert levels[xor_block.instance_at(2, 2)] == 2
        assert levels[xor_block.instance_at(3, 1)] == 3
        assert levels[xor_block.instance_at(4, 1)] == 4

    def test_critical_path_length(self, xor_graph):
        assert critical_path_length(xor_graph) == 4

    def test_structural_profile(self, xor_graph):
        profile = structural_profile(xor_graph)
        assert profile.nc == 4
        assert profile.nt == 9
        assert profile.nij == {1: 4, 2: 2, 3: 2, 4: 1}

    def test_switching_profile_matches_paper(self, xor_block, xor_graph):
        """One computation fires exactly one gate per level: Nt = Nc = 4."""
        levels = compute_levels(xor_graph)
        result = simulate_two_operand_block(xor_block, [(0, 1)])
        profile = switching_profile(result.trace, levels, kind=TransitionKind.RISING)
        assert profile.nc == 4
        assert profile.nt == 4
        assert profile.nij == {1: 1, 2: 1, 3: 1, 4: 1}
        assert profile.is_one_per_level()

    def test_profiles_constant_across_data(self, xor_block, xor_graph):
        levels = compute_levels(xor_graph)
        profiles = []
        for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            result = simulate_two_operand_block(xor_block, [pair])
            profiles.append(switching_profile(result.trace, levels))
        assert verify_constant_profile(profiles)

    def test_gates_by_level(self, xor_graph):
        levels = compute_levels(xor_graph)
        grouped = gates_by_level(levels)
        assert len(grouped[1]) == 4 and len(grouped[4]) == 1

    def test_cycle_broken_on_half_buffer_loop(self):
        """Acknowledge feedback must not prevent level computation."""
        hb = build_half_buffer("h")
        graph = build_circuit_graph(hb.netlist)
        levels = compute_levels(graph)
        assert max(levels.values()) == 2


class TestSymmetry:
    def test_xor_is_symmetric(self, xor_block, xor_graph):
        report = compare_channel_symmetry(xor_block.netlist, xor_graph,
                                          xor_block.outputs[0])
        assert report.is_symmetric
        assert all(p.size == 4 for p in report.profiles)

    def test_rail_cone_contents(self, xor_block, xor_graph):
        cone = rail_cone(xor_block.netlist, xor_graph, xor_block.outputs[0].rails[0])
        assert set(cone) == set(xor_block.rail_cones[xor_block.outputs[0].rails[0]])

    def test_asymmetric_structure_detected(self):
        """A hand-built unbalanced cell must be flagged."""
        netlist = Netlist("unbal")
        netlist.add_input("a_r0")
        netlist.add_input("a_r1")
        netlist.add_net("c_r0", channel="c", rail=0)
        netlist.add_net("c_r1", channel="c", rail=1)
        # Rail 0 goes through two gates, rail 1 through one.
        netlist.add_instance("g0a", "BUF", {"A": "a_r0", "Z": "m0"})
        netlist.add_instance("g0b", "BUF", {"A": "m0", "Z": "c_r0"})
        netlist.add_instance("g1", "BUF", {"A": "a_r1", "Z": "c_r1"})
        graph = build_circuit_graph(netlist)
        from repro.circuits.channels import ChannelSpec
        channel = ChannelSpec("c").declare(netlist)
        report = compare_channel_symmetry(netlist, graph, channel)
        assert not report.is_symmetric
        assert report.mismatches
