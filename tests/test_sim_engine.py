"""Equivalence suite of the compiled simulation engine.

Three contracts are pinned here:

* the int-coded truth tables reproduce every library cell's behavioural
  closure exactly;
* the compiled event :class:`Simulator` is value- and time-identical to the
  scalar :class:`ReferenceSimulator` loop across the QDI block library
  (gates, handshake cycles, the validate fixtures);
* the levelized :func:`simulate_batch` sweep settles to exactly the values
  of the per-vector event loop.
"""

import random

import numpy as np
import pytest

from oracles.simulator import ReferenceSimulator
from repro.circuits import (
    DelayModel,
    EngineError,
    Logic,
    Netlist,
    Simulator,
    build_dual_rail_and2,
    build_dual_rail_or2,
    build_dual_rail_xor,
    build_half_buffer,
    build_xor_bank,
    compile_netlist,
    DEFAULT_LIBRARY,
    settle_combinational,
    simulate_batch,
)
from repro.circuits.handshake import (
    FourPhaseConsumer,
    FourPhaseProducer,
    ResetPulse,
)


def _transition_tuples(trace):
    return sorted(
        (t.net, t.time, int(t.value), t.kind.value, t.cause, t.level)
        for t in trace.transitions
    )


def _chain_netlist():
    netlist = Netlist("chain")
    netlist.add_input("a")
    netlist.add_output("y")
    netlist.add_instance("i1", "INV", {"A": "a", "Z": "n1"})
    netlist.add_instance("i2", "INV", {"A": "n1", "Z": "y"})
    return netlist


class TestTruthTables:
    def test_every_library_cell_matches_its_closure(self):
        for cell in DEFAULT_LIBRARY:
            table = cell.truth_table()
            n = len(cell.inputs)
            assert len(table) == 1 << (n + 1)
            for packed in range(1 << n):
                values = {pin: Logic((packed >> i) & 1)
                          for i, pin in enumerate(cell.inputs)}
                for prev in (Logic.LOW, Logic.HIGH):
                    expected = cell.compute(values, prev)
                    assert table[(packed << 1) | int(prev)] == int(expected), \
                        f"{cell.name} packed={packed:b} prev={prev}"

    def test_muller_table_is_state_holding(self):
        cell = DEFAULT_LIBRARY.get("MULLER2")
        table = cell.truth_table()
        # Disagreeing inputs keep the previous output.
        for packed in (0b01, 0b10):
            assert table[(packed << 1) | 0] == 0
            assert table[(packed << 1) | 1] == 1


class TestCompiledNetlistCache:
    def test_compile_is_cached_until_structure_changes(self):
        netlist = _chain_netlist()
        first = compile_netlist(netlist)
        assert compile_netlist(netlist) is first
        netlist.add_instance("i3", "BUF", {"A": "y", "Z": "y2"})
        second = compile_netlist(netlist)
        assert second is not first
        assert second.instance_count == first.instance_count + 1

    def test_routing_cap_change_does_not_recompile(self):
        netlist = _chain_netlist()
        first = compile_netlist(netlist)
        netlist.set_routing_cap("n1", 42.0)
        assert compile_netlist(netlist) is first


def _run_two_operand(sim_class, block, pairs, env_delay=20e-12):
    sim = sim_class(block.netlist)
    sim.set_levels(block.level_of_instance)
    producer_a = FourPhaseProducer(block.inputs[0], block.ack_out,
                                   [p[0] for p in pairs],
                                   env_delay=env_delay, start_time=200e-12)
    producer_b = FourPhaseProducer(block.inputs[1], block.ack_out,
                                   [p[1] for p in pairs],
                                   env_delay=env_delay, start_time=200e-12)
    consumer = FourPhaseConsumer(block.outputs[0], ack_net=block.ack_in,
                                 ack_active_high=False, env_delay=env_delay)
    for process in (producer_a, producer_b, consumer):
        sim.add_process(process)
    if block.reset is not None:
        sim.add_process(ResetPulse(block.reset, duration=100e-12))
    trace = sim.settle()
    values = {net.name: sim.value(net.name) for net in block.netlist.nets()}
    return trace, consumer.received, sim.time, values


TWO_OPERAND_BUILDERS = [
    ("xor", build_dual_rail_xor),
    ("and2", build_dual_rail_and2),
    ("or2", build_dual_rail_or2),
]
ALL_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestEventEngineEquivalence:
    """Compiled Simulator vs the scalar ReferenceSimulator oracle."""

    @pytest.mark.parametrize("name,builder", TWO_OPERAND_BUILDERS)
    def test_handshake_blocks_are_identical(self, name, builder):
        compiled = _run_two_operand(Simulator, builder(name), ALL_PAIRS)
        reference = _run_two_operand(ReferenceSimulator, builder(name), ALL_PAIRS)
        assert _transition_tuples(compiled[0]) == _transition_tuples(reference[0])
        assert compiled[1] == reference[1]
        assert compiled[2] == reference[2]
        assert compiled[3] == reference[3]

    @pytest.mark.parametrize("name,builder", TWO_OPERAND_BUILDERS)
    def test_unbalanced_caps_keep_identity(self, name, builder):
        def build():
            block = builder(name)
            block.set_level_cap(3, 1, 24.0)
            return block
        compiled = _run_two_operand(Simulator, build(), ALL_PAIRS)
        reference = _run_two_operand(ReferenceSimulator, build(), ALL_PAIRS)
        assert _transition_tuples(compiled[0]) == _transition_tuples(reference[0])
        assert compiled[2] == reference[2]

    @pytest.mark.parametrize("radix", [2, 3, 4])
    def test_half_buffer_identity(self, radix):
        def run(sim_class):
            block = build_half_buffer("hb", radix=radix)
            sim = sim_class(block.netlist)
            producer = FourPhaseProducer(block.inputs[0], block.ack_out,
                                         [radix - 1, 0], start_time=200e-12)
            consumer = FourPhaseConsumer(block.outputs[0], ack_net=block.ack_in,
                                         ack_active_high=False)
            sim.add_process(producer)
            sim.add_process(consumer)
            sim.add_process(ResetPulse(block.reset, duration=100e-12))
            trace = sim.settle()
            return _transition_tuples(trace), consumer.received, sim.time
        assert run(Simulator) == run(ReferenceSimulator)

    def test_xor_bank_wide_fanout_identity(self):
        """Word-wide banks exercise the vectorized same-timestamp sweep."""
        def run(sim_class):
            bank = build_xor_bank(4, "bk")
            sim = sim_class(bank.netlist)
            for bit, block in enumerate(bank.bits):
                sim.add_process(FourPhaseProducer(
                    block.inputs[0], block.ack_out, [(0b1010 >> bit) & 1],
                    start_time=200e-12, name=f"pa{bit}"))
                sim.add_process(FourPhaseProducer(
                    block.inputs[1], block.ack_out, [(0b0110 >> bit) & 1],
                    start_time=200e-12, name=f"pb{bit}"))
                sim.add_process(FourPhaseConsumer(
                    block.outputs[0], ack_net=block.ack_in,
                    ack_active_high=False, name=f"c{bit}"))
                sim.add_process(ResetPulse(block.reset, name=f"r{bit}"))
            trace = sim.settle()
            values = {net.name: int(sim.value(net.name))
                      for net in bank.netlist.nets()}
            return _transition_tuples(trace), values, sim.time
        assert run(Simulator) == run(ReferenceSimulator)

    def test_run_until_identity(self):
        def run(sim_class):
            netlist = _chain_netlist()
            sim = sim_class(netlist)
            sim.drive_input("a", Logic.HIGH, time=1e-9)
            sim.run(until=0.5e-9)
            mid = (sim.time, int(sim.value("a")), sim.pending_events())
            sim.settle()
            return mid, _transition_tuples(sim.trace), sim.time
        assert run(Simulator) == run(ReferenceSimulator)

    def test_custom_delay_model_identity(self):
        model = DelayModel(intrinsic_s=5e-12, resistance_scale=2.0)
        def run(sim_class):
            block = build_dual_rail_xor("x")
            sim = sim_class(block.netlist, delay_model=model)
            sim.drive_input(block.inputs[0].rails[1], Logic.HIGH)
            sim.drive_input(block.inputs[1].rails[0], Logic.HIGH)
            sim.settle()
            return _transition_tuples(sim.trace), sim.time
        assert run(Simulator) == run(ReferenceSimulator)


class TestSimulateBatch:
    @pytest.mark.parametrize("name,builder", TWO_OPERAND_BUILDERS)
    def test_matches_settle_combinational_exhaustively(self, name, builder):
        block = builder(name)
        netlist = block.netlist
        rails = [*block.inputs[0].rails, *block.inputs[1].rails]
        stimuli = []
        for packed in range(1 << len(rails)):
            stimuli.append({rail: (packed >> i) & 1
                            for i, rail in enumerate(rails)})
        result = simulate_batch(netlist, stimuli)
        assert len(result) == len(stimuli)
        for index in (0, 3, 7, len(stimuli) - 1):
            reference = settle_combinational(
                netlist, {k: Logic(v) for k, v in stimuli[index].items()})
            assert result.row(index) == reference

    def test_matches_event_loop_on_xor_bank_random_stimuli(self):
        bank = build_xor_bank(3, "bk")
        rails = [rail for block in bank.bits
                 for rail in (*block.inputs[0].rails, *block.inputs[1].rails)]
        rng = random.Random(5)
        stimuli = [{rail: rng.randint(0, 1) for rail in rails}
                   for _ in range(40)]
        result = simulate_batch(bank.netlist, stimuli)
        for index in range(0, len(stimuli), 7):
            reference = settle_combinational(
                bank.netlist,
                {k: Logic(v) for k, v in stimuli[index].items()})
            assert result.row(index) == reference

    def test_combinational_startup_matches(self):
        """INV chains must produce their true outputs from the all-low state."""
        netlist = _chain_netlist()
        result = simulate_batch(netlist, [{}, {"a": 1}])
        assert result.value(0, "n1") is Logic.HIGH
        assert result.value(0, "y") is Logic.LOW
        assert result.value(1, "n1") is Logic.LOW
        assert result.value(1, "y") is Logic.HIGH
        assert result.row(1) == settle_combinational(netlist, {"a": Logic.HIGH})

    def test_column_accessor(self):
        netlist = _chain_netlist()
        result = simulate_batch(netlist, [{"a": 0}, {"a": 1}, {"a": 0}])
        assert list(result.column("y")) == [0, 1, 0]

    def test_unknown_net_rejected(self):
        with pytest.raises(EngineError):
            simulate_batch(_chain_netlist(), [{"missing": 1}])

    def test_unknown_net_lookup_rejected(self):
        result = simulate_batch(_chain_netlist(), [{"a": 1}])
        with pytest.raises(EngineError):
            result.value(0, "missing")

    def test_oscillating_batch_raises(self):
        netlist = Netlist("ring")
        netlist.add_instance("i1", "INV", {"A": "b", "Z": "a"})
        netlist.add_instance("i2", "BUF", {"A": "a", "Z": "b"})
        with pytest.raises(EngineError):
            simulate_batch(netlist, [{}])

    def test_empty_batch(self):
        result = simulate_batch(_chain_netlist(), [])
        assert len(result) == 0

    def test_accepts_logic_and_int_values(self):
        netlist = _chain_netlist()
        a = simulate_batch(netlist, [{"a": Logic.HIGH}])
        b = simulate_batch(netlist, [{"a": 1}])
        assert np.array_equal(a.values, b.values)
