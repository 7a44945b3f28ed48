"""Tests of the event-driven simulator and its capacitance-dependent delays."""

import pytest

from oracles.simulator import ReferenceSimulator
from repro.circuits import (
    DelayModel,
    Logic,
    Netlist,
    SimulationError,
    Simulator,
    settle_combinational,
)


def _chain_netlist():
    """a -> INV -> n1 -> INV -> y"""
    netlist = Netlist("chain")
    netlist.add_input("a")
    netlist.add_output("y")
    netlist.add_instance("i1", "INV", {"A": "a", "Z": "n1"})
    netlist.add_instance("i2", "INV", {"A": "n1", "Z": "y"})
    return netlist


class TestSimulatorBasics:
    def test_initial_state_all_low(self):
        sim = Simulator(_chain_netlist())
        assert sim.value("a") is Logic.LOW
        assert sim.value("y") is Logic.LOW

    def test_combinational_propagation(self):
        netlist = _chain_netlist()
        values = settle_combinational(netlist, {"a": Logic.HIGH})
        assert values["n1"] is Logic.LOW
        assert values["y"] is Logic.HIGH

    def test_settle_reaches_quiescence(self):
        sim = Simulator(_chain_netlist())
        sim.drive_input("a", Logic.HIGH)
        sim.settle()
        assert sim.is_quiescent()
        assert sim.value("y") is Logic.HIGH

    def test_trace_records_only_changes(self):
        sim = Simulator(_chain_netlist())
        sim.drive_input("a", Logic.HIGH)
        sim.drive_input("a", Logic.HIGH, time=1e-9)  # no change the second time
        trace = sim.settle()
        assert len(trace.transitions_for("a")) == 1

    def test_unknown_net_rejected(self):
        sim = Simulator(_chain_netlist())
        with pytest.raises(SimulationError):
            sim.drive_input("missing", Logic.HIGH)

    def test_past_event_rejected(self):
        sim = Simulator(_chain_netlist())
        sim.drive_input("a", Logic.HIGH, time=5e-9)
        sim.settle()
        with pytest.raises(SimulationError):
            sim.drive_input("a", Logic.LOW, time=1e-9)

    def test_run_until_stops_early(self):
        sim = Simulator(_chain_netlist())
        sim.drive_input("a", Logic.HIGH, time=10e-9)
        sim.run(until=1e-9)
        assert sim.value("a") is Logic.LOW
        assert sim.pending_events() == 1

    def test_oscillation_detected(self):
        netlist = Netlist("ring")
        netlist.add_instance("i1", "INV", {"A": "b", "Z": "a"})
        netlist.add_instance("i2", "BUF", {"A": "a", "Z": "b"})
        sim = Simulator(netlist)
        sim.schedule_drive("a", Logic.HIGH)
        with pytest.raises(SimulationError):
            sim.run(max_events=500)

    def test_level_annotation_copied_to_trace(self):
        netlist = _chain_netlist()
        sim = Simulator(netlist)
        sim.set_levels({"i1": 1, "i2": 2})
        sim.settle()  # reach the quiescent state (n1 high, y low)
        sim.drive_input("a", Logic.HIGH, time=1e-9)
        trace = sim.settle()
        levels = {t.net: t.level for t in trace if t.cause is not None and t.time > 1e-9}
        assert levels["n1"] == 1
        assert levels["y"] == 2


@pytest.fixture(params=[Simulator, ReferenceSimulator],
                ids=["compiled", "reference"])
def sim_class(request):
    return request.param


class TestRunForTimebase:
    """Regressions for the queue-drain timebase bug: ``run(until=...)`` must
    advance the clock to ``until`` even when no future event exists."""

    def test_back_to_back_run_for_on_quiescent_circuit(self, sim_class):
        sim = sim_class(_chain_netlist())
        sim.settle()  # consume the start-up events; circuit is quiescent
        start = sim.time
        sim.run_for(1e-9)
        assert sim.time == pytest.approx(start + 1e-9)
        sim.run_for(1e-9)
        # Pre-fix, time stayed at the last event and the timeline compressed.
        assert sim.time == pytest.approx(start + 2e-9)

    def test_drive_relative_to_time_after_idle_period(self, sim_class):
        """An environment scheduling relative to ``sim.time`` after an idle
        ``run_for`` must fire at the absolute time, not early."""
        sim = sim_class(_chain_netlist())
        sim.settle()
        start = sim.time
        sim.run_for(10e-9)
        sim.drive_input("a", Logic.HIGH, time=sim.time + 1e-9)
        trace = sim.settle()
        rises = [t for t in trace.transitions_for("a") if t.value is Logic.HIGH]
        assert rises[0].time == pytest.approx(start + 11e-9)

    def test_run_until_with_pending_event_unchanged(self, sim_class):
        sim = sim_class(_chain_netlist())
        sim.drive_input("a", Logic.HIGH, time=10e-9)
        sim.run(until=1e-9)
        assert sim.time == pytest.approx(1e-9)
        assert sim.pending_events() == 1

    def test_trace_end_time_covers_idle_run(self, sim_class):
        sim = sim_class(_chain_netlist())
        sim.settle()
        start = sim.time
        sim.run_for(5e-9)
        assert sim.trace.end_time == pytest.approx(start + 5e-9)


class TestEventBudgetBoundary:
    """Regressions for the budget off-by-one: at most ``max_events`` events
    may be committed, and the error names the honoured budget."""

    def test_exact_budget_succeeds(self, sim_class):
        # Driving the settled chain commits exactly 3 events (a, n1, y).
        sim = sim_class(_chain_netlist())
        sim.settle()
        sim.drive_input("a", Logic.HIGH)
        sim.run(max_events=3)
        assert sim.is_quiescent()
        assert sim.value("y") is Logic.HIGH

    def test_budget_exhaustion_raises_before_commit(self, sim_class):
        sim = sim_class(_chain_netlist())
        sim.settle()
        committed_before = len(sim.trace)
        sim.drive_input("a", Logic.HIGH)
        with pytest.raises(SimulationError, match="budget of 2"):
            sim.run(max_events=2)
        # Pre-fix the third event was committed before the raise.
        assert len(sim.trace) - committed_before == 2

    def test_oscillation_commits_at_most_budget(self, sim_class):
        netlist = Netlist("ring")
        netlist.add_instance("i1", "INV", {"A": "b", "Z": "a"})
        netlist.add_instance("i2", "BUF", {"A": "a", "Z": "b"})
        sim = sim_class(netlist)
        sim.schedule_drive("a", Logic.HIGH)
        with pytest.raises(SimulationError, match="budget of 50"):
            sim.run(max_events=50)
        assert len(sim.trace) <= 50


class TestDelayModel:
    def test_delay_grows_with_capacitance(self):
        netlist = _chain_netlist()
        model = DelayModel()
        cell = netlist.library.get("INV")
        small = model.gate_delay(netlist, cell, "n1")
        netlist.set_routing_cap("n1", 50.0)
        large = model.gate_delay(netlist, cell, "n1")
        assert large > small

    def test_transition_time_scales_with_cap(self):
        netlist = _chain_netlist()
        model = DelayModel()
        netlist.set_routing_cap("n1", 8.0)
        base = model.transition_time(netlist, "n1")
        netlist.set_routing_cap("n1", 16.0)
        assert model.transition_time(netlist, "n1") > base

    def test_heavier_output_delays_downstream_transition(self):
        """The Fig. 7 mechanism: a heavier net shifts all downstream events."""
        light = _chain_netlist()
        heavy = _chain_netlist()
        light.set_routing_cap("n1", 8.0)
        heavy.set_routing_cap("n1", 32.0)

        def output_time(netlist):
            sim = Simulator(netlist)
            sim.settle()  # quiescent state: n1 high, y low
            sim.drive_input("a", Logic.HIGH, time=1e-9)
            trace = sim.settle()
            rises = [t for t in trace.transitions_for("y") if t.time > 1e-9]
            return rises[0].time

        assert output_time(heavy) > output_time(light)
