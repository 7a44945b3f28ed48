"""Scalar event-loop oracle of the compiled gate-level simulator.

:class:`repro.circuits.simulator.Simulator` runs on the compiled netlist
view (dense net ids, int-coded truth tables, batched fan-out sweeps);
:class:`ReferenceSimulator` keeps the original per-event loop over a
``net name → Logic`` dict.  The equivalence tests and
``benchmarks/bench_sim_engine.py`` compare the compiled engine against it.
"""

import heapq
from typing import Dict, List, Optional, Tuple

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist
from repro.circuits.signals import (
    Event,
    Logic,
    TraceRecord,
    Transition,
    TransitionKind,
)
from repro.circuits.simulator import DelayModel, SimulationError, Simulator


class ReferenceSimulator(Simulator):
    """The original scalar event loop, kept as the equivalence oracle.

    State lives in a plain ``net name → Logic`` dict, gates evaluate through
    their behavioural closures (:meth:`GateType.compute`) and every event's
    fan-out is walked sink by sink — the literal textbook loop the compiled
    engine replaces.  Tests assert the compiled :class:`Simulator` is value-
    and time-identical to this loop across the QDI block library.
    """

    def __init__(self, netlist: Netlist, delay_model: Optional[DelayModel] = None):
        self._dict_values: Dict[str, Logic] = {}
        super().__init__(netlist, delay_model)
        self._inst_info: Dict[str, Tuple[GateType, List[Tuple[str, str]], str]] = {}
        for inst in netlist.instances():
            cell = netlist.library.get(inst.cell)
            input_nets = [(pin, inst.net_of(pin)) for pin in cell.inputs]
            self._inst_info[inst.name] = (cell, input_nets, inst.net_of(cell.output))
        self._name_sinks: Dict[str, List[str]] = {
            net.name: [sink.instance for sink in net.sinks] for net in netlist.nets()
        }

    def reset_all_low(self) -> None:
        super().reset_all_low()
        for net in self.netlist.nets():
            self._dict_values[net.name] = Logic.LOW

    def value(self, net: str) -> Logic:
        try:
            return self._dict_values[net]
        except KeyError:
            raise SimulationError(f"net {net!r} does not exist") from None

    def _commit_scalar(self, event: Event) -> Optional[Logic]:
        value = event.value
        if event.cause is not None:
            info = self._inst_info.get(event.cause)
            if info is not None:
                cell, input_nets, _ = info
                inputs = {pin: self._dict_values[net] for pin, net in input_nets}
                value = cell.compute(inputs, self._dict_values[event.net])
        old = self._dict_values[event.net]
        if old is value:
            return None
        self._dict_values[event.net] = value
        if self.record_trace:
            level = 0
            if event.cause is not None:
                level = self._levels.get(event.cause, 0)
            self.trace.add(
                Transition(
                    net=event.net,
                    time=event.time,
                    value=value,
                    kind=TransitionKind.from_values(old, value),
                    cause=event.cause,
                    level=level,
                )
            )
        return value

    def _evaluate_fanout(self, net: str, time: float) -> None:
        """Re-evaluate every gate whose inputs include ``net``."""
        for sink_name in self._name_sinks.get(net, ()):
            cell, input_nets, out_net = self._inst_info[sink_name]
            input_values = {pin: self._dict_values[in_net] for pin, in_net in input_nets}
            previous = self._dict_values[out_net]
            new_value = cell.compute(input_values, previous)
            if new_value is not previous:
                delay = self.delay_model.gate_delay(self.netlist, cell, out_net)
                self.schedule_drive(out_net, new_value, time + delay, cause=sink_name)

    def _evaluate_all_gates(self, time: float) -> None:
        for inst_name, (cell, input_nets, out_net) in self._inst_info.items():
            input_values = {pin: self._dict_values[in_net] for pin, in_net in input_nets}
            previous = self._dict_values[out_net]
            new_value = cell.compute(input_values, previous)
            if new_value is not previous:
                delay = self.delay_model.gate_delay(self.netlist, cell, out_net)
                self.schedule_drive(out_net, new_value, time + delay, cause=inst_name)

    def run(self, until: Optional[float] = None, max_events: int = 2_000_000) -> TraceRecord:
        """The per-event scalar loop (same contract as :meth:`Simulator.run`)."""
        if not self._started:
            if self.propagate_gates:
                self._evaluate_all_gates(self._time)
            for process in self._processes:
                process.start(self)
            self._started = True
        processed = 0
        while self._events:
            if until is not None and self._events[0].time > until:
                self._time = until
                break
            event = heapq.heappop(self._events)
            self._time = max(self._time, event.time)
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"event budget of {max_events} exceeded at "
                    f"t={self._time:.3e}s; the circuit is probably oscillating"
                )
            value = self._commit_scalar(event)
            if value is not None:
                if self.propagate_gates:
                    self._evaluate_fanout(event.net, event.time)
                self._notify(event.net, value, event.time)
        if not self._events and until is not None and until > self._time:
            self._time = until
        self.trace.end_time = max(self.trace.end_time, self._time)
        return self.trace
