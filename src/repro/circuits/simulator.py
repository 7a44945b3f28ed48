"""Event-driven simulator for QDI gate-level netlists.

The simulator propagates logic transitions through a
:class:`~repro.circuits.netlist.Netlist` with **capacitance-dependent gate
delays**: the time a gate takes to switch its output is an RC product of its
drive resistance and the total capacitance of its output node
(``C = Cl + Cpar + Csc``).  This is the mechanism by which an unbalanced
routing capacitance shifts all downstream transitions in time — exactly the
effect equation (12) of the paper formalises and Fig. 7 illustrates.

Environment behaviour (four-phase producers and consumers, reset generators)
is modelled with :class:`Process` objects that react to net changes and
schedule new stimuli.

Engine
------
:class:`Simulator` runs on the compiled view of the netlist
(:mod:`repro.circuits.engine`): net values live in one array indexed by dense
net ids, every gate evaluates through an int-coded truth table, per-gate
delays are resolved once at construction, and all events sharing a timestamp
are committed as a batch whose merged fan-out is swept once — deduplicated,
and vectorized over the affected gates when the batch is wide (the word-wide
rail flips of a QDI handshake).  The original per-event scalar loop
(dict-backed state, behavioural closures) lives with the tests
(``tests/oracles/simulator.py``) as the oracle the compiled engine is
validated against, as the per-guess DPA loop of ``tests/oracles/dpa.py``
anchors the batched attack engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..obs.telemetry import current
from .engine import compile_netlist
from .gates import GateType
from .netlist import Netlist
from .signals import Event, Logic, TraceRecord, Transition, TransitionKind


class SimulationError(Exception):
    """Raised when the simulation cannot proceed (deadlock, runaway, ...)."""


@dataclass
class DelayModel:
    """Gate delay as an affine function of the output node capacitance.

    ``delay = intrinsic_s + drive_ohm * C_total`` where ``C_total`` is the
    femtofarad node capacitance converted to farads.  The same ``Δt`` is the
    charge/discharge time that enters the electrical signature of
    equation (12).
    """

    intrinsic_s: float = 10e-12
    resistance_scale: float = 1.0

    def gate_delay(self, netlist: Netlist, cell: GateType, output_net: str) -> float:
        cap_farad = netlist.total_cap_ff(output_net) * 1e-15
        return self.intrinsic_s + self.resistance_scale * cell.drive_ohm * cap_farad

    def transition_time(self, netlist: Netlist, output_net: str) -> float:
        """Charge/discharge time Δt of a net (used by the electrical model)."""
        cell = netlist.driver_cell(output_net)
        drive = cell.drive_ohm if cell is not None else 5000.0
        cap_farad = netlist.total_cap_ff(output_net) * 1e-15
        return self.resistance_scale * drive * cap_farad


class Process:
    """Base class for environment processes attached to the simulator.

    Subclasses override :meth:`start` (called once before the run) and
    :meth:`on_change` (called after every committed net transition the process
    is sensitive to).  Processes drive nets with
    :meth:`Simulator.schedule_drive`.
    """

    name: str = "process"

    def sensitivity(self) -> Sequence[str]:
        """Nets whose transitions should wake this process."""
        return ()

    def start(self, sim: "Simulator") -> None:  # pragma: no cover - default no-op
        """Called once when the simulation starts."""

    def on_change(self, sim: "Simulator", net: str, value: Logic, time: float) -> None:
        """Called after a sensitive net committed a new value."""


#: Batch width above which the fan-out sweep switches from the scalar
#: table-lookup loop to one vectorized numpy evaluation of all affected gates.
_VECTOR_SWEEP_THRESHOLD = 8


class Simulator:
    """Discrete-event simulator over a gate-level netlist.

    Per-gate delays are resolved once at construction from the current net
    capacitances (they are static during a run); rebuild the simulator — or
    call :meth:`refresh_delays` — after changing routing capacitances.
    """

    def __init__(self, netlist: Netlist, delay_model: Optional[DelayModel] = None):
        self.netlist = netlist
        self.delay_model = delay_model if delay_model is not None else DelayModel()
        self._compiled = compile_netlist(netlist)
        self._net_index = self._compiled.net_index
        # Array-backed net state: one 0/1 cell per dense net id.
        self._state = np.zeros(self._compiled.net_count, dtype=np.uint8)
        self._events: List[Event] = []
        self._sequence = 0
        self._time = 0.0
        self.trace = TraceRecord()
        self._processes: List[Process] = []
        self._watchers: Dict[str, List[Process]] = {}
        self._levels: Dict[str, int] = {}
        self.record_trace = True
        #: When false, committed events do not propagate into gate fan-out
        #: (and gates are not start-up evaluated): the simulator becomes a
        #: pure stimulus-replay timeline.  Used by the simulator-backed trace
        #: generators to replay channel schedules on structural netlists.
        self.propagate_gates = True
        self._started = False
        self.refresh_delays()
        self.reset_all_low()

    # --------------------------------------------------------------- set-up
    def refresh_delays(self) -> None:
        """Re-resolve every gate's delay from the current net capacitances."""
        compiled = self._compiled
        self._delays = [
            self.delay_model.gate_delay(self.netlist, compiled.inst_cells[index],
                                        compiled.out_names[index])
            for index in range(compiled.instance_count)
        ]

    def reset_all_low(self) -> None:
        """Force every net to the all-low (NULL) state without recording it.

        QDI circuits are reset to the invalid state before any computation
        (four-phase protocol, phase 3/4); this models the power-on reset.
        """
        self._state[:] = 0

    def set_levels(self, levels: Mapping[str, int]) -> None:
        """Attach logical-level annotations (instance name → level).

        Levels come from :mod:`repro.graph.levels`; they are copied onto the
        recorded transitions so the electrical model can attribute current
        pulses to logical levels, as in equation (5) of the paper.
        """
        self._levels = dict(levels)

    def add_process(self, process: Process) -> None:
        self._processes.append(process)
        for net in process.sensitivity():
            self._watchers.setdefault(net, []).append(process)

    # -------------------------------------------------------------- queries
    @property
    def time(self) -> float:
        return self._time

    def value(self, net: str) -> Logic:
        try:
            return Logic(int(self._state[self._net_index[net]]))
        except KeyError:
            raise SimulationError(f"net {net!r} does not exist") from None

    def values(self, nets: Iterable[str]) -> List[Logic]:
        return [self.value(n) for n in nets]

    def pending_events(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------ scheduling
    def schedule_drive(self, net: str, value: Logic, time: Optional[float] = None,
                       cause: Optional[str] = None) -> None:
        """Schedule a net to take ``value`` at ``time`` (default: now)."""
        if net not in self._net_index:
            raise SimulationError(f"cannot drive unknown net {net!r}")
        when = self._time if time is None else time
        if when < self._time:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self._time}"
            )
        heapq.heappush(self._events, Event(when, self._sequence, net, value, cause))
        self._sequence += 1

    def drive_input(self, net: str, value: Logic, time: Optional[float] = None) -> None:
        """Drive a primary-input net from the environment."""
        self.schedule_drive(net, value, time, cause=None)

    # ---------------------------------------------------------------- engine
    def _eval_instance(self, index: int) -> int:
        """Table evaluation of one gate against the current net state."""
        compiled = self._compiled
        state = self._state
        packed = 0
        for net_id, weight in compiled.scalar_pins[index]:
            if state[net_id]:
                packed += weight
        return int(compiled.table[compiled.table_offset[index] + (packed << 1)
                                  + state[compiled.out_ids[index]]])

    def _commit(self, event: Event) -> Optional[int]:
        """Apply an event; return the committed value, or ``None`` when the
        net did not change.

        Events caused by a gate are re-evaluated against the gate's *current*
        inputs before being applied (inertial-delay behaviour): if the inputs
        changed again while the output event was in flight, the stale value is
        discarded and the fan-out evaluation triggered by the newer input
        change produces the correct output instead.
        """
        net_id = self._net_index[event.net]
        value = int(event.value)
        if event.cause is not None:
            cause_index = self._compiled.inst_index.get(event.cause)
            if cause_index is not None:
                value = self._eval_instance(cause_index)
        old = int(self._state[net_id])
        if old == value:
            return None
        self._state[net_id] = value
        if self.record_trace:
            level = 0
            if event.cause is not None:
                level = self._levels.get(event.cause, 0)
            self.trace.add(
                Transition(
                    net=event.net,
                    time=event.time,
                    value=Logic(value),
                    kind=TransitionKind.from_values(Logic(old), Logic(value)),
                    cause=event.cause,
                    level=level,
                )
            )
        return value

    def _schedule_gate_output(self, index: int, value: int, time: float) -> None:
        compiled = self._compiled
        heapq.heappush(self._events, Event(
            time + self._delays[index], self._sequence,
            compiled.out_names[index], Logic(value), compiled.inst_names[index],
        ))
        self._sequence += 1

    def _sweep_fanout(self, changed_net_ids: List[int], time: float) -> None:
        """Evaluate the merged fan-out of a same-timestamp commit batch.

        Every affected gate is evaluated exactly once against the fully
        committed batch state — the scalar loop's per-event evaluations of a
        shared sink collapse into one, which both removes redundant work and
        keeps zero-width same-instant input glitches from spawning phantom
        output events.  Gate order preserves the scalar loop's discovery
        order (commit order, then sink order), so schedules stay
        deterministic.
        """
        compiled = self._compiled
        affected: List[int] = []
        seen = set()
        for net_id in changed_net_ids:
            for inst_id in compiled.net_sinks[net_id]:
                if inst_id not in seen:
                    seen.add(inst_id)
                    affected.append(inst_id)
        if not affected:
            return
        if len(affected) < _VECTOR_SWEEP_THRESHOLD:
            state = self._state
            for index in affected:
                previous = int(state[compiled.out_ids[index]])
                new_value = self._eval_instance(index)
                if new_value != previous:
                    self._schedule_gate_output(index, new_value, time)
            return
        ids = np.asarray(affected, dtype=np.int64)
        packed = (self._state[compiled.input_matrix[ids]]
                  * compiled.weight_matrix[ids]).sum(axis=1)
        previous = self._state[compiled.out_ids[ids]]
        new_values = compiled.table[compiled.table_offset[ids] + (packed << 1)
                                    + previous]
        for position in np.nonzero(new_values != previous)[0]:
            self._schedule_gate_output(affected[position],
                                       int(new_values[position]), time)

    def _notify(self, net: str, value: Logic, time: float) -> None:
        for process in self._watchers.get(net, ()):  # processes see committed values
            process.on_change(self, net, value, time)

    def _evaluate_all_gates(self, time: float) -> None:
        """Schedule the outputs of gates whose current output is inconsistent.

        QDI blocks reset to the all-low state, which is self-consistent for
        the monotonic cells they are built from; cells such as inverters,
        however, must produce their true output at start-up.  This pass makes
        the simulator equally usable for ordinary combinational netlists.
        """
        compiled = self._compiled
        if not compiled.instance_count:
            return
        packed = (self._state[compiled.input_matrix]
                  * compiled.weight_matrix).sum(axis=1)
        previous = self._state[compiled.out_ids]
        new_values = compiled.table[compiled.table_offset + (packed << 1) + previous]
        for index in np.nonzero(new_values != previous)[0]:
            self._schedule_gate_output(int(index), int(new_values[index]), time)

    def run(self, until: Optional[float] = None, max_events: int = 2_000_000) -> TraceRecord:
        """Run until the event queue drains, ``until`` is reached, or the
        event budget is exhausted (which raises, as it indicates a livelock).

        The clock always ends at ``until`` when one is given — including when
        the queue drains early — so back-to-back :meth:`run_for` calls on a
        quiescent circuit keep real-time pacing instead of compressing the
        timeline.  At most ``max_events`` events are committed; the event
        that would exceed the budget raises *before* being applied.
        """
        if not self._started:
            if self.propagate_gates:
                self._evaluate_all_gates(self._time)
            for process in self._processes:
                process.start(self)
            self._started = True
        processed = 0
        committed = 0
        events = self._events
        while events:
            batch_time = events[0].time
            if until is not None and batch_time > until:
                self._time = until
                break
            self._time = max(self._time, batch_time)
            changed_net_ids: List[int] = []
            while events and events[0].time == batch_time:
                event = heapq.heappop(events)
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"event budget of {max_events} exceeded at "
                        f"t={self._time:.3e}s; the circuit is probably oscillating"
                    )
                value = self._commit(event)
                if value is not None:
                    committed += 1
                    changed_net_ids.append(self._net_index[event.net])
                    self._notify(event.net, Logic(value), batch_time)
            if changed_net_ids and self.propagate_gates:
                self._sweep_fanout(changed_net_ids, batch_time)
        if not events and until is not None and until > self._time:
            # Queue drained before the horizon: advance the clock to it so
            # durations compose (the run_for timebase fix).
            self._time = until
        if processed:
            telemetry = current()
            telemetry.count("sim_events", processed)
            telemetry.count("sim_events_committed", committed)
        self.trace.end_time = max(self.trace.end_time, self._time)
        return self.trace

    def run_for(self, duration: float, **kwargs) -> TraceRecord:
        """Run for ``duration`` seconds beyond the current time."""
        return self.run(until=self._time + duration, **kwargs)

    def settle(self, max_events: int = 2_000_000) -> TraceRecord:
        """Run until no events remain (the circuit is quiescent)."""
        return self.run(until=None, max_events=max_events)

    def is_quiescent(self) -> bool:
        return not self._events


def settle_combinational(netlist: Netlist, inputs: Mapping[str, Logic],
                         delay_model: Optional[DelayModel] = None) -> Dict[str, Logic]:
    """Convenience helper: apply ``inputs``, settle, and return all net values.

    Useful for functionally checking small QDI blocks without setting up
    handshake processes.  For whole stimulus batches,
    :func:`repro.circuits.engine.simulate_batch` computes the same settled
    values vectorized.
    """
    sim = Simulator(netlist, delay_model=delay_model)
    for net, value in inputs.items():
        sim.drive_input(net, value)
    sim.settle()
    return {net.name: sim.value(net.name) for net in netlist.nets()}
