"""Four-phase handshake environment processes.

These :class:`~repro.circuits.simulator.Process` subclasses model the
environment of a QDI block under test: producers push a sequence of values
into an input channel following the four-phase protocol of Fig. 2 of the
paper, consumers acknowledge output channels, and a reset pulse initialises
resettable Muller gates.

Protocol conventions
--------------------
* A **producer** drives the rails of a channel and observes an acknowledge
  net.  With an *active-high* acknowledge the sequence is: drive one rail high
  (phase 1), wait for the acknowledge to rise (phase 2), return the rail to
  zero (phase 3), wait for the acknowledge to fall (phase 4).
* A **consumer** observes the rails of a channel and drives an acknowledge
  net.  With an *active-low* acknowledge (the "nack" style used by the
  Cr/half-buffer output stage of Fig. 4) the idle level is high; the consumer
  pulls the net low to acknowledge valid data and releases it high once the
  channel has returned to zero.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .channels import ChannelNets, ChannelState
from .signals import Logic
from .simulator import Process, Simulator


class ProtocolError(Exception):
    """Raised when a handshake process observes a protocol violation."""


class ResetPulse(Process):
    """Drives a reset net high for ``duration`` seconds at the start of time."""

    def __init__(self, reset_net: str, duration: float = 100e-12, name: str = "reset"):
        self.reset_net = reset_net
        self.duration = duration
        self.name = name

    def sensitivity(self) -> Sequence[str]:
        return ()

    def start(self, sim: Simulator) -> None:
        sim.schedule_drive(self.reset_net, Logic.HIGH, 0.0, cause=self.name)
        sim.schedule_drive(self.reset_net, Logic.LOW, self.duration, cause=self.name)


class FourPhaseProducer(Process):
    """Sends a sequence of 1-of-N values on a channel using four phases.

    Parameters
    ----------
    channel:
        The channel nets to drive.
    ack_net:
        The acknowledge net observed by the producer (usually the completion
        signal generated by the block under test).
    values:
        The 1-of-N digits to transmit, in order.
    ack_active_high:
        Polarity of the acknowledge.  ``True`` (default) means a high level
        acknowledges the data.
    start_time:
        Time at which the first value is launched.
    env_delay:
        Reaction delay of the environment between observing an acknowledge
        edge and driving the next rail transition.
    """

    _WAIT_ASSERT = "wait-ack-assert"
    _WAIT_RELEASE = "wait-ack-release"
    _DONE = "done"

    def __init__(self, channel: ChannelNets, ack_net: str, values: Sequence[int], *,
                 ack_active_high: bool = True, start_time: float = 0.0,
                 env_delay: float = 20e-12, name: Optional[str] = None):
        self.channel = channel
        self.ack_net = ack_net
        self.values = list(values)
        self.ack_active_high = ack_active_high
        self.start_time = start_time
        self.env_delay = env_delay
        self.name = name if name is not None else f"producer[{channel.name}]"
        self._index = 0
        self._state = self._DONE if not self.values else self._WAIT_ASSERT
        self.sent: List[int] = []

    # internal helpers -----------------------------------------------------
    def _asserted(self, value: Logic) -> bool:
        return value is (Logic.HIGH if self.ack_active_high else Logic.LOW)

    def _released(self, value: Logic) -> bool:
        return value is (Logic.LOW if self.ack_active_high else Logic.HIGH)

    def _launch(self, sim: Simulator, time: float) -> None:
        value = self.values[self._index]
        rail = self.channel.rails[value]
        sim.schedule_drive(rail, Logic.HIGH, time, cause=self.name)
        self.sent.append(value)
        self._state = self._WAIT_ASSERT

    def _return_to_zero(self, sim: Simulator, time: float) -> None:
        value = self.values[self._index]
        rail = self.channel.rails[value]
        sim.schedule_drive(rail, Logic.LOW, time, cause=self.name)
        self._state = self._WAIT_RELEASE

    # Process interface ----------------------------------------------------
    def sensitivity(self) -> Sequence[str]:
        return (self.ack_net,)

    def start(self, sim: Simulator) -> None:
        if self.values:
            self._launch(sim, max(self.start_time, sim.time))

    def on_change(self, sim: Simulator, net: str, value: Logic, time: float) -> None:
        if net != self.ack_net or self._state == self._DONE:
            return
        if self._state == self._WAIT_ASSERT and self._asserted(value):
            self._return_to_zero(sim, time + self.env_delay)
        elif self._state == self._WAIT_RELEASE and self._released(value):
            self._index += 1
            if self._index >= len(self.values):
                self._state = self._DONE
            else:
                self._launch(sim, time + self.env_delay)

    @property
    def done(self) -> bool:
        return self._state == self._DONE

    @property
    def remaining(self) -> int:
        return len(self.values) - self._index


class FourPhaseConsumer(Process):
    """Acknowledges a channel and records the values it receives."""

    def __init__(self, channel: ChannelNets, ack_net: Optional[str] = None, *,
                 ack_active_high: bool = True, env_delay: float = 20e-12,
                 name: Optional[str] = None):
        self.channel = channel
        self.ack_net = ack_net if ack_net is not None else channel.ack
        self.ack_active_high = ack_active_high
        self.env_delay = env_delay
        self.name = name if name is not None else f"consumer[{channel.name}]"
        self.received: List[int] = []
        self._acknowledged = False

    def _idle_level(self) -> Logic:
        return Logic.LOW if self.ack_active_high else Logic.HIGH

    def _ack_level(self) -> Logic:
        return Logic.HIGH if self.ack_active_high else Logic.LOW

    def sensitivity(self) -> Sequence[str]:
        return tuple(self.channel.rails)

    def start(self, sim: Simulator) -> None:
        # Establish the idle level of the acknowledge (matters for the
        # active-low convention used by Cr output stages).
        if sim.value(self.ack_net) is not self._idle_level():
            sim.schedule_drive(self.ack_net, self._idle_level(), sim.time, cause=self.name)

    def on_change(self, sim: Simulator, net: str, value: Logic, time: float) -> None:
        rails = sim.values(self.channel.rails)
        state = self.channel.spec.state(rails)
        if state is ChannelState.ILLEGAL:
            raise ProtocolError(
                f"illegal codeword observed on channel {self.channel.name!r} at t={time:.3e}"
            )
        if state is ChannelState.VALID and not self._acknowledged:
            digit = self.channel.spec.decode(rails)
            assert digit is not None
            self.received.append(digit)
            sim.schedule_drive(self.ack_net, self._ack_level(), time + self.env_delay,
                               cause=self.name)
            self._acknowledged = True
        elif state is ChannelState.NULL and self._acknowledged:
            sim.schedule_drive(self.ack_net, self._idle_level(), time + self.env_delay,
                               cause=self.name)
            self._acknowledged = False


class ChannelMonitor(Process):
    """Passive observer that records every completed value on a channel.

    Unlike :class:`FourPhaseConsumer` it never drives the acknowledge; use it
    to spy on internal channels of a larger design.
    """

    def __init__(self, channel: ChannelNets, name: Optional[str] = None):
        self.channel = channel
        self.name = name if name is not None else f"monitor[{channel.name}]"
        self.observed: List[int] = []
        self._was_null = True

    def sensitivity(self) -> Sequence[str]:
        return tuple(self.channel.rails)

    def on_change(self, sim: Simulator, net: str, value: Logic, time: float) -> None:
        rails = sim.values(self.channel.rails)
        state = self.channel.spec.state(rails)
        if state is ChannelState.VALID and self._was_null:
            digit = self.channel.spec.decode(rails)
            assert digit is not None
            self.observed.append(digit)
            self._was_null = False
        elif state is ChannelState.NULL:
            self._was_null = True
