"""Node-capacitance decomposition ``C = Cl + Cpar + Csc`` (Section III).

The paper decomposes the capacitance charged or discharged at a gate output
into the load capacitance ``Cl`` (fan-out gate capacitance plus routing
capacitance), the parasitic capacitance ``Cpar`` of the driving gate and an
equivalent short-circuit capacitance ``Csc`` lumping the crowbar current.
The DPA-relevant quantity is the *difference* of the ``Cl`` values of the two
rails of a channel, because ``Cpar`` and ``Csc`` are properties of identical
driving cells and cancel out between balanced paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..circuits.netlist import Netlist
from .technology import HCMOS9_LIKE, Technology


@dataclass(frozen=True)
class CapacitanceBreakdown:
    """Decomposition of the capacitance of one net (all values in fF)."""

    net: str
    routing_ff: float
    fanout_ff: float
    parasitic_ff: float
    short_circuit_ff: float

    @property
    def load_ff(self) -> float:
        """``Cl`` — routing plus fan-out gate capacitance."""
        return self.routing_ff + self.fanout_ff

    @property
    def total_ff(self) -> float:
        """``C = Cl + Cpar + Csc``."""
        return self.load_ff + self.parasitic_ff + self.short_circuit_ff

    @property
    def total_farad(self) -> float:
        return self.total_ff * 1e-15


def node_capacitance(netlist: Netlist, net_name: str) -> CapacitanceBreakdown:
    """Compute the capacitance breakdown of one net of a netlist."""
    net = netlist.net(net_name)
    driver = netlist.driver_cell(net_name)
    return CapacitanceBreakdown(
        net=net_name,
        routing_ff=net.routing_cap_ff,
        fanout_ff=netlist.pin_cap_ff(net_name),
        parasitic_ff=driver.parasitic_cap_ff if driver is not None else 0.0,
        short_circuit_ff=driver.short_circuit_cap_ff if driver is not None else 0.0,
    )


def switching_energy_fj(netlist: Netlist, net_name: str,
                        technology: Technology = HCMOS9_LIKE) -> float:
    """Energy (fJ) of one full charge/discharge of the net."""
    return node_capacitance(netlist, net_name).total_ff * technology.vdd ** 2


def transition_time_s(netlist: Netlist, net_name: str,
                      technology: Technology = HCMOS9_LIKE) -> float:
    """Charge/discharge time ``Δt`` of a net.

    ``Δt`` is the RC product of the driving cell's output resistance and the
    total node capacitance, scaled by the technology's ``transition_scale``.
    This is the ``Δt`` that appears in the denominator of equation (12): a
    larger capacitance both widens and delays the current pulse.
    """
    breakdown = node_capacitance(netlist, net_name)
    driver = netlist.driver_cell(net_name)
    resistance = driver.drive_ohm if driver is not None else 5000.0
    return technology.transition_scale * resistance * breakdown.total_farad


def apply_default_routing_caps(netlist: Netlist,
                               technology: Technology = HCMOS9_LIKE,
                               *, only_driven: bool = True) -> None:
    """Assign the technology's default routing capacitance to every net.

    This models the pre-layout state of the design, before extraction
    replaces the defaults with values derived from the actual routing.
    """
    for net in netlist.nets():
        if only_driven and net.driver is None:
            continue
        net.routing_cap_ff = technology.default_net_cap_ff
    netlist.touch_caps()


def apply_process_variation(netlist: Netlist, *, sigma_ff: float = 0.1,
                            seed: Optional[int] = None,
                            only_driven: bool = True) -> None:
    """Perturb every net's routing capacitance with Gaussian mismatch.

    Even with identical drawn layout, the two rails of a channel differ by the
    intra-die variation of their parasitics; this is the origin of the "few
    peaks due to internal gate capacitance" visible in Fig. 6 of the paper
    when all load capacitances are nominally equal.  The perturbation is
    clipped so capacitances stay non-negative.
    """
    import numpy as np

    if sigma_ff < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma_ff}")
    rng = np.random.default_rng(seed)
    for net in netlist.nets():
        if only_driven and net.driver is None:
            continue
        perturbed = net.routing_cap_ff + float(rng.normal(0.0, sigma_ff))
        net.routing_cap_ff = max(0.0, perturbed)
    netlist.touch_caps()
