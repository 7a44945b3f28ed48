"""Gate-level QDI asynchronous circuit substrate.

This subpackage provides everything needed to describe, simulate and validate
the secured Quasi Delay Insensitive blocks the paper analyses: logic values
and transitions, the cell library (including Muller C-elements), structural
netlists, 1-of-N channels with the four-phase protocol, an event-driven
simulator whose gate delays depend on node capacitances, handshake
environment processes and the builders for the paper's dual-rail cells.
"""

from .builder import BlockBuilder, QDIBlock
from .engine import (
    BatchSimulationResult,
    CompiledNetlist,
    EngineError,
    compile_netlist,
    simulate_batch,
)
from .channels import (
    BusSpec,
    ChannelNets,
    ChannelSpec,
    ChannelState,
    EncodingError,
    dual_rail,
    one_of_n,
)
from .gates import CellLibrary, DEFAULT_LIBRARY, GateType, default_library
from .handshake import (
    ChannelMonitor,
    FourPhaseConsumer,
    FourPhaseProducer,
    ProtocolError,
    ResetPulse,
)
from .library import (
    DEFAULT_NET_CAP_FF,
    CompletionTree,
    XorBank,
    build_completion_tree,
    build_dual_rail_and2,
    build_dual_rail_or2,
    build_dual_rail_xor,
    build_half_buffer,
    build_xor_bank,
)
from .netlist import Instance, Net, Netlist, NetlistError, Pin, Port, PortDirection
from .signals import Logic, TraceRecord, Transition, TransitionKind
from .simulator import (
    DelayModel,
    Process,
    SimulationError,
    Simulator,
    settle_combinational,
)
from .validate import (
    BalanceError,
    ComputationResult,
    check_constant_transition_count,
    check_one_hot_discipline,
    check_structural_balance,
    count_valid_phases,
    simulate_two_operand_block,
    verify_netlist,
)

__all__ = [
    "BlockBuilder",
    "QDIBlock",
    "BatchSimulationResult",
    "CompiledNetlist",
    "EngineError",
    "compile_netlist",
    "simulate_batch",
    "BusSpec",
    "ChannelNets",
    "ChannelSpec",
    "ChannelState",
    "EncodingError",
    "dual_rail",
    "one_of_n",
    "CellLibrary",
    "DEFAULT_LIBRARY",
    "GateType",
    "default_library",
    "ChannelMonitor",
    "FourPhaseConsumer",
    "FourPhaseProducer",
    "ProtocolError",
    "ResetPulse",
    "DEFAULT_NET_CAP_FF",
    "CompletionTree",
    "XorBank",
    "build_completion_tree",
    "build_dual_rail_and2",
    "build_dual_rail_or2",
    "build_dual_rail_xor",
    "build_half_buffer",
    "build_xor_bank",
    "Instance",
    "Net",
    "Netlist",
    "NetlistError",
    "Pin",
    "Port",
    "PortDirection",
    "Logic",
    "TraceRecord",
    "Transition",
    "TransitionKind",
    "DelayModel",
    "Process",
    "SimulationError",
    "Simulator",
    "settle_combinational",
    "BalanceError",
    "ComputationResult",
    "check_constant_transition_count",
    "check_one_hot_discipline",
    "check_structural_balance",
    "count_valid_phases",
    "simulate_two_operand_block",
    "verify_netlist",
]
