"""Electrical substrate: technology, capacitances, waveforms, current synthesis.

This subpackage replaces the paper's Eldo + HCMOS9 analogue simulations with
an analytical transient model: every logic transition contributes a current
pulse whose charge and width are set by the node capacitance
``C = Cl + Cpar + Csc`` and the driver's output resistance.  The model keeps
exactly the quantities the paper's analysis depends on, so the electrical
signatures of Figs. 6 and 7 are reproduced in shape.
"""

from .capacitance import (
    apply_process_variation,
    CapacitanceBreakdown,
    apply_default_routing_caps,
    node_capacitance,
    switching_energy_fj,
    transition_time_s,
)
from .current_sim import (
    BlockCurrentResult,
    CurrentTrace,
    block_current,
    per_computation_currents,
    synthesize_current,
)
from .noise import (
    BackgroundActivityNoise,
    CompositeNoise,
    GaussianNoise,
    NoNoise,
    NoiseModel,
    apply_noise_matrix,
    apply_noise_trace,
    derive_rng,
)
from .technology import HCMOS9_LIKE, Technology, scaled_technology
from .waveform import (
    Waveform,
    WaveformError,
    align_waveforms,
    average_waveform,
    difference_waveform,
    exponential_pulse,
    stack_aligned,
    triangular_pulse,
)

__all__ = [
    "CapacitanceBreakdown",
    "apply_default_routing_caps",
    "apply_process_variation",
    "node_capacitance",
    "switching_energy_fj",
    "transition_time_s",
    "BlockCurrentResult",
    "CurrentTrace",
    "block_current",
    "per_computation_currents",
    "synthesize_current",
    "BackgroundActivityNoise",
    "CompositeNoise",
    "GaussianNoise",
    "NoNoise",
    "NoiseModel",
    "apply_noise_matrix",
    "apply_noise_trace",
    "derive_rng",
    "HCMOS9_LIKE",
    "Technology",
    "scaled_technology",
    "Waveform",
    "WaveformError",
    "align_waveforms",
    "average_waveform",
    "difference_waveform",
    "exponential_pulse",
    "stack_aligned",
    "triangular_pulse",
]
