"""The paper's contribution: formal model, DPA formalisation, criterion, campaign.

* :mod:`repro.core.power_model` — equations (1)–(6): dynamic power and the
  block current profile derived from the annotated graph;
* :mod:`repro.core.signature`  — equations (10)–(12): the electrical
  signature of symmetric data paths and its capacitance decomposition;
* :mod:`repro.core.dpa`        — equations (7)–(9): the DPA attack on trace
  sets (partitioning, set averages, bias signal, key ranking);
* :mod:`repro.core.cpa`        — the attack suite beyond Section IV:
  correlation power analysis, second-order centered-product variants, and
  the attack-kernel protocol shared by every distinguisher;
* :mod:`repro.core.selection`  — the D functions (AES AddRoundKey, DES S-box);
* :mod:`repro.core.criterion`  — the channel dissymmetry criterion of
  Section VI and Table-2 style reports;
* :mod:`repro.core.flow`       — the attack campaign that measures a design;
* :mod:`repro.core.metrics`    — peaks, SNR, key-recovery curves, area
  overhead.
"""

from .criterion import (
    ChannelCriterion,
    CriterionError,
    CriterionReport,
    channel_dissymmetry,
    compare_reports,
    dissymmetry_vector,
    evaluate_capacitance_map,
    evaluate_netlist_channels,
    pack_cap_matrix,
)
from .cpa import (
    AttackKernel,
    CpaKernel,
    DpaKernel,
    SecondOrderKernel,
    as_leakage_model,
    centered_product_matrix,
    cpa_attack,
    pearson_statistics,
    run_attack,
    second_order_cpa_attack,
    second_order_dpa_attack,
)
from .dpa import (
    DPAError,
    DPAResult,
    GuessResult,
    PowerTrace,
    TraceSet,
    dpa_attack,
    dpa_bias,
    messages_to_disclosure,
    partition_by_values,
    partition_traces,
    selection_bits,
)
from .flow import (
    AssessmentRow,
    AttackCampaign,
    CampaignAssessment,
    CampaignAttack,
    CampaignDesign,
    CampaignResult,
    CampaignRow,
    CampaignSelection,
    standard_attack,
)
from .metrics import (
    AreaReport,
    KeyRecoveryCurve,
    KeyRecoveryPoint,
    Peak,
    area_overhead,
    find_peaks,
    peak_to_rms_ratio,
    signal_to_noise_ratio,
)
from .power_model import (
    FormalCurrentModel,
    GateCurrentTerm,
    HammingDistanceModel,
    HammingWeightModel,
    LeakageModel,
    PathCurrentModel,
    SelectionBitModel,
    block_dynamic_power,
    block_power_from_netlist,
    gate_dynamic_power,
    leakage_matrix,
    qdi_gate_dynamic_power,
    xor_current_decomposition,
)
from .selection import (
    AesAddRoundKeySelection,
    AesSboxSelection,
    DesSboxSelection,
    HammingWeightSelection,
    SelectionFunction,
    list_standard_selections,
    popcount_matrix,
    selection_matrix,
)
from .signature import (
    SignatureReport,
    SignatureTerm,
    compare_formal_and_simulated,
    formal_signature,
    set_average,
    signature_from_traces,
    signature_peak_count,
    signature_terms,
)

__all__ = [
    "AttackKernel",
    "CpaKernel",
    "DpaKernel",
    "SecondOrderKernel",
    "as_leakage_model",
    "centered_product_matrix",
    "cpa_attack",
    "pearson_statistics",
    "run_attack",
    "second_order_cpa_attack",
    "second_order_dpa_attack",
    "CampaignAttack",
    "standard_attack",
    "HammingDistanceModel",
    "HammingWeightModel",
    "LeakageModel",
    "SelectionBitModel",
    "leakage_matrix",
    "popcount_matrix",
    "ChannelCriterion",
    "CriterionError",
    "CriterionReport",
    "channel_dissymmetry",
    "compare_reports",
    "dissymmetry_vector",
    "pack_cap_matrix",
    "evaluate_capacitance_map",
    "evaluate_netlist_channels",
    "DPAError",
    "DPAResult",
    "GuessResult",
    "PowerTrace",
    "TraceSet",
    "dpa_attack",
    "dpa_bias",
    "messages_to_disclosure",
    "partition_by_values",
    "partition_traces",
    "selection_bits",
    "AssessmentRow",
    "AttackCampaign",
    "CampaignAssessment",
    "CampaignDesign",
    "CampaignResult",
    "CampaignRow",
    "CampaignSelection",
    "AreaReport",
    "KeyRecoveryCurve",
    "KeyRecoveryPoint",
    "Peak",
    "area_overhead",
    "find_peaks",
    "peak_to_rms_ratio",
    "signal_to_noise_ratio",
    "FormalCurrentModel",
    "GateCurrentTerm",
    "PathCurrentModel",
    "block_dynamic_power",
    "block_power_from_netlist",
    "gate_dynamic_power",
    "qdi_gate_dynamic_power",
    "xor_current_decomposition",
    "AesAddRoundKeySelection",
    "AesSboxSelection",
    "DesSboxSelection",
    "HammingWeightSelection",
    "SelectionFunction",
    "list_standard_selections",
    "selection_matrix",
    "SignatureReport",
    "SignatureTerm",
    "compare_formal_and_simulated",
    "formal_signature",
    "set_average",
    "signature_from_traces",
    "signature_peak_count",
    "signature_terms",
]
