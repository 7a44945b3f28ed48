"""Streaming leakage assessment: TVLA t-tests and SNR in bounded memory.

The certification-style rung of the evaluation ladder: before (or instead
of) mounting key-recovery attacks, an evaluator runs attack-independent
leakage detection — the TVLA fixed-vs-random Welch t-test and the per-sample
SNR — at trace counts that do not fit in RAM.  The subsystem therefore
separates *statistics* from *storage*:

* :mod:`repro.assess.accumulators` — one-pass, mergeable moment accumulators
  (Welford/Chan): per-sample, per-class, and hypothesis-cross moments;
* :mod:`repro.assess.tvla` — non-specific (fixed vs random) and specific
  (known-key intermediate) Welch t-tests with the ``|t| > 4.5`` criterion
  and max-|t|-vs-trace-count curves;
* :mod:`repro.assess.snr` — per-sample signal-to-noise ratio partitioned by
  intermediate value (raw or Hamming-weight classes);
* :mod:`repro.assess.streaming` — the existing DPA/CPA attacks re-expressed
  over the same chunk streams, so a streaming campaign reproduces the
  in-memory rows without ever materializing more than one chunk.

Chunks come from :meth:`repro.asyncaes.tracegen.AesPowerTraceGenerator.trace_chunks`
(or any iterable of :class:`~repro.core.dpa.TraceSet` blocks), and
:class:`repro.core.flow.AttackCampaign` drives everything through
``add_assessment(...)`` and ``run(streaming=True, chunk_size=...)``.
"""

from .accumulators import (
    AccumulatorError,
    ClassAccumulator,
    CoMomentAccumulator,
    MomentAccumulator,
    chan_merge,
)
from .snr import (
    SnrResult,
    StreamingSnr,
    class_count_for,
    intermediate_labels,
    snr_by_intermediate,
)
from ..core.dpa import DisclosureTracker
from .streaming import (
    StreamingCpaState,
    StreamingDomState,
    disclosure_boundaries,
    streaming_state,
)
from .tvla import (
    TVLA_THRESHOLD,
    StreamingTTest,
    TTestResult,
    specific_labels,
    ttest_fixed_vs_random,
    ttest_specific,
    welch_t,
)

__all__ = [
    "AccumulatorError",
    "ClassAccumulator",
    "CoMomentAccumulator",
    "MomentAccumulator",
    "chan_merge",
    "SnrResult",
    "StreamingSnr",
    "class_count_for",
    "intermediate_labels",
    "snr_by_intermediate",
    "DisclosureTracker",
    "StreamingCpaState",
    "StreamingDomState",
    "disclosure_boundaries",
    "streaming_state",
    "TVLA_THRESHOLD",
    "StreamingTTest",
    "TTestResult",
    "specific_labels",
    "ttest_fixed_vs_random",
    "ttest_specific",
    "welch_t",
]
