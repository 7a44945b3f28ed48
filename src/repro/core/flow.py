"""The secure design flow of Section VI.

The paper derives, from the formal analysis, "a complete design flow ...
to minimize the information leakage":

1. design the logic with balanced 1-of-N encoded data paths (checked with the
   graph symmetry analysis of Section III);
2. place and route **hierarchically**, constraining the cells of every block
   into a fence of the floorplan;
3. extract the net capacitances and evaluate the dissymmetry criterion of
   every channel;
4. iterate (tighter fences, different seed) until every channel satisfies the
   required bound.

Steps 2–4 run through the hardening pass manager
(:mod:`repro.harden.pipeline`); this module holds the attack campaign that
measures the outcome.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuits.netlist import Netlist
from ..obs.telemetry import current, use
from ..crypto.keys import PlaintextGenerator
from ..electrical.noise import NoiseModel, apply_noise_matrix, apply_noise_trace
from ..electrical.technology import HCMOS9_LIKE, Technology
from ..store import CampaignFrame, grid_fingerprint, single_row
from ..store.grid import GridLayout, GridRun, run_grid
from .cpa import (
    AttackKernel,
    CpaKernel,
    DpaKernel,
    SecondOrderKernel,
    run_attack,
)
from .dpa import (DPAError, DPAResult, DisclosureTracker, TraceSet,
                  messages_to_disclosure)
from .power_model import (
    HammingDistanceModel,
    HammingWeightModel,
    SelectionBitModel,
)
from .selection import SelectionFunction

logger = logging.getLogger(__name__)


# ----------------------------------------------------------- attack campaign
#: A callable producing a :class:`TraceSet` for a list of plaintexts under an
#: optional noise model — the generic design entry of :class:`AttackCampaign`
#: (anything that can be traced, not only placed AES netlists).
TraceSource = Callable[[Sequence[Sequence[int]], Optional[NoiseModel]], TraceSet]


@dataclass
class CampaignDesign:
    """One device under attack: a placed netlist or a custom trace source.

    ``source`` selects how a netlist design is traced — ``"analytic"`` for
    the charge-model :class:`AesPowerTraceGenerator`, ``"simulator"`` for the
    event-engine :class:`~repro.asyncaes.simtrace.AesSimulatorTraceGenerator`
    (transfer-schedule replay through committed simulator transitions).
    Custom ``trace_source`` designs ignore it.
    """

    label: str
    netlist: Optional[Netlist] = None
    trace_source: Optional[TraceSource] = None
    source: str = "analytic"


@dataclass
class CampaignSelection:
    """One D function to attack with, and (optionally) the true sub-key."""

    selection: SelectionFunction
    correct_guess: Optional[int] = None


# Kernel builders are small frozen dataclasses (not closures) so a campaign
# configured with standard attacks stays picklable across shard boundaries.
def _leakage_model_for(model: str, selection: SelectionFunction,
                       reference: Optional[int]):
    if model == "bit":
        return SelectionBitModel(selection)
    if model == "hw":
        return HammingWeightModel(selection)
    if model == "hd":
        return HammingDistanceModel(selection, reference)
    raise ValueError(f"unknown CPA leakage model {model!r}; "
                     "expected 'bit', 'hw' or 'hd'")


@dataclass(frozen=True)
class _DpaBuilder:
    def __call__(self, selection: SelectionFunction) -> AttackKernel:
        return DpaKernel(selection)


@dataclass(frozen=True)
class _CpaBuilder:
    model: str = "bit"
    reference: Optional[int] = 0

    def __call__(self, selection: SelectionFunction) -> AttackKernel:
        return CpaKernel(_leakage_model_for(self.model, selection,
                                            self.reference))


@dataclass(frozen=True)
class _SecondOrderBuilder:
    inner: Callable[[SelectionFunction], AttackKernel]
    pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    window: Optional[int] = None
    region: Optional[Tuple[int, ...]] = None

    def __call__(self, selection: SelectionFunction) -> AttackKernel:
        return SecondOrderKernel(self.inner(selection), pairs=self.pairs,
                                 window=self.window, region=self.region)


@dataclass
class CampaignAttack:
    """One attack family of the grid: a label plus a selection → kernel map."""

    label: str
    build: Callable[[SelectionFunction], AttackKernel]


#: The TVLA detection threshold (|t| > 4.5, see :mod:`repro.assess.tvla`).
_TVLA_THRESHOLD = 4.5

#: Offset applied to the campaign seed to derive the independent plaintext
#: stream of the fixed-vs-random (TVLA) acquisition.
_TVLA_SEED_OFFSET = 0x7F4A


@dataclass
class CampaignAssessment:
    """One leakage-assessment family of the grid (attack-independent).

    ``kind`` is ``"tvla"`` (non-specific fixed-vs-random Welch t-test),
    ``"tvla-specific"`` (t-test partitioned by a known-key intermediate bit)
    or ``"snr"`` (per-sample SNR partitioned by the intermediate value);
    the specific kinds carry the selection function naming the intermediate
    and the true key value it is evaluated at.
    """

    label: str
    kind: str
    selection: Optional[SelectionFunction] = None
    key_value: Optional[int] = None
    threshold: float = _TVLA_THRESHOLD
    classes: str = "value"
    fixed_plaintext: Optional[Tuple[int, ...]] = None


@dataclass
class AssessmentRow:
    """Outcome of one (design × assessment × noise) scenario."""

    design: str
    assessment: str
    noise: str
    trace_count: int
    statistic: str
    peak: float
    threshold: Optional[float] = None
    flagged: Optional[bool] = None
    n0: Optional[int] = None
    n1: Optional[int] = None
    result: Optional[object] = None

    @property
    def leaks(self) -> Optional[bool]:
        return self.flagged


@dataclass
class _OffsetNoise(NoiseModel):
    """Shift a noise model's stream indices by a fixed offset.

    Handed to custom trace sources by the chunked campaign paths so that the
    noise of chunk row ``i`` is the global-stream draw ``offset + i`` — the
    property that makes streaming runs sample-identical to in-memory ones.
    """

    inner: NoiseModel
    offset: int

    def __post_init__(self) -> None:
        self._counter = 0

    def apply(self, waveform) -> "object":
        index = self.offset + self._counter
        self._counter += 1
        return apply_noise_trace(self.inner, waveform, index)

    def apply_matrix(self, matrix, dt: float = 1.0, t0: float = 0.0,
                     start_index: int = 0):
        return apply_noise_matrix(self.inner, matrix, dt, t0,
                                  self.offset + start_index)


#: Sentinel distinguishing "option not passed" from meaningful values (e.g.
#: ``reference=None`` selects the plaintext-byte Hamming-distance reference).
_UNSET = object()


def standard_attack(kind: str = "dpa", *, label: Optional[str] = None,
                    model=_UNSET, reference=_UNSET, pairs=_UNSET,
                    window=_UNSET, region=_UNSET) -> CampaignAttack:
    """The attack families the campaign provides out of the box.

    ``kind`` is ``"dpa"`` (difference of means, Section IV), ``"cpa"``
    (Pearson correlation against the ``model`` leakage: ``"bit"``, ``"hw"``
    or ``"hd"`` with ``reference``), or their centered-product second-order
    forms ``"dpa2"`` / ``"cpa2"`` (restrict the combined samples with
    ``pairs``/``window``/``region``).  Options that do not apply to the
    chosen kind are rejected rather than silently dropped.
    """
    def reject_unused(**named) -> None:
        for name, value in named.items():
            if value is not _UNSET:
                raise ValueError(
                    f"option {name!r} does not apply to attack kind {kind!r}")

    model_value = "bit" if model is _UNSET else model
    reference_value = 0 if reference is _UNSET else reference
    frozen_pairs = (tuple((int(j), int(k)) for j, k in pairs)
                    if pairs not in (_UNSET, None) else None)
    frozen_window = window if window is not _UNSET else None
    frozen_region = (tuple(int(c) for c in region)
                     if region not in (_UNSET, None) else None)
    if kind == "dpa":
        reject_unused(model=model, reference=reference, pairs=pairs,
                      window=window, region=region)
        return CampaignAttack(label or "dpa", _DpaBuilder())
    if kind == "cpa":
        reject_unused(pairs=pairs, window=window, region=region)
        return CampaignAttack(label or f"cpa-{model_value}",
                              _CpaBuilder(model_value, reference_value))
    if kind in ("dpa2", "cpa2"):
        if kind == "dpa2":
            reject_unused(model=model, reference=reference)
            inner = _DpaBuilder()
            default = "dpa2"
        else:
            inner = _CpaBuilder(model_value, reference_value)
            default = f"cpa2-{model_value}"
        return CampaignAttack(label or default,
                              _SecondOrderBuilder(inner, frozen_pairs,
                                                  frozen_window,
                                                  frozen_region))
    raise ValueError(f"unknown attack kind {kind!r}; "
                     "expected 'dpa', 'cpa', 'dpa2' or 'cpa2'")


@dataclass
class CampaignRow:
    """Outcome of one (design × attack × selection × noise) scenario."""

    design: str
    selection: str
    attack: str
    noise: str
    trace_count: int
    best_guess: int
    best_peak: float
    correct_guess: Optional[int] = None
    rank_of_correct: Optional[int] = None
    discrimination: Optional[float] = None
    disclosure: Optional[int] = None
    result: Optional[DPAResult] = None

    @property
    def disclosed(self) -> bool:
        return self.rank_of_correct == 1


def _format_metric(value: Optional[float], spec: str = ".2f") -> str:
    """One table cell for a possibly-absent metric.

    The scenario grid produces every degenerate float the attacks can:
    ``None`` (metric does not apply), ``inf`` (runner-up peak exactly zero),
    ``-inf`` (inverted discrimination) and ``NaN`` (0/0 peaks).  All of them
    must render as a short token rather than slip through a numeric format —
    a NaN passing a ``not in (None, inf)`` identity guard is how the old
    formatter printed garbage columns.
    """
    if value is None:
        return "-"
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, spec)


@dataclass
class CampaignResult:
    """All scenario rows of one campaign run, plus the comparison table.

    Row lookup goes through the columnar query layer of :mod:`repro.store`:
    :meth:`row`/:meth:`assessment_row` accept a partial key but insist it be
    *unique* — several matches raise
    :class:`~repro.store.query.AmbiguousQueryError` naming the candidates
    (the old first-match behaviour silently picked whichever scenario ran
    first).  :meth:`frame`/:meth:`assessment_frame` expose the full frames
    for filtering, aggregation and persistence.
    """

    rows: List[CampaignRow] = field(default_factory=list)
    assessments: List[AssessmentRow] = field(default_factory=list)

    def frame(self):
        """The rows as a columnar :class:`~repro.store.frame.CampaignFrame`
        (rebuilt when the row list grows; ``result`` payloads not included)."""
        cached = getattr(self, "_frame_cache", None)
        if cached is None or cached[0] != len(self.rows):
            cached = (len(self.rows),
                      CampaignFrame.from_rows(self.rows, kind="campaign"))
            self._frame_cache = cached
        return cached[1]

    def assessment_frame(self):
        """The assessment rows as a columnar frame (see :meth:`frame`)."""
        cached = getattr(self, "_assessment_frame_cache", None)
        if cached is None or cached[0] != len(self.assessments):
            cached = (len(self.assessments),
                      CampaignFrame.from_rows(self.assessments,
                                              kind="assessment"))
            self._assessment_frame_cache = cached
        return cached[1]

    def assessment_row(self, design: str, *,
                       assessment: Optional[str] = None,
                       noise: Optional[str] = None) -> AssessmentRow:
        """The unique assessment row matching the (partial) key.

        Raises ``KeyError`` when nothing matches and
        :class:`~repro.store.query.AmbiguousQueryError` when the key matches
        several rows (the message lists them).
        """
        criteria = {"design": design}
        if assessment is not None:
            criteria["assessment"] = assessment
        if noise is not None:
            criteria["noise"] = noise
        index = single_row(self.assessment_frame(),
                           ("design", "assessment", "noise"), **criteria)
        return self.assessments[index]

    def assessment_table(self) -> str:
        """One leakage-assessment table over every scenario of the campaign."""
        header = (f"{'design':<28s} {'assessment':<34s} {'noise':<12s} "
                  f"{'traces':>7s} {'statistic':>10s} {'peak':>10s} "
                  f"{'thresh':>7s} {'verdict':>8s}")
        lines = [header, "-" * len(header)]
        for row in self.assessments:
            peak_text = _format_metric(row.peak, ".3e")
            threshold_text = _format_metric(row.threshold)
            if row.flagged is None:
                verdict = "-"
            else:
                verdict = "LEAKS" if row.flagged else "clear"
            lines.append(
                f"{row.design:<28s} {row.assessment:<34s} {row.noise:<12s} "
                f"{row.trace_count:>7d} {row.statistic:>10s} "
                f"{peak_text:>10s} {threshold_text:>7s} {verdict:>8s}"
            )
        return "\n".join(lines)

    def row(self, design: str, *, selection: Optional[str] = None,
            attack: Optional[str] = None,
            noise: Optional[str] = None) -> CampaignRow:
        """The unique campaign row matching the (partial) key.

        Raises ``KeyError`` when nothing matches and
        :class:`~repro.store.query.AmbiguousQueryError` when the key matches
        several rows — e.g. ``row("aes", noise="none")`` on a grid with two
        attacks; the old behaviour returned whichever ran first, which made
        partial-key analyses silently wrong.
        """
        criteria = {"design": design}
        if selection is not None:
            criteria["selection"] = selection
        if attack is not None:
            criteria["attack"] = attack
        if noise is not None:
            criteria["noise"] = noise
        index = single_row(self.frame(),
                           ("design", "selection", "attack", "noise"),
                           **criteria)
        return self.rows[index]

    def table(self) -> str:
        """One comparison table over every scenario of the campaign."""
        header = (f"{'design':<28s} {'selection':<30s} {'attack':<10s} "
                  f"{'noise':<12s} "
                  f"{'traces':>7s} {'peak':>10s} {'best':>6s} {'true':>6s} "
                  f"{'rank':>5s} {'discr':>7s} {'MTD':>6s}")
        lines = [header, "-" * len(header)]
        for row in self.rows:
            true_text = f"{row.correct_guess:#04x}" if row.correct_guess is not None else "-"
            rank_text = str(row.rank_of_correct) if row.rank_of_correct is not None else "-"
            peak_text = _format_metric(row.best_peak, ".3e")
            discr_text = _format_metric(row.discrimination)
            mtd_text = str(row.disclosure) if row.disclosure is not None else "-"
            lines.append(
                f"{row.design:<28s} {row.selection:<30s} {row.attack:<10s} "
                f"{row.noise:<12s} "
                f"{row.trace_count:>7d} {peak_text:>10s} {row.best_guess:>#6x} "
                f"{true_text:>6s} {rank_text:>5s} {discr_text:>7s} {mtd_text:>6s}"
            )
        return "\n".join(lines)


class AttackCampaign:
    """Orchestrates batched DPA attacks over designs × selections × noise.

    The campaign is the single entry point of the end-to-end evaluation: it
    generates each design's traces once per noise level through the batched
    trace engine (:meth:`AesPowerTraceGenerator.trace_batch`), runs the
    vectorized multi-guess attack of :func:`repro.core.dpa.dpa_attack` for
    every selection function, computes messages-to-disclosure incrementally,
    and emits one comparison table — the Table-2-style flat-vs-hierarchical
    statement, extended to arbitrary scenario grids.

    The **trace source** is a grid dimension of its own: every netlist design
    registers with ``add_design(..., source="analytic")`` (the charge-model
    scatter) or ``source="simulator"`` (transfer-schedule replay through the
    event engine, traces synthesized from committed transitions — see
    :mod:`repro.asyncaes.simtrace`), so the same placed netlist can be
    evaluated under both generation models side by side in one table.

    The **countermeasure layer** is a dimension too:
    :meth:`add_hardening` runs the criterion-driven repair pipeline of
    :mod:`repro.harden` on a netlist and registers the hardened design, so
    the campaign table directly shows what the paper's measure→improve loop
    buys — flat vs hierarchical vs hardened MTD/TVLA rows in one grid.

    Parameters
    ----------
    key:
        The device key (needed for netlist designs; optional for custom trace
        sources).  When a selection exposes ``byte_index``, the true sub-key
        byte is derived from it automatically.
    architecture, technology, generator_config:
        Forwarded to the AES trace generator for netlist designs.
    guesses:
        Optional common guess subset (default: each selection's full space).
    mtd_start, mtd_step, stable_runs:
        Parameters of the messages-to-disclosure sweep.
    """

    #: One (noise × design) scenario's result tables, in the order
    #: :meth:`_run_scenario` returns its row lists.
    _grid_layout = GridLayout("campaign", {"rows": "campaign",
                                           "assessments": "assessment"})

    def __init__(self, key: Optional[Sequence[int]] = None, *,
                 architecture=None,
                 technology: Technology = HCMOS9_LIKE,
                 generator_config=None,
                 guesses: Optional[Sequence[int]] = None,
                 mtd_start: int = 16, mtd_step: int = 16,
                 stable_runs: int = 1):
        self.key = list(key) if key is not None else None
        self.architecture = architecture
        self.technology = technology
        self.generator_config = generator_config
        self.guesses = list(guesses) if guesses is not None else None
        self.mtd_start = mtd_start
        self.mtd_step = mtd_step
        self.stable_runs = stable_runs
        self._designs: List[CampaignDesign] = []
        self._selections: List[CampaignSelection] = []
        self._attacks: List[CampaignAttack] = []
        self._assessments: List[CampaignAssessment] = []
        self._noises: List[tuple] = []
        self._hardenings: Dict[str, object] = {}

    # ------------------------------------------------------------- scenario
    def add_design(self, label: str, netlist: Optional[Netlist] = None, *,
                   trace_source: Optional[TraceSource] = None,
                   source: str = "analytic") -> "AttackCampaign":
        """Register one device under attack.

        ``source`` is the trace-source dimension of the grid for netlist
        designs: ``"analytic"`` (default) scatters the charge model straight
        from the transfer schedule; ``"simulator"`` replays the schedule as
        rail events through the event simulator and synthesizes the trace
        from committed transitions, so the same netlist can be attacked under
        both generation models in one campaign (add it twice with different
        labels and sources).  Custom ``trace_source`` callables bypass the
        dimension entirely.
        """
        if (netlist is None) == (trace_source is None):
            raise ValueError("a design needs exactly one of netlist / trace_source")
        if netlist is not None and self.key is None:
            raise ValueError("netlist designs need the campaign key to trace")
        if source not in ("analytic", "simulator"):
            raise ValueError(f"unknown trace source {source!r}; "
                             "expected 'analytic' or 'simulator'")
        if trace_source is not None and source != "analytic":
            raise ValueError("source only applies to netlist designs; "
                             "custom trace_source callables are already "
                             "their own source")
        self._designs.append(CampaignDesign(label, netlist, trace_source,
                                            source))
        return self

    def add_hardening(self, label: str, netlist: Netlist, *,
                      base: str = "hierarchical", bound: float = 0.15,
                      seed: int = 0, pipeline=None,
                      source="analytic",
                      **pipeline_options) -> "AttackCampaign":
        """Run the hardening pass pipeline on a netlist and register the
        hardened design as a grid entry — the countermeasure dimension.

        The pipeline (default: the ``base`` flow of
        :func:`repro.harden.pipeline.hardening_pipeline` followed by the
        fence-resize → reposition → dummy-load repair loop, ``bound`` as the
        ``repair-until`` criterion) runs immediately and **in place**: the
        registered design *is* the hardened netlist, traced by the same
        engines as any other design, so one campaign table shows flat vs
        hierarchical vs hardened side by side across attacks, noise levels,
        assessments and trace sources.

        ``source`` is either one trace source (``"analytic"`` /
        ``"simulator"``) or a sequence of them — with several, each source
        becomes its own design row labelled ``label[source]``.  The
        :class:`~repro.harden.pipeline.HardeningResult` provenance is kept
        and returned by :meth:`hardening_result`; extra keyword options are
        forwarded to :func:`~repro.harden.pipeline.hardening_pipeline`.
        """
        # Imported lazily: repro.harden builds on repro.core.criterion.
        from ..harden.pipeline import hardening_pipeline

        if self.key is None:
            raise ValueError("hardened designs need the campaign key to trace")
        if label in self._hardenings:
            raise ValueError(f"duplicate hardening label {label!r}")
        # Validate the whole source list before the (expensive, in-place)
        # pipeline runs, so a typo cannot leave the campaign half-registered
        # with an already-mutated netlist.
        sources = [source] if isinstance(source, str) else list(source)
        if not sources:
            raise ValueError("need at least one trace source")
        for entry in sources:
            if entry not in ("analytic", "simulator"):
                raise ValueError(f"unknown trace source {entry!r}; "
                                 "expected 'analytic' or 'simulator'")
        if pipeline is None:
            pipeline = hardening_pipeline(base, bound=bound,
                                          **pipeline_options)
        elif pipeline_options:
            raise ValueError("pass pipeline options either as an explicit "
                             "pipeline or as keyword options, not both")
        result = pipeline.run(netlist, seed=seed, technology=self.technology,
                              design_name=label)
        self._hardenings[label] = result
        for entry in sources:
            design_label = label if len(sources) == 1 else f"{label}[{entry}]"
            self.add_design(design_label, netlist, source=entry)
        return self

    def hardening_result(self, label: str):
        """The :class:`~repro.harden.pipeline.HardeningResult` of a design."""
        try:
            return self._hardenings[label]
        except KeyError:
            raise KeyError(f"no hardening registered under {label!r}; "
                           f"known: {sorted(self._hardenings)}") from None

    def add_selection(self, selection: SelectionFunction, *,
                      correct_guess: Optional[int] = None) -> "AttackCampaign":
        if correct_guess is None and self.key is not None:
            byte_index = getattr(selection, "byte_index", None)
            if byte_index is not None:
                correct_guess = self.key[byte_index]
        self._selections.append(CampaignSelection(selection, correct_guess))
        return self

    def add_attack(self, attack="dpa", *, label: Optional[str] = None,
                   **options) -> "AttackCampaign":
        """Register an attack family of the grid.

        ``attack`` is a :class:`CampaignAttack`, a standard kind string
        (``"dpa"``, ``"cpa"``, ``"dpa2"``, ``"cpa2"`` — forwarded to
        :func:`standard_attack` with ``options``), or any callable mapping a
        selection function to an attack kernel (``label`` required).  When no
        attack is registered the campaign defaults to plain DPA, so existing
        single-attack campaigns keep their behaviour.
        """
        if isinstance(attack, CampaignAttack):
            self._attacks.append(attack)
        elif isinstance(attack, str):
            self._attacks.append(standard_attack(attack, label=label, **options))
        elif callable(attack):
            if label is None:
                raise ValueError("custom attack builders need an explicit label")
            self._attacks.append(CampaignAttack(label, attack))
        else:
            raise TypeError(f"cannot register {attack!r} as a campaign attack")
        return self

    def add_assessment(self, kind: str = "tvla", *,
                       label: Optional[str] = None,
                       selection: Optional[SelectionFunction] = None,
                       key_value: Optional[int] = None,
                       threshold: float = _TVLA_THRESHOLD,
                       classes: str = "value",
                       fixed_plaintext: Optional[Sequence[int]] = None
                       ) -> "AttackCampaign":
        """Register a leakage-assessment family of the grid.

        ``kind`` is ``"tvla"`` (non-specific fixed-vs-random t-test over its
        own interleaved acquisition), ``"tvla-specific"`` (t-test over the
        attack traces, partitioned by ``selection``'s D bit at the true key)
        or ``"snr"`` (per-sample SNR partitioned by ``selection``'s
        intermediate — raw ``classes="value"`` or Hamming-weight
        ``classes="hw"``).  The specific kinds derive the true sub-key from
        the campaign key via the selection's ``byte_index`` unless
        ``key_value`` is given; ``fixed_plaintext`` pins the non-specific
        fixed class (default: one reproducible draw from the run seed).
        """
        if kind == "tvla":
            if selection is not None or key_value is not None:
                raise ValueError(
                    "the non-specific 'tvla' assessment takes no selection; "
                    "use kind='tvla-specific' to partition by an intermediate"
                )
            self._assessments.append(CampaignAssessment(
                label or "tvla", kind, threshold=threshold,
                fixed_plaintext=(tuple(int(b) for b in fixed_plaintext)
                                 if fixed_plaintext is not None else None),
            ))
            return self
        if kind not in ("tvla-specific", "snr"):
            raise ValueError(f"unknown assessment kind {kind!r}; expected "
                             "'tvla', 'tvla-specific' or 'snr'")
        if fixed_plaintext is not None:
            raise ValueError(f"fixed_plaintext does not apply to {kind!r}")
        if selection is None:
            raise ValueError(f"assessment kind {kind!r} needs a selection "
                             "function naming the intermediate")
        if key_value is None and self.key is not None:
            byte_index = getattr(selection, "byte_index", None)
            if byte_index is not None:
                key_value = self.key[byte_index]
        if key_value is None:
            raise ValueError(
                f"assessment kind {kind!r} needs the true key value of the "
                "intermediate (pass key_value, or give the campaign a key "
                "and a selection exposing byte_index)"
            )
        if kind == "snr":
            default = f"snr[{selection.name},{classes}]"
        else:
            default = f"tvla-specific[{selection.name}]"
        self._assessments.append(CampaignAssessment(
            label or default, kind, selection=selection, key_value=key_value,
            threshold=threshold, classes=classes,
        ))
        return self

    def add_noise(self, label: str = "noiseless",
                  factory: Optional[Callable[[], NoiseModel]] = None
                  ) -> "AttackCampaign":
        """Register a noise level; ``factory`` builds a fresh model per design
        so every scenario draws from its own reproducible stream."""
        self._noises.append((label, factory))
        return self

    # ------------------------------------------------------------------ run
    def _traces_for(self, design: CampaignDesign,
                    noise: Optional[NoiseModel],
                    plaintexts: Sequence[Sequence[int]],
                    noise_start: int = 0) -> TraceSet:
        if design.trace_source is not None:
            if noise is not None and noise_start:
                noise = _OffsetNoise(noise, noise_start)
            return design.trace_source(plaintexts, noise)
        generator = self._generator_for(design, noise)
        return generator.trace_batch(plaintexts, noise_start_index=noise_start)

    def _generator_for(self, design: CampaignDesign,
                       noise: Optional[NoiseModel]):
        """Build the trace generator a netlist design's ``source`` selects."""
        # Imported lazily: repro.asyncaes itself builds on repro.core.
        if design.source == "simulator":
            from ..asyncaes.simtrace import AesSimulatorTraceGenerator

            return AesSimulatorTraceGenerator(
                design.netlist, self.key,
                architecture=self.architecture, technology=self.technology,
                noise=noise, config=self.generator_config,
            )
        from ..asyncaes.tracegen import AesPowerTraceGenerator

        return AesPowerTraceGenerator(
            design.netlist, self.key,
            architecture=self.architecture, technology=self.technology,
            noise=noise, config=self.generator_config,
        )

    def _trace_chunks_for(self, design: CampaignDesign,
                          noise: Optional[NoiseModel],
                          plaintexts: Sequence[Sequence[int]],
                          chunk_size: int, noise_start: int = 0):
        """Bounded-memory chunk stream of one scenario's traces.

        Netlist designs stream through the generator's chunked engine;
        custom trace sources are called once per plaintext block with an
        offset-pinned noise model, so both paths produce exactly the rows of
        the corresponding in-memory :meth:`_traces_for` call.
        """
        if design.trace_source is not None:
            for start in range(0, len(plaintexts), chunk_size):
                block = plaintexts[start:start + chunk_size]
                chunk_noise = (_OffsetNoise(noise, noise_start + start)
                               if noise is not None else None)
                yield design.trace_source(block, chunk_noise)
            return
        generator = self._generator_for(design, noise)
        yield from generator.trace_chunks(plaintexts, chunk_size,
                                          noise_start_index=noise_start)

    # ------------------------------------------------- assessment machinery
    def _value_assessment_states(self, assessments):
        """States of the assessments that ride on the all-random attack pass."""
        from ..assess.snr import StreamingSnr, class_count_for
        from ..assess.tvla import StreamingTTest

        states = []
        for assessment in assessments:
            if assessment.kind == "tvla-specific":
                states.append((assessment, StreamingTTest(
                    threshold=assessment.threshold,
                    partition=f"specific[{assessment.selection.name}]",
                )))
            elif assessment.kind == "snr":
                states.append((assessment, StreamingSnr(
                    class_count_for(assessment.selection, assessment.classes),
                    partition=assessment.label,
                )))
        return states

    @staticmethod
    def _update_value_assessment(assessment, state, matrix, plaintexts):
        from ..assess.snr import intermediate_labels
        from ..assess.tvla import specific_labels

        if assessment.kind == "tvla-specific":
            labels = specific_labels(assessment.selection, plaintexts,
                                     assessment.key_value)
        else:
            labels = intermediate_labels(assessment.selection, plaintexts,
                                         assessment.key_value,
                                         classes=assessment.classes)
        state.update(matrix, labels)

    @staticmethod
    def _assessment_row(design_label, noise_label, assessment, state
                        ) -> AssessmentRow:
        result = state.result()
        if assessment.kind == "snr":
            return AssessmentRow(
                design=design_label, assessment=assessment.label,
                noise=noise_label, trace_count=result.trace_count,
                statistic="max SNR", peak=result.max_snr,
                threshold=None, flagged=None, result=result,
            )
        return AssessmentRow(
            design=design_label, assessment=assessment.label,
            noise=noise_label, trace_count=result.trace_count,
            statistic="max|t|", peak=result.max_abs_t,
            threshold=result.threshold, flagged=result.leaks,
            n0=result.n0, n1=result.n1, result=result,
        )

    def _run_scenario(self, scenario: Tuple[str, Optional[Callable], CampaignDesign],
                      plaintexts: Sequence[Sequence[int]], *,
                      attacks: Sequence[CampaignAttack],
                      assessments: Sequence[CampaignAssessment],
                      tvla_schedule: Optional[tuple],
                      compute_disclosure: bool,
                      keep_results: bool,
                      streaming: bool,
                      chunk_size: Optional[int]
                      ) -> Tuple[List[CampaignRow], List[AssessmentRow]]:
        """One shard: generate a (noise × design) trace set, run every attack
        and assessment.

        The traces are generated once and shared by every (selection ×
        attack × assessment) entry of the shard — the trace set caches its
        sample matrix, so each additional attack costs one hypothesis matrix
        and one matmul.  Non-specific TVLA assessments add one further
        fixed-vs-random acquisition per scenario (their schedule is
        incompatible with the all-random attack traces by construction).
        """
        if streaming:
            telemetry = current()
            with telemetry.span("campaign.scenario", noise=scenario[0],
                                design=scenario[2].label, streaming=True):
                result = self._run_scenario_streaming(
                    scenario, plaintexts, attacks=attacks,
                    assessments=assessments, tvla_schedule=tvla_schedule,
                    compute_disclosure=compute_disclosure,
                    keep_results=keep_results, chunk_size=chunk_size,
                )
                telemetry.record_rss()
                return result
        noise_label, noise_factory, design = scenario
        noise = noise_factory() if noise_factory is not None else None
        value_assessments = [a for a in assessments
                             if a.kind in ("tvla-specific", "snr")]
        fr_assessments = [a for a in assessments if a.kind == "tvla"]
        rows: List[CampaignRow] = []
        assessment_rows: List[AssessmentRow] = []
        telemetry = current()

        with telemetry.span("campaign.scenario", noise=noise_label,
                            design=design.label):
            if self._selections or value_assessments:
                with telemetry.span("campaign.generate"):
                    traces = self._traces_for(design, noise, plaintexts)
                    telemetry.count("traces", len(traces))
                for entry in self._selections:
                    for attack_spec in attacks:
                        with telemetry.span(
                                "campaign.attack",
                                selection=entry.selection.name,
                                attack=attack_spec.label):
                            telemetry.count("attacks")
                            kernel = attack_spec.build(entry.selection)
                            attack = run_attack(traces, kernel,
                                                guesses=self.guesses)
                            row = CampaignRow(
                                design=design.label,
                                selection=entry.selection.name,
                                attack=attack_spec.label,
                                noise=noise_label,
                                trace_count=len(traces),
                                best_guess=attack.best_guess,
                                best_peak=attack.best_peak,
                                correct_guess=entry.correct_guess,
                            )
                            if entry.correct_guess is not None:
                                row.rank_of_correct = attack.rank_of(
                                    entry.correct_guess)
                                row.discrimination = \
                                    attack.discrimination_ratio(
                                        entry.correct_guess)
                                if compute_disclosure:
                                    row.disclosure = messages_to_disclosure(
                                        traces, kernel, entry.correct_guess,
                                        guesses=self.guesses,
                                        start=self.mtd_start,
                                        step=self.mtd_step,
                                        stable_runs=self.stable_runs,
                                    )
                            if keep_results:
                                row.result = attack
                            rows.append(row)
                if value_assessments:
                    with telemetry.span("campaign.assess", kind="value",
                                        assessments=len(value_assessments)):
                        matrix = traces.matrix()
                        trace_plaintexts = traces.plaintexts()
                        for assessment, state in self._value_assessment_states(
                                value_assessments):
                            self._update_value_assessment(
                                assessment, state, matrix, trace_plaintexts)
                            assessment_rows.append(self._assessment_row(
                                design.label, noise_label, assessment, state))

            if fr_assessments:
                from ..assess.tvla import StreamingTTest

                with telemetry.span("campaign.assess", kind="tvla",
                                    assessments=len(fr_assessments)):
                    tvla_plaintexts, labels = tvla_schedule
                    tvla_traces = self._traces_for(
                        design, noise, tvla_plaintexts,
                        noise_start=len(plaintexts))
                    telemetry.count("traces", len(tvla_traces))
                    matrix = tvla_traces.matrix()
                    for assessment in fr_assessments:
                        state = StreamingTTest(threshold=assessment.threshold)
                        state.update(matrix, labels)
                        assessment_rows.append(self._assessment_row(
                            design.label, noise_label, assessment, state))
            telemetry.record_rss()
        return rows, assessment_rows

    def _run_scenario_streaming(self, scenario, plaintexts, *,
                                attacks, assessments, tvla_schedule,
                                compute_disclosure, keep_results, chunk_size
                                ) -> Tuple[List[CampaignRow], List[AssessmentRow]]:
        """The bounded-memory counterpart of :meth:`_run_scenario`.

        Traces are consumed as ``chunk_size`` blocks that feed the streaming
        state machine of :class:`_StreamingScenarioState`; at no point does
        more than one chunk of traces exist.  Disclosure sweeps segment each
        chunk at the prefix boundaries, so the rows match the in-memory run
        to floating-point reordering.
        """
        noise_label, noise_factory, design = scenario
        noise = noise_factory() if noise_factory is not None else None
        rows: List[CampaignRow] = []
        assessment_rows: List[AssessmentRow] = []
        telemetry = current()
        state = _StreamingScenarioState(
            self, scenario, plaintexts, attacks=attacks,
            assessments=assessments, tvla_schedule=tvla_schedule,
            compute_disclosure=compute_disclosure, keep_results=keep_results)

        if state.needs_attack_stream:
            with telemetry.span("campaign.stream", chunk_size=chunk_size):
                for chunk in self._trace_chunks_for(design, noise, plaintexts,
                                                    chunk_size):
                    matrix = chunk.matrix()
                    telemetry.count("chunks")
                    telemetry.count("traces", matrix.shape[0])
                    dt, t0 = chunk._time_params()
                    state.apply_attack_chunk(matrix, chunk.plaintexts(),
                                             dt, t0)

            for row in state.attack_rows():
                telemetry.count("attacks")
                rows.append(row)
            if state.assessment_states:
                with telemetry.span("campaign.assess", kind="value",
                                    assessments=len(state.assessment_states)):
                    assessment_rows.extend(state.value_assessment_rows())

        if state.needs_tvla_stream:
            with telemetry.span("campaign.assess", kind="tvla",
                                assessments=len(state.fr_states)):
                tvla_plaintexts, _labels = tvla_schedule
                for chunk in self._trace_chunks_for(
                        design, noise, tvla_plaintexts, chunk_size,
                        noise_start=len(plaintexts)):
                    matrix = chunk.matrix()
                    telemetry.count("chunks")
                    telemetry.count("traces", matrix.shape[0])
                    state.apply_tvla_chunk(matrix)
                assessment_rows.extend(state.fr_assessment_rows())
        return rows, assessment_rows

    def _stream_chunk(self, scenario: tuple,
                      stream_plaintexts: Sequence[Sequence[int]],
                      start: int, stop: int,
                      noise_base: int = 0) -> Tuple["object", float, float]:
        """Rows ``[start, stop)`` of one scenario's trace stream, as
        ``(matrix, dt, t0)``.

        A pure function of the scenario and the range: noise draws are
        pinned to the *global* trace index (``noise_base + start + i``) and
        trace synthesis is row-independent, so any process can generate any
        chunk on its own and the bytes match the corresponding slice of a
        sequential :meth:`_trace_chunks_for` sweep exactly.  This is the
        work unit :mod:`repro.serve` dispatches to its worker pool; the
        TVLA stream passes its own plaintext schedule with
        ``noise_base=len(attack_plaintexts)``.
        """
        _noise_label, noise_factory, design = scenario
        noise = noise_factory() if noise_factory is not None else None
        block = stream_plaintexts[start:stop]
        traces = self._traces_for(design, noise, block,
                                  noise_start=noise_base + start)
        matrix = traces.matrix()
        dt, t0 = traces._time_params()
        return matrix, dt, t0

    def _tvla_schedule_for(self, count: int, seed: int) -> Optional[tuple]:
        """The shared fixed-vs-random acquisition of the non-specific TVLAs."""
        fr_assessments = [a for a in self._assessments if a.kind == "tvla"]
        if not fr_assessments:
            return None
        fixed_choices = {a.fixed_plaintext for a in fr_assessments
                         if a.fixed_plaintext is not None}
        if len(fixed_choices) > 1:
            raise ValueError(
                "non-specific TVLA assessments disagree on the fixed "
                "plaintext; the campaign shares one fixed-vs-random "
                "acquisition per scenario"
            )
        fixed = list(fixed_choices.pop()) if fixed_choices else None
        # Imported lazily: repro.asyncaes itself builds on repro.core.
        from ..asyncaes.tracegen import fixed_vs_random_plaintexts

        return fixed_vs_random_plaintexts(
            count, fixed=fixed, block_size=16,
            seed=seed + _TVLA_SEED_OFFSET,
        )

    def _plan_run(self, plaintexts: Sequence[Sequence[int]], seed: int, *,
                  compute_disclosure: bool, keep_results: bool,
                  streaming: bool, chunk_size: Optional[int]
                  ) -> Tuple[List[tuple], Dict[str, object]]:
        """The deterministic (scenarios, options) plan of one run.

        Defaults are applied locally so planning never mutates the
        campaign's configured grid.  Any process holding the same campaign
        object — e.g. a forked :mod:`repro.serve` worker — rebuilds the
        identical plan from the same arguments, so only a tiny run spec
        ever crosses a process boundary.
        """
        attacks = list(self._attacks) or [standard_attack("dpa")]
        noises = list(self._noises) or [("noiseless", None)]
        scenarios = [(noise_label, noise_factory, design)
                     for noise_label, noise_factory in noises
                     for design in self._designs]
        options = dict(attacks=attacks,
                       assessments=list(self._assessments),
                       tvla_schedule=self._tvla_schedule_for(len(plaintexts),
                                                             seed),
                       compute_disclosure=compute_disclosure,
                       keep_results=keep_results,
                       streaming=streaming,
                       chunk_size=chunk_size)
        return scenarios, options

    def run(self, trace_count: Optional[int] = None, *,
            plaintexts: Optional[Sequence[Sequence[int]]] = None,
            seed: int = 0, compute_disclosure: bool = True,
            keep_results: bool = False, workers: int = 1,
            streaming: bool = False,
            chunk_size: Optional[int] = None,
            store: Optional[object] = None,
            telemetry: Optional[object] = None,
            drc: str = "warn",
            service: Optional[object] = None) -> CampaignResult:
        """Run every (design × attack × selection × noise) scenario of the
        grid, plus every registered leakage assessment.

        Traces are generated once per design and noise level and shared by
        all selection functions, attack kernels and value-partitioned
        assessments (non-specific TVLA adds one fixed-vs-random acquisition
        per scenario).  With ``workers > 1`` the (noise × design) scenarios —
        the units that own a trace generation — are sharded across the
        ``fork`` pool of :mod:`repro.store.grid`; every shard generates its
        own traces and the merged table is *identical* to the serial one
        (same plaintexts, same per-scenario noise streams, same row order),
        so sharding is purely a wall-clock knob.

        With ``streaming=True`` each scenario consumes its traces as
        ``chunk_size`` blocks through the accumulator pipelines of
        :mod:`repro.assess` — never materializing more than one chunk — and
        produces the same rows as the in-memory run (to floating-point
        reordering, ≲ 1e-9) for every chunk size.  Streaming composes with
        ``workers``: shards stream independently.

        With ``store=path`` every completed (noise × design) scenario is
        spilled to a columnar shard under ``path`` (npz frames behind a JSON
        manifest — see :mod:`repro.store`) the moment it finishes, and a
        re-invocation with the same ``store`` **resumes from the manifest**:
        completed scenarios are skipped, only the missing ones re-run, and
        the merged table is byte-identical to an uninterrupted serial run
        (scenarios own their noise streams, so completion order cannot leak
        into the rows).  The finished store carries the merged ``frame.npz``
        / ``assessments.npz`` for :func:`repro.store.load_campaign_result`
        and the query layer.  ``store`` composes with ``workers`` and
        ``streaming``; it rejects ``keep_results=True`` (attack result
        objects are not columnar).

        With ``telemetry=`` a :class:`repro.obs.Telemetry` collector, the
        run records a hierarchical span tree — one ``campaign.scenario``
        span per (noise × design) scenario with nested generation, attack
        and assessment phases, plus the store spill/merge spans — with
        counters (traces, chunks, attacks) and peak-RSS gauges.  Sharded
        workers record locally and the parent merges their trees in
        scenario order, so serial and ``workers=N`` runs produce the same
        tree shape (sharded spans carry a deterministic ``shard`` index)
        and the result rows are byte-identical either way.  Render the tree
        with :class:`repro.obs.RunReport` or export it via
        :mod:`repro.obs`.  Telemetry defaults to the ambient collector —
        the zero-cost no-op unless :func:`repro.obs.use` installed one.

        ``drc`` gates the run on the static campaign pre-flight of
        :func:`repro.drc.run_campaign_preflight` — the ``CAM`` rules that
        re-express the classic mid-run failures (mis-labelled grids,
        unpicklable sources under sharding, second-order kernels under
        streaming, store manifest mismatches) as diagnostics *before* any
        trace is generated.  ``"error"`` raises
        :class:`repro.drc.DrcError` on error-severity findings, ``"warn"``
        (the default) logs them and proceeds — the legacy runtime error
        still occurs where it used to — and ``"off"`` skips the
        pre-flight entirely.

        ``service`` hands scheduling to a running
        :class:`repro.serve.CampaignService`: scenarios decompose into
        chunk-level jobs balanced across the service's persistent worker
        pool, with trace matrices returned over shared memory and all
        accumulator updates applied here in deterministic chunk order —
        the merged table (and any ``store`` frames) are byte-identical to
        the serial run.  The campaign must have been registered with the
        service before it started; ``service`` composes with
        ``streaming``/``store`` but rejects ``workers > 1`` (the service
        owns the pool) and ``keep_results`` (result objects are not
        transportable).
        """
        if drc not in ("error", "warn", "off"):
            raise ValueError(f"drc must be 'error', 'warn' or 'off', "
                             f"got {drc!r}")
        if not self._designs:
            raise ValueError("campaign has no designs; call add_design first")
        if not self._selections and not self._assessments:
            raise ValueError("campaign has no selection functions; "
                             "call add_selection (or add_assessment) first")
        if streaming:
            if chunk_size is None:
                raise ValueError("streaming mode needs a chunk_size")
            if chunk_size < 1:
                raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
        elif chunk_size is not None:
            raise ValueError("chunk_size only applies to streaming=True runs")
        if plaintexts is None:
            if trace_count is None:
                raise ValueError("need trace_count or explicit plaintexts")
            plaintexts = PlaintextGenerator(block_size=16, seed=seed).batch(trace_count)
        plaintexts = [list(p) for p in plaintexts]
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if service is not None:
            if workers > 1:
                raise ValueError(
                    "workers does not compose with service=: the service "
                    "owns the worker pool (configure it there)")
            if keep_results:
                raise ValueError(
                    "keep_results does not compose with service=: attack "
                    "result objects do not cross the service transport — "
                    "re-run the scenario of interest in memory")

        telemetry = current() if telemetry is None else telemetry

        scenarios, options = self._plan_run(
            plaintexts, seed, compute_disclosure=compute_disclosure,
            keep_results=keep_results, streaming=streaming,
            chunk_size=chunk_size)
        with use(telemetry):
            if drc != "off":
                # Imported lazily: repro.drc's campaign rules import flow
                # internals, so the gate must not create an import cycle.
                # Runs once, in the parent, on the run's collector — before
                # any dispatch, so forked children never re-evaluate it.
                from ..drc import DrcError, run_campaign_preflight

                preflight = run_campaign_preflight(
                    self, workers=workers, streaming=streaming,
                    chunk_size=chunk_size, store=store, seed=seed,
                    plaintexts=plaintexts, options=options)
                if drc == "error" and preflight.has_errors:
                    raise DrcError(preflight, subject="campaign")
                for diagnostic in preflight.diagnostics:
                    logger.warning("campaign DRC: %s", diagnostic.render())
            with telemetry.span(
                    "campaign", scenarios=len(scenarios),
                    traces=len(plaintexts), workers=workers,
                    streaming=streaming):
                if service is not None:
                    return service._execute_campaign(
                        self, scenarios, plaintexts, seed, options,
                        store=store)
                keys = fingerprint = None
                if store is not None:
                    if keep_results:
                        raise ValueError(
                            "keep_results does not compose with store=: "
                            "attack result objects are not columnar — "
                            "re-run the scenario of interest in memory to "
                            "inspect full DPAResult objects")
                    keys = self._scenario_keys(scenarios)
                    fingerprint = self._grid_fingerprint(keys, plaintexts,
                                                         seed, options)
                grid = GridRun(self._grid_layout, len(scenarios), store,
                               keys=keys, fingerprint=fingerprint)
                rows, assessments = run_grid(
                    lambda index: self._run_scenario(
                        scenarios[index], plaintexts, **options),
                    grid, workers=workers)
                return CampaignResult(rows=rows, assessments=assessments)

    # ---------------------------------------------------------------- store
    @staticmethod
    def _scenario_keys(scenarios: List[tuple]) -> List[str]:
        """One stable manifest key per (noise × design) scenario."""
        keys = [f"{noise_label}/{design.label}"
                for noise_label, _factory, design in scenarios]
        duplicates = sorted({key for key in keys if keys.count(key) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate scenario keys {duplicates}: every "
                "(noise, design) pair must be unique to spill to a store")
        return keys

    def _grid_fingerprint(self, keys: List[str],
                          plaintexts: Sequence[Sequence[int]], seed: int,
                          options: Dict[str, object]) -> str:
        """Digest of everything that shapes the result table.

        Callables (noise factories, custom trace sources) cannot be hashed;
        their labels stand in for them, which is as much as equality can
        promise without executing them.
        """
        payload = {
            "scenario_keys": list(keys),
            "plaintexts": [[int(byte) for byte in block]
                           for block in plaintexts],
            "seed": seed,
            "selections": [[entry.selection.name, entry.correct_guess]
                           for entry in self._selections],
            "attacks": [spec.label for spec in options["attacks"]],
            "assessments": [[spec.label, spec.kind, spec.threshold,
                             spec.classes, spec.key_value,
                             list(spec.fixed_plaintext)
                             if spec.fixed_plaintext is not None else None]
                            for spec in options["assessments"]],
            "designs": [[design.label, design.source,
                         design.trace_source is not None]
                        for design in self._designs],
            "compute_disclosure": options["compute_disclosure"],
            "streaming": options["streaming"],
            "chunk_size": options["chunk_size"],
            "guesses": self.guesses,
            "mtd": [self.mtd_start, self.mtd_step, self.stable_runs],
        }
        return grid_fingerprint(payload)


class _StreamingScenarioState:
    """The accumulation half of one streaming (noise × design) scenario.

    Owns every streaming accumulator of the scenario — attack statistics,
    disclosure trackers, value assessments, fixed-vs-random t-tests — and
    consumes trace chunks strictly in stream order.  Orchestration (who
    generates the chunks, and where) lives outside: the serial path feeds
    it from :meth:`AttackCampaign._trace_chunks_for`, while
    :mod:`repro.serve` feeds it matrices generated by pool workers.  All
    updates happen here, in one process, in deterministic chunk order, so
    chunk-parallel runs produce bit-identical rows.
    """

    def __init__(self, campaign: "AttackCampaign", scenario: tuple,
                 plaintexts: Sequence[Sequence[int]], *, attacks,
                 assessments, tvla_schedule, compute_disclosure,
                 keep_results):
        from ..assess.streaming import disclosure_boundaries, streaming_state
        from ..assess.tvla import BoundarySweep, StreamingTTest

        self.campaign = campaign
        self.tvla_schedule = tvla_schedule
        self.keep_results = keep_results
        noise_label, _noise_factory, design = scenario
        self.noise_label = noise_label
        self.design = design
        value_assessments = [a for a in assessments
                             if a.kind in ("tvla-specific", "snr")]
        fr_assessments = [a for a in assessments if a.kind == "tvla"]

        self.attack_states = []
        for entry in campaign._selections:
            for attack_spec in attacks:
                kernel = attack_spec.build(entry.selection)
                guess_space = (list(campaign.guesses)
                               if campaign.guesses is not None
                               else list(kernel.guesses()))
                state = streaming_state(kernel, guess_space)
                tracker = None
                if compute_disclosure and entry.correct_guess is not None:
                    try:
                        correct_index = guess_space.index(entry.correct_guess)
                    except ValueError:
                        raise DPAError(
                            f"guess {entry.correct_guess:#x} was not part of "
                            "the attack") from None
                    tracker = DisclosureTracker(
                        correct_index, stable_runs=campaign.stable_runs,
                        n_guesses=len(guess_space))
                self.attack_states.append(
                    (entry, attack_spec, kernel, guess_space, state, tracker))
        self.assessment_states = campaign._value_assessment_states(
            value_assessments)
        boundaries = (disclosure_boundaries(len(plaintexts),
                                            start=campaign.mtd_start,
                                            step=campaign.mtd_step)
                      if any(tracker is not None
                             for *_, tracker in self.attack_states) else [])
        self.sweep = BoundarySweep(boundaries)
        self.position = 0
        self.dt: Optional[float] = None
        self.t0: Optional[float] = None
        self.fr_states = [(assessment,
                           StreamingTTest(threshold=assessment.threshold))
                          for assessment in fr_assessments]
        self.tvla_position = 0

    @property
    def needs_attack_stream(self) -> bool:
        """Whether the all-random attack stream has any consumer."""
        return bool(self.attack_states or self.assessment_states)

    @property
    def needs_tvla_stream(self) -> bool:
        """Whether the scenario needs the fixed-vs-random acquisition."""
        return bool(self.fr_states)

    def apply_attack_chunk(self, matrix, chunk_plaintexts,
                           dt: float, t0: float) -> None:
        """Fold the next chunk of the attack stream into every accumulator.

        Chunks must arrive in stream order — the disclosure sweep segments
        them at the global prefix boundaries, so ``position`` is part of
        the state machine.
        """
        if self.dt is None:
            self.dt, self.t0 = dt, t0
        position = self.position
        for start, stop in self.sweep.segments(position, matrix.shape[0]):
            segment = slice(start - position, stop - position)
            for *_, state, _tracker in self.attack_states:
                state.update(matrix[segment], chunk_plaintexts[segment])
            if self.sweep.at_boundary(stop):
                for *_, state, tracker in self.attack_states:
                    if tracker is not None:
                        tracker.observe(stop, state.peaks)
        for assessment, state in self.assessment_states:
            self.campaign._update_value_assessment(assessment, state, matrix,
                                                   chunk_plaintexts)
        self.position += matrix.shape[0]

    def apply_tvla_chunk(self, matrix) -> None:
        """Fold the next chunk of the fixed-vs-random acquisition."""
        _tvla_plaintexts, labels = self.tvla_schedule
        chunk_labels = labels[self.tvla_position:
                              self.tvla_position + matrix.shape[0]]
        for _assessment, state in self.fr_states:
            state.update(matrix, chunk_labels)
        self.tvla_position += matrix.shape[0]

    def attack_rows(self) -> List[CampaignRow]:
        """One finished campaign row per (selection × attack) entry."""
        from .cpa import result_from_statistic

        rows: List[CampaignRow] = []
        for entry, attack_spec, kernel, guess_space, state, tracker \
                in self.attack_states:
            attack = result_from_statistic(
                state.statistics(), guess_space, kernel.name, self.position,
                self.dt, self.t0)
            row = CampaignRow(
                design=self.design.label,
                selection=entry.selection.name,
                attack=attack_spec.label,
                noise=self.noise_label,
                trace_count=self.position,
                best_guess=attack.best_guess,
                best_peak=attack.best_peak,
                correct_guess=entry.correct_guess,
            )
            if entry.correct_guess is not None:
                row.rank_of_correct = attack.rank_of(entry.correct_guess)
                row.discrimination = attack.discrimination_ratio(
                    entry.correct_guess)
                if tracker is not None:
                    row.disclosure = tracker.disclosure
            if self.keep_results:
                row.result = attack
            rows.append(row)
        return rows

    def value_assessment_rows(self) -> List[AssessmentRow]:
        """Rows of the assessments that rode on the attack stream."""
        return [self.campaign._assessment_row(self.design.label,
                                              self.noise_label,
                                              assessment, state)
                for assessment, state in self.assessment_states]

    def fr_assessment_rows(self) -> List[AssessmentRow]:
        """Rows of the non-specific (fixed-vs-random) TVLA assessments."""
        return [self.campaign._assessment_row(self.design.label,
                                              self.noise_label,
                                              assessment, state)
                for assessment, state in self.fr_states]
