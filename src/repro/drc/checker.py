"""The DRC driver: context, rule dispatch, pipeline pass, campaign gate.

:class:`DrcContext` carries everything a rule may look at — netlist,
placement, campaign, run options — plus lazily built shared state (the
circuit graph and logical levels, built once and reused by every security
rule).  :func:`run_drc` applies the registry's rules layer by layer,
skipping layers whose subject is absent, so one entry point serves a bare
netlist, a placed design, and a configured campaign alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..circuits.netlist import Netlist
from ..graph import build_circuit_graph, compute_levels
from ..obs.telemetry import current
from .diagnostics import Diagnostic, DrcError, DrcLocation, DrcReport, Severity
from .registry import LAYERS, RuleRegistry, default_registry

logger = logging.getLogger(__name__)


@dataclass
class DrcContext:
    """Read-only view of the design state the rules check.

    ``cap_bound`` is the configurable rail-dissymmetry bound of ``SEC002``
    (the paper's criterion bound); ``tolerance`` the geometric tolerance of
    the placement rules.  ``run_options`` carries the campaign run knobs
    (``workers``, ``streaming``, ``chunk_size``, ``store``, ``seed``,
    ``plaintexts``) the campaign rules pre-flight.
    """

    netlist: Optional[Netlist] = None
    placement: Optional[object] = None
    campaign: Optional[object] = None
    run_options: Dict[str, object] = field(default_factory=dict)
    cap_bound: float = 0.15
    tolerance: float = 1e-6
    require_same_cells: bool = True

    def __post_init__(self) -> None:
        self._graph = None
        self._graph_version: Optional[int] = None
        self._levels = None

    # ------------------------------------------------------- shared state
    def graph(self):
        """The netlist's :class:`repro.graph.CircuitGraph`, built once per
        topology (rebuilt when ``topology_version`` moves)."""
        if self.netlist is None:
            raise ValueError("this rule needs a netlist in the DRC context")
        version = self.netlist.topology_version
        if self._graph is None or self._graph_version != version:
            self._graph = build_circuit_graph(self.netlist)
            self._graph_version = version
            self._levels = None
        return self._graph

    def levels(self):
        """Logical levels of the graph (cached with it)."""
        if self._levels is None:
            self._levels = compute_levels(self.graph())
        return self._levels

    def option(self, name: str, default=None):
        return self.run_options.get(name, default)

    # ----------------------------------------------------- layer presence
    def has_layer_subject(self, layer: str) -> bool:
        """True when the context carries what a layer's rules check."""
        if layer in ("netlist", "security"):
            return self.netlist is not None
        if layer == "placement":
            return self.placement is not None
        if layer == "campaign":
            return self.campaign is not None
        return False


def run_drc(netlist: Optional[Netlist] = None, *,
            placement: Optional[object] = None,
            campaign: Optional[object] = None,
            registry: Optional[RuleRegistry] = None,
            layers: Optional[Sequence[str]] = None,
            run_options: Optional[Dict[str, object]] = None,
            cap_bound: float = 0.15,
            tolerance: float = 1e-6,
            require_same_cells: bool = True,
            subject: Optional[str] = None) -> DrcReport:
    """Run every applicable rule of the registry and return the report.

    Layers whose subject is absent are skipped (a bare netlist is not a
    placement failure); pass ``layers=`` to restrict further.  The default
    registry is used unless a configured one is supplied.
    """
    registry = registry if registry is not None else default_registry()
    context = DrcContext(netlist=netlist, placement=placement,
                         campaign=campaign,
                         run_options=dict(run_options or {}),
                         cap_bound=cap_bound, tolerance=tolerance,
                         require_same_cells=require_same_cells)
    if subject is None:
        subject = (netlist.name if netlist is not None
                   else "campaign" if campaign is not None else "design")
    report = DrcReport(subject=subject)
    selected_layers = tuple(layers) if layers is not None else LAYERS
    for layer in selected_layers:
        if layer not in LAYERS:
            raise ValueError(f"unknown DRC layer {layer!r}; "
                             f"expected a subset of {LAYERS}")
    telemetry = current()
    with telemetry.span("drc.run", subject=subject):
        for layer in selected_layers:
            if not context.has_layer_subject(layer):
                continue
            for rule in registry.rules(layer=layer):
                try:
                    diagnostics = registry.run_rule(rule.id, context)
                except Exception as error:  # noqa: BLE001 - a DRC must
                    # survive designs broken enough to crash one analysis;
                    # the crash surfaces as an error diagnostic and every
                    # other rule still runs.
                    diagnostics = [Diagnostic(
                        rule=rule.id, severity=Severity.ERROR,
                        message=f"rule implementation crashed: "
                                f"{type(error).__name__}: {error}",
                        location=DrcLocation("rule", rule.id),
                        hint="checker bug or design too malformed to "
                             "analyse; the remaining rules still ran")]
                report.rules_checked.append(rule.id)
                report.extend(diagnostics)
                telemetry.count("drc_rules")
                if diagnostics:
                    telemetry.count("drc_findings", len(diagnostics))
    return report


def run_campaign_preflight(campaign, *, workers: int = 1,
                           streaming: bool = False,
                           chunk_size: Optional[int] = None,
                           store: Optional[object] = None,
                           seed: int = 0,
                           plaintexts: Optional[Sequence[Sequence[int]]] = None,
                           options: Optional[Dict[str, object]] = None,
                           registry: Optional[RuleRegistry] = None
                           ) -> DrcReport:
    """The campaign-layer DRC, before any trace is generated.

    This is the static re-expression of the classes of failure a campaign
    used to hit at runtime: a mis-labelled grid, an unpicklable source
    under sharding, a second-order kernel under streaming, a store whose
    manifest cannot match the grid.  ``options`` is the resolved run-option
    dict of :meth:`repro.core.flow.AttackCampaign.run` when called from the
    gate; standalone callers can omit it.
    """
    run_options = {
        "workers": workers,
        "streaming": streaming,
        "chunk_size": chunk_size,
        "store": store,
        "seed": seed,
        "plaintexts": plaintexts,
        "options": options,
    }
    return run_drc(campaign=campaign, registry=registry,
                   layers=("campaign",), run_options=run_options,
                   subject="campaign")


class DrcPass:
    """A DRC stage usable inside :class:`repro.harden.PassPipeline`.

    The pass checks the pipeline's current netlist and placement, stores
    the report in ``context.scratch["drc_reports"]`` (one entry per
    execution, so a pre-repair and a post-repair instance coexist) and —
    with ``fail_on="error"`` — aborts the pipeline by raising
    :class:`~repro.drc.diagnostics.DrcError` when error-severity
    diagnostics are present.  It never mutates the design, so its
    :class:`~repro.harden.passes.PassOutcome` always reports
    ``changed=False`` and cannot perturb repair-loop convergence.
    """

    def __init__(self, *, name: str = "drc",
                 registry: Optional[RuleRegistry] = None,
                 fail_on: Optional[str] = "error",
                 cap_bound: Optional[float] = None,
                 layers: Optional[Sequence[str]] = None):
        if fail_on not in (None, "error", "warning"):
            raise ValueError(f"fail_on must be None, 'error' or 'warning', "
                             f"got {fail_on!r}")
        self.name = name
        self.registry = registry
        self.fail_on = fail_on
        self.cap_bound = cap_bound
        self.layers = tuple(layers) if layers is not None else None

    def run(self, context) -> "object":
        from ..harden.passes import PassOutcome

        bound = self.cap_bound
        if bound is None:
            # Follow the pipeline's repair bound when one is recorded on the
            # context; fall back to the paper's default.
            bound = 0.15
        report = run_drc(context.netlist, placement=context.placement,
                         registry=self.registry, layers=self.layers,
                         cap_bound=bound,
                         subject=context.design_name or context.netlist.name)
        context.scratch.setdefault("drc_reports", []).append(report)
        counts = report.counts()
        if self.fail_on == "error" and report.has_errors:
            raise DrcError(report, subject=report.subject)
        if self.fail_on == "warning" and (report.has_errors
                                          or counts["warning"]):
            raise DrcError(report, subject=report.subject)
        return PassOutcome(self.name, changed=False,
                           details=report.summary())

    def __repr__(self) -> str:
        return f"DrcPass(name={self.name!r}, fail_on={self.fail_on!r})"
