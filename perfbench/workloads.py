"""The benchmark's workloads: the paper's pipeline on pinned designs.

Each workload is one closed loop driven by this process: build the AES
netlists (set-up), then the timed *pipeline* — place/extract/criterion for
the flat, hierarchical and hardened flows, any design-rule checks, the
attack campaign, and any store reload and query.  Only public APIs are
called.  Design seeds (key, placement) are pinned; the workload seed drives
the plaintexts and the noise draws only.

Every public call into a layer other than the campaign (which records its
own ``campaign`` span tree) is wrapped in a benchmark-owned span
(``bench.<layer>``).  The span always times its body, so the same code
gives the outside per-layer timers with tracing off, and lands in the run
report tree when a :class:`repro.obs.Telemetry` is installed.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Optional

from repro.asyncaes import (
    AesArchitecture,
    AesNetlistGenerator,
    AesPowerTraceGenerator,
)
from repro.core import AesSboxSelection, AttackCampaign, evaluate_netlist_channels
from repro.crypto.keys import PlaintextGenerator, random_key
from repro.drc import run_campaign_preflight, run_drc
from repro.electrical import GaussianNoise
from repro.harden import harden_design
from repro.obs import current
from repro.pnr import run_flat_flow, run_hierarchical_flow
from repro.pnr.sweep import PlacementSweep
from repro.store import load_campaign_result, mtd_percentiles, verdict_pivot

#: Pinned design seeds: the ``hardening_reference`` fixture of
#: ``tests/test_harden.py`` (key seed 7, placement seed 5, bound 0.02).
KEY_SEED = 7
PNR_SEED = 5
HARDEN_BOUND = 0.02
DESIGNS = ("flat", "hier", "hardened")


@dataclass
class Outcome:
    """What one pipeline iteration measured, produced and checked."""

    pipeline_s: float = 0.0
    campaign_s: float = 0.0
    traces: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)


@contextmanager
def timed(outcome: Outcome, layer: str):
    """Time one public call as ``<layer>_s`` under a ``bench.<layer>`` span."""
    with current().span(f"bench.{layer}") as span:
        yield
    key = f"{layer}_s"
    outcome.layers[key] = outcome.layers.get(key, 0.0) + span.duration_s


def traces_attacked(result) -> int:
    """Traces acquired by a campaign: one attack set per (design, noise)
    scenario plus every TVLA acquisition."""
    scenarios = {(row.design, row.noise): row.trace_count
                 for row in result.rows}
    return sum(scenarios.values()) + sum(row.trace_count
                                         for row in result.assessments)


class Workload:
    """The pipeline shared by every workload; subclasses add their layers."""

    name = ""
    why = ""
    word_width = 8
    effort = 0.3
    trace_count = 600
    noise_sigma = 6e-4
    campaign_designs = DESIGNS
    attacks = ("dpa", "cpa")
    noiseless = True
    byte_index = 3
    tvla_threshold = 4.5
    workers = 1
    chunk_size: Optional[int] = None
    #: Per-layer metrics this workload must report as non-zero when traced.
    layers_run = ()

    def __init__(self):
        self.architecture = AesArchitecture(word_width=self.word_width,
                                            detail=0.1)
        self.key = random_key(16, seed=KEY_SEED)

    # ----------------------------------------------------------- set-up
    def build(self) -> Dict[str, object]:
        """One fresh netlist per design (flows place them in place)."""
        return {label: AesNetlistGenerator(self.architecture,
                                           name=f"aes_{label}").build()
                for label in DESIGNS}

    # --------------------------------------------------------- pipeline
    def run(self, netlists, seed: int, workdir: Path) -> Outcome:
        """One timed pipeline iteration, then its correctness checks."""
        out = Outcome()
        start = time.perf_counter()
        reports, hardening = self.flows(out, netlists)
        self.design_layers(out, netlists, hardening)
        result = self.campaign(out, netlists, seed, workdir)
        reloaded = self.after_campaign(out, workdir)
        out.pipeline_s = time.perf_counter() - start
        out.traces = traces_attacked(result)

        self.check_flows(out, reports, hardening)
        for row in result.rows:
            key = f"{row.design}.{row.attack}.{row.noise}"
            out.stats[f"mtd.{key}"] = row.disclosure
            out.stats[f"rank.{key}"] = row.rank_of_correct
        for row in result.assessments:
            out.stats[f"tvla.{row.design}.{row.noise}"] = row.peak
        self.check_campaign(out, result)
        if reloaded is not None:
            out.checks["store_reload_identical"] = (
                reloaded.frame().equals(result.frame())
                and reloaded.assessment_frame().equals(
                    result.assessment_frame()))
        return out

    def flows(self, out: Outcome, netlists):
        with timed(out, "pnr.flat"):
            run_flat_flow(netlists["flat"], seed=PNR_SEED, effort=self.effort)
            flat = evaluate_netlist_channels(netlists["flat"])
        with timed(out, "pnr.hier"):
            run_hierarchical_flow(netlists["hier"], seed=PNR_SEED,
                                  effort=self.effort)
            hier = evaluate_netlist_channels(netlists["hier"])
        with timed(out, "harden.pipeline"):
            hardening = harden_design(netlists["hardened"], base="flat",
                                      bound=HARDEN_BOUND, seed=PNR_SEED,
                                      effort=self.effort)
        out.layers["harden.repair_iterations"] = hardening.repair_iterations
        out.layers["harden.nets_reextracted"] = hardening.nets_reextracted
        for record in hardening.records:
            key = f"harden.pass.{record.pass_name}_s"
            out.layers[key] = out.layers.get(key, 0.0) + record.duration_s
        return {"flat": flat, "hier": hier}, hardening

    def design_layers(self, out: Outcome, netlists, hardening) -> None:
        """Design-side layers between the flows and the campaign."""

    def noise_factories(self, seed: int):
        noises = [("noiseless", None)] if self.noiseless else []
        # partial, not a lambda: the factory must pickle under workers > 1.
        noises.append(("gaussian", partial(GaussianNoise, self.noise_sigma,
                                           seed=seed + 17)))
        return noises

    def build_campaign(self, netlists, seed: int) -> AttackCampaign:
        # stable_runs=3: a wrong-key design ranks the key first at a single
        # prefix boundary now and then (2 of 30 seeds at 600 traces), which
        # is a fluke, not a disclosure.
        campaign = AttackCampaign(self.key, architecture=self.architecture,
                                  mtd_start=20, mtd_step=20, stable_runs=3)
        for label in self.campaign_designs:
            campaign.add_design(label, netlists[label])
        campaign.add_selection(AesSboxSelection(byte_index=self.byte_index,
                                                bit_index=0))
        for attack in self.attacks:
            campaign.add_attack(attack)
        for label, factory in self.noise_factories(seed):
            campaign.add_noise(label, factory)
        campaign.add_assessment("tvla", threshold=self.tvla_threshold)
        return campaign

    def store_dir(self, workdir: Path) -> Optional[Path]:
        return None

    def campaign(self, out: Outcome, netlists, seed: int, workdir: Path, *,
                 compute_disclosure: bool = True):
        """Pre-flight DRC, then the campaign; the run is timed on its own."""
        campaign = self.build_campaign(netlists, seed)
        store = self.store_dir(workdir)
        options = dict(workers=self.workers, streaming=self.chunk_size is not None,
                       chunk_size=self.chunk_size, store=store)
        with timed(out, "drc.preflight"):
            preflight = run_campaign_preflight(campaign, seed=seed, **options)
        out.checks["preflight_no_errors"] = not preflight.has_errors
        out.stats["drc.preflight.findings"] = len(preflight.diagnostics)
        out.layers["drc.findings"] = (out.layers.get("drc.findings", 0)
                                      + len(preflight.diagnostics))
        start = time.perf_counter()
        # The pre-flight above is the campaign's gate; drc="off" keeps the
        # run from evaluating it a second time.
        result = campaign.run(trace_count=self.trace_count, seed=seed,
                              compute_disclosure=compute_disclosure,
                              drc="off", telemetry=current(), **options)
        out.campaign_s = time.perf_counter() - start
        return result

    def after_campaign(self, out: Outcome, workdir: Path):
        """Store reload and query, where the campaign spilled to a store."""
        return None

    # ----------------------------------------------------------- checks
    def check_flows(self, out: Outcome, reports, hardening) -> None:
        reports = {**reports, "hardened": hardening.criterion}
        for label, report in reports.items():
            out.stats[f"dA.{label}.max"] = report.max_dissymmetry
            out.stats[f"dA.{label}.mean"] = report.mean_dissymmetry
        out.checks["hier_below_flat"] = (reports["hier"].max_dissymmetry
                                         < reports["flat"].max_dissymmetry)
        out.checks["hardened_meets_bound"] = hardening.passed

    def check_campaign(self, out: Outcome, result) -> None:
        # Disclosed means rank 1 on the full trace set; the stable MTD can
        # still be None when the rank settles within the last boundaries.
        for attack in ("dpa", "cpa-bit"):
            flat = result.row("flat", attack=attack, noise="noiseless")
            out.checks[f"flat_{attack}_discloses"] = flat.disclosed
        # Noiseless only: at sigma 6e-4 no design discloses, and the noise,
        # drawn alike for every design, ranks the key first by chance on
        # some seeds (2 of 30) for all designs at once.
        out.checks["hardened_never_discloses"] = all(
            row.disclosure is None and not row.disclosed
            for row in result.rows
            if row.design == "hardened" and row.noise == "noiseless")
        flat_tvla = result.assessment_row("flat", noise="gaussian")
        hard_tvla = result.assessment_row("hardened", noise="gaussian")
        out.checks["flat_tvla_flagged"] = bool(flat_tvla.flagged)
        out.checks["hardened_tvla_below_flat"] = hard_tvla.peak < flat_tvla.peak

    # ------------------------------------------------------ trace probes
    def trace_batch(self, netlists, seed: int) -> float:
        """Seconds of one direct ``trace_batch`` of the placed flat design."""
        generator = AesPowerTraceGenerator(netlists["flat"], self.key,
                                           architecture=self.architecture)
        plaintexts = PlaintextGenerator(seed=seed).batch(self.trace_count)
        start = time.perf_counter()
        traces = generator.trace_batch(plaintexts)
        elapsed = time.perf_counter() - start
        if len(traces) != self.trace_count:
            raise RuntimeError(f"trace_batch returned {len(traces)} traces, "
                               f"expected {self.trace_count}")
        return elapsed


class AttackInMemory(Workload):
    name = "attack-inmem"
    why = ("8-bit AES, serial in-memory campaign: attack kernels and the "
           "disclosure sweep do most of the work; no DRC, pool or store")
    layers_run = ("core.generate_s", "core.attack_s", "assess.tvla_s")


class StreamPool(AttackInMemory):
    name = "stream-pool"
    why = ("same designs and grid, streamed in chunks over a worker pool "
           "into a store, then reloaded and queried")
    workers = min(2, os.cpu_count() or 1)
    chunk_size = 100
    layers_run = ("assess.stream_s", "store.write_shard_s", "store.merge_s",
                  "store.finalize_s", "store.load_s", "store.query_s",
                  "store.bytes")

    def store_dir(self, workdir: Path) -> Path:
        path = workdir / "store"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def after_campaign(self, out: Outcome, workdir: Path):
        path = workdir / "store"
        with timed(out, "store.load"):
            reloaded = load_campaign_result(path)
        with timed(out, "store.query"):
            percentiles = mtd_percentiles(reloaded.frame())
            disclosed = verdict_pivot(reloaded.frame())
            flagged = verdict_pivot(reloaded.assessment_frame(), cols="noise")
        out.layers["store.bytes"] = sum(entry.stat().st_size
                                        for entry in path.rglob("*")
                                        if entry.is_file())
        out.stats["store.query_rows"] = (len(percentiles)
                                         + len(disclosed.row_labels)
                                         + len(flagged.row_labels))
        return reloaded


class DesignFlow(Workload):
    name = "design-flow"
    why = ("16-bit AES at full placement effort: layer-by-layer DRC, flows "
           "and a placer sweep do most of the work; a short closing campaign")
    word_width = 16
    effort = 1.0
    campaign_designs = ("flat", "hardened")
    attacks = ("dpa",)
    noiseless = False
    byte_index = 0
    #: The hardened design's gaussian TVLA is at the null floor, whose
    #: max |t| over the trace's samples crosses 4.5 on about one seed in 30
    #: at 600 traces (seeds 0-29 peak at 4.61); 5.0 keeps the verdict a
    #: property of the design, not of the seed.  The flat design peaks
    #: at 6.9 or more on the same seeds.
    tvla_threshold = 5.0
    #: 8 points: placement (flows + sweep) is about a fifth of the run,
    #: the layer-by-layer DRC more than half.
    sweep_grid = dict(cooling=(0.7, 0.8), moves_per_cell=(5.0, 15.0),
                      security_weight=(0.0, 1.0))
    layers_run = ("core.generate_s", "core.attack_s", "assess.tvla_s",
                  "drc.netlist_s", "drc.security_s", "drc.placement_s",
                  "drc.findings", "pnr.sweep_s", "pnr.sweep_points_per_s")

    def design_layers(self, out: Outcome, netlists, hardening) -> None:
        errors = 0
        for layer in ("netlist", "security", "placement"):
            with timed(out, f"drc.{layer}"):
                report = run_drc(hardening.netlist,
                                 placement=hardening.design.placement,
                                 layers=(layer,), cap_bound=HARDEN_BOUND)
            errors += len(report.errors)
            out.stats[f"drc.{layer}.findings"] = len(report.diagnostics)
            out.layers["drc.findings"] = (out.layers.get("drc.findings", 0)
                                          + len(report.diagnostics))
        out.checks["drc_no_errors"] = errors == 0

        sweep = PlacementSweep(self._sweep_netlist, flow="flat",
                               seed=PNR_SEED, effort=self.effort,
                               **self.sweep_grid)
        points = sweep.points()
        with timed(out, "pnr.sweep"):
            swept = sweep.run()
        out.layers["pnr.sweep_points_per_s"] = (len(swept.rows)
                                                / out.layers["pnr.sweep_s"])
        out.stats["sweep.wirelength_um"] = [row.wirelength_um
                                            for row in swept.rows]
        out.stats["sweep.max_dA"] = [row.max_dissymmetry for row in swept.rows]
        # The placer raises PlacementError on an illegal placement, so a
        # row per point with a finite positive wirelength means every point
        # placed legally.
        out.checks["sweep_points_legal"] = (
            [row.point for row in swept.rows] == points
            and all(math.isfinite(row.wirelength_um) and row.wirelength_um > 0
                    for row in swept.rows))

    def _sweep_netlist(self):
        return AesNetlistGenerator(self.architecture, name="aes_sweep").build()

    def check_campaign(self, out: Outcome, result) -> None:
        out.checks["flat_tvla_flagged"] = bool(
            result.assessment_row("flat", noise="gaussian").flagged)
        out.checks["hardened_tvla_clear"] = not result.assessment_row(
            "hardened", noise="gaussian").flagged


WORKLOADS = {workload.name: workload
             for workload in (AttackInMemory, StreamPool, DesignFlow)}
