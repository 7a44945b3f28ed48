"""Knob grid-search harness for the annealing placer.

Placement quality/speed folklore ("cool at 0.75", "15 moves per cell") becomes
a measured grid: a :class:`PlacementSweep` runs one full place → extract →
criterion evaluation per point of the knob product

``initial_acceptance (T₀ calibration) × cooling α × moves/cell ×
security_weight``

and merges the per-point results into a deterministic table.  Points are
independent units of one :mod:`repro.store.grid` grid — the same runner as
:class:`repro.core.flow.AttackCampaign` — so ``workers``, ``store`` and
``service`` work as they do for campaigns: each forked worker regenerates
its point's netlist from the factory, and the merged table is
byte-identical to a serial run.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from ..circuits.netlist import Netlist
from ..electrical.technology import HCMOS9_LIKE, Technology
from ..obs.telemetry import current, use
from ..store import grid_fingerprint
from ..store.grid import (GridLayout, GridRun, run_grid,
                          single_blas_thread)
from .placement import AnnealingSchedule, PlacementError


@dataclass(frozen=True)
class SweepPoint:
    """One knob combination of the placer grid."""

    initial_acceptance: float
    cooling: float
    moves_per_cell: float
    security_weight: float

    def schedule(self, base: AnnealingSchedule) -> AnnealingSchedule:
        return replace(
            base,
            initial_acceptance=self.initial_acceptance,
            cooling=self.cooling,
            moves_per_cell=self.moves_per_cell,
            security_weight=self.security_weight,
        )


@dataclass(frozen=True)
class SweepRow:
    """The measured outcome of one sweep point."""

    point: SweepPoint
    wirelength_um: float
    max_dissymmetry: float
    mean_dissymmetry: float


@dataclass
class SweepResult:
    """All rows of a finished sweep, in grid order."""

    flow: str
    design: str
    rows: List[SweepRow]

    def best(self, key: Optional[Callable[[SweepRow], float]] = None) -> SweepRow:
        """The best row (lowest ``key``; default: total wirelength)."""
        if not self.rows:
            raise PlacementError("empty sweep: no rows to rank")
        if key is None:
            key = lambda row: row.wirelength_um  # noqa: E731
        return min(self.rows, key=key)

    def as_table(self) -> str:
        """Fixed-width table of the grid, deterministic byte-for-byte."""
        header = (f"{'acc':>6s} {'cool':>6s} {'mv/cell':>8s} {'sec_w':>6s} "
                  f"{'WL um':>12s} {'max dA':>10s} {'mean dA':>10s}")
        lines = [f"placer sweep: {self.design} [{self.flow}], "
                 f"{len(self.rows)} points", header, "-" * len(header)]
        for row in self.rows:
            p = row.point
            lines.append(
                f"{p.initial_acceptance:>6.2f} {p.cooling:>6.2f} "
                f"{p.moves_per_cell:>8.1f} {p.security_weight:>6.2f} "
                f"{row.wirelength_um:>12.2f} {row.max_dissymmetry:>10.6f} "
                f"{row.mean_dissymmetry:>10.6f}")
        return "\n".join(lines)


@dataclass
class PlacementSweep:
    """Grid search over the annealing placer knobs.

    ``netlist_factory`` must build a *fresh* netlist per call (placement
    annotates nets in place, so points must not share one netlist — and the
    factory, not a netlist, is what lets forked workers regenerate their
    shard locally).
    """

    #: One grid point's result table (a one-row list per point).
    _grid_layout = GridLayout("sweep", {"rows": "sweep"})

    netlist_factory: Callable[[], Netlist]
    flow: str = "flat"
    seed: int = 0
    effort: float = 1.0
    technology: Technology = field(default_factory=lambda: HCMOS9_LIKE)
    base_schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    initial_acceptance: Sequence[float] = (0.3,)
    cooling: Sequence[float] = (0.75,)
    moves_per_cell: Sequence[float] = (15.0,)
    security_weight: Sequence[float] = (0.0,)

    def points(self) -> List[SweepPoint]:
        """The grid in deterministic (row-major product) order."""
        return [SweepPoint(*knobs) for knobs in itertools.product(
            self.initial_acceptance, self.cooling,
            self.moves_per_cell, self.security_weight)]

    # ------------------------------------------------------------- one point
    def _run_point(self, point: SweepPoint) -> SweepRow:
        from ..harden.pipeline import flat_pipeline, hierarchical_pipeline

        telemetry = current()
        with telemetry.span("sweep.point",
                            initial_acceptance=point.initial_acceptance,
                            cooling=point.cooling,
                            moves_per_cell=point.moves_per_cell,
                            security_weight=point.security_weight):
            netlist = self.netlist_factory()
            schedule = point.schedule(self.base_schedule)
            if self.flow == "flat":
                pipeline = flat_pipeline(effort=self.effort,
                                         schedule=schedule)
            elif self.flow == "hierarchical":
                pipeline = hierarchical_pipeline(effort=self.effort,
                                                 schedule=schedule)
            else:
                raise PlacementError(
                    f"unknown sweep flow {self.flow!r}; expected 'flat' or "
                    "'hierarchical'")
            result = pipeline.run(netlist, seed=self.seed,
                                  technology=self.technology)
            telemetry.record_rss()
            return SweepRow(
                point=point,
                wirelength_um=result.design.routing.total_wirelength_um(),
                max_dissymmetry=result.criterion.max_dissymmetry,
                mean_dissymmetry=result.criterion.mean_dissymmetry,
            )

    # ------------------------------------------------------------------ run
    def run(self, *, workers: int = 1, store=None,
            telemetry=None, service=None) -> SweepResult:
        """Run every grid point; ``workers > 1`` shards over forked workers.

        The merged result is in grid order regardless of worker count, and
        byte-identical to the serial run (each point is deterministic and
        fully independent).  Falls back to the serial path when ``fork`` is
        unavailable.

        With ``store=path`` every finished point is spilled to a columnar
        shard under ``path`` (the same npz + manifest format as
        :meth:`repro.core.flow.AttackCampaign.run` — see
        :mod:`repro.store`), and re-invoking with the same ``store`` resumes
        from the manifest: completed points are loaded back instead of
        re-placed, and the merged table is byte-identical to an
        uninterrupted serial run.

        With ``telemetry=`` a :class:`repro.obs.Telemetry` collector, the
        sweep records one ``sweep.point`` span per grid point (annealer
        move counters and peak RSS nested inside); sharded workers record
        locally and their trees merge in grid order, same shape as serial.

        With ``service=`` a running :class:`repro.serve.CampaignService`
        the sweep was registered with, grid points are scheduled as jobs
        on the service's persistent worker pool (``workers`` must stay 1 —
        the service owns the pool); the merged table is byte-identical to
        a serial run.
        """
        points = self.points()
        design = self.netlist_factory().name
        telemetry = current() if telemetry is None else telemetry
        if service is not None and workers > 1:
            raise PlacementError(
                "workers does not compose with service=: the service owns "
                "the worker pool (configure it there)")
        with (use(telemetry), single_blas_thread() as blas_threads,
              telemetry.span("sweep", flow=self.flow, design=design,
                             points=len(points), workers=workers,
                             blas_threads=blas_threads)):
            if service is not None:
                return service._execute_sweep(self, points, design,
                                              store=store)
            grid = GridRun(self._grid_layout, len(points), store,
                           keys=self._point_keys(points),
                           fingerprint=self._grid_fingerprint(points, design),
                           metadata={"flow": self.flow, "design": design})
            (rows,) = run_grid(
                lambda index: ([self._run_point(points[index])],), grid,
                workers=workers)
            return SweepResult(flow=self.flow, design=design, rows=rows)

    # ---------------------------------------------------------------- store
    @staticmethod
    def _point_keys(points: List[SweepPoint]) -> List[str]:
        """One stable manifest key per grid point."""
        return [f"point-{index:04d}" for index in range(len(points))]

    def _grid_fingerprint(self, points: List[SweepPoint],
                          design: str) -> str:
        """Digest of every knob that shapes the sweep table.

        The netlist factory itself cannot be hashed; the design name it
        produces stands in for it.
        """
        payload = {
            "design": design,
            "flow": self.flow,
            "seed": self.seed,
            "effort": self.effort,
            "base_schedule": {key: value for key, value
                              in sorted(asdict(self.base_schedule).items())},
            "points": [[point.initial_acceptance, point.cooling,
                        point.moves_per_cell, point.security_weight]
                       for point in points],
        }
        return grid_fingerprint(payload)
