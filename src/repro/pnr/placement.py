"""Placement engines: flat (reference) and hierarchical (constrained).

Two flows are compared in Section VI of the paper:

* **flat** (AES_v2): the whole netlist is placed on the die in one go.  The
  optimizer only minimises global wirelength, so the lengths of the two rails
  of a dual-rail channel are left to chance — "the designer has no control on
  the net capacitances";
* **hierarchical** (AES_v1): every architectural block is constrained into a
  fence of the floorplan; cells implementing one function stay gathered,
  which bounds the length *and the dispersion* of the channel nets.

Both flows share the same machinery: a row-based initial placement followed by
a simulated-annealing refinement that minimises half-perimeter wirelength
(HPWL) while honouring each cell's allowed placement rectangle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuits.netlist import Netlist
from ..electrical.technology import HCMOS9_LIKE, Technology
from .cells import PlacedCell, cells_from_netlist
from .floorplan import Floorplan, Rect


class PlacementError(Exception):
    """Raised when a placement cannot be produced or is illegal."""


@dataclass(frozen=True)
class LegalityViolation:
    """One cell outside its allowed rectangle.

    The structured record behind :meth:`Placement.check_legality`; the DRC
    placement rules consume these directly so the placer and the checker
    share a single legality implementation.
    """

    cell: str
    x_um: float
    y_um: float
    fence: str
    rect: Rect

    def describe(self) -> str:
        return (
            f"cell {self.cell!r} at ({self.x_um:.1f}, {self.y_um:.1f}) "
            f"is outside its {self.fence!r} fence "
            f"[{self.rect.x_um:.1f}, {self.rect.y_um:.1f}] x "
            f"[{self.rect.x_max:.1f}, {self.rect.y_max:.1f}]"
        )


def legality_violations(cells: Mapping[str, PlacedCell], floorplan: Floorplan,
                        *, tolerance: float = 1e-6) -> List[LegalityViolation]:
    """Every cell lying outside its fence (or the die), deterministically.

    The single source of truth for placement legality: the placers call it
    through :meth:`Placement.check_legality`, the DRC through ``PLC001``.
    """
    violations = []
    for cell in cells.values():
        rect = floorplan.placement_rect(cell.block)
        if not rect.contains(cell.x_um, cell.y_um, tolerance=tolerance):
            fence = cell.block if cell.block else "die"
            violations.append(LegalityViolation(
                cell=cell.name, x_um=cell.x_um, y_um=cell.y_um,
                fence=fence, rect=rect))
    return violations


@dataclass
class Placement:
    """The result of a placement: positioned cells plus the floorplan used."""

    cells: Dict[str, PlacedCell]
    floorplan: Floorplan

    def position_of(self, cell_name: str) -> Tuple[float, float]:
        try:
            return self.cells[cell_name].position
        except KeyError:
            raise PlacementError(f"cell {cell_name!r} is not placed") from None

    def __len__(self) -> int:
        return len(self.cells)

    def cell_area_um2(self) -> float:
        return sum(cell.area_um2 for cell in self.cells.values())

    def die_area_um2(self) -> float:
        return self.floorplan.die.area_um2

    def check_legality(self, *, tolerance: float = 1e-6) -> List[str]:
        """Verify every cell lies inside its allowed rectangle.

        Delegates to :func:`legality_violations` (shared with the DRC's
        ``PLC001``) and renders each violation in the historical format.
        """
        return [violation.describe()
                for violation in self.violations(tolerance=tolerance)]

    def violations(self, *, tolerance: float = 1e-6) -> List[LegalityViolation]:
        """Structured legality violations of this placement."""
        return legality_violations(self.cells, self.floorplan,
                                   tolerance=tolerance)


# ----------------------------------------------------------- initial placing
def _row_fill(cells: Sequence[PlacedCell], rect: Rect) -> None:
    """Place cells in rows filling the rectangle left-to-right, bottom-up."""
    if not cells:
        return
    row_height = max(cell.height_um for cell in cells)
    x = rect.x_um
    y = rect.y_um + row_height / 2.0
    for cell in cells:
        if x + cell.width_um > rect.x_max and x > rect.x_um:
            x = rect.x_um
            y += row_height
            if y > rect.y_max:
                # Overflow: wrap around and overlap rather than fail; the
                # annealer only needs approximate positions.
                y = rect.y_um + row_height / 2.0
        cell.x_um = min(x + cell.width_um / 2.0, rect.x_max)
        cell.y_um = min(y, rect.y_max)
        x += cell.width_um


def initial_placement(cells: Mapping[str, PlacedCell], floorplan: Floorplan, *,
                      rng: random.Random, ordered: bool = False) -> None:
    """Produce a legal starting placement (in place).

    ``ordered=True`` keeps cells in name order inside each region, which keeps
    the cells of one bit slice adjacent — the structured, datapath-aware start
    used by the hierarchical flow.  ``ordered=False`` shuffles them, modelling
    the unconstrained flat flow.
    """
    by_region: Dict[str, List[PlacedCell]] = {}
    for cell in cells.values():
        region = cell.block if floorplan.region_for(cell.block) is not None else ""
        by_region.setdefault(region, []).append(cell)
    for region_key, region_cells in by_region.items():
        if ordered:
            region_cells.sort(key=lambda c: c.name)
        else:
            rng.shuffle(region_cells)
        rect = (floorplan.regions[region_key].rect if region_key and
                region_key in floorplan.regions else floorplan.die)
        _row_fill(region_cells, rect)


# -------------------------------------------------------------------- anneal
@dataclass
class AnnealingSchedule:
    """Placement effort knobs (analytic sweeps plus annealing refinement).

    ``security_weight`` blends the rail-capacitance dissymmetry criterion
    into the annealing cost (0 = pure HPWL).  The vectorized engine of
    :mod:`repro.pnr.anneal` is the only optimizer; the scalar per-move
    pipeline it replaced lives with the tests (``tests/oracles/placer.py``)
    as the oracle of the equivalence tests and the placer benchmark.
    """

    cog_sweeps: int = 6
    legalize_rounds: int = 2
    moves_per_cell: float = 15.0
    initial_acceptance: float = 0.3
    cooling: float = 0.75
    temperature_steps: int = 20
    security_weight: float = 0.0
    batch_moves: int = 2048
    swap_fraction: float = 0.3
    initial_temperature: Optional[float] = None

    def scaled(self, effort: float) -> "AnnealingSchedule":
        """Scale the optimisation effort by a factor (>= 0).

        The total annealing move budget scales *linearly* with ``effort``:
        ``moves_per_cell`` stays fractional and :meth:`move_budget` shrinks
        the number of temperature steps rather than flooring each step's
        move count at one (which used to make low-effort runs spend far
        more moves than requested).
        """
        return replace(
            self,
            cog_sweeps=max(1, int(round(self.cog_sweeps * effort))),
            moves_per_cell=max(0.0, self.moves_per_cell * effort),
        )

    def move_budget(self, movable_count: int) -> List[int]:
        """Per-temperature-step move counts for ``movable_count`` cells.

        The budget sums to ``round(moves_per_cell * movable_count)`` exactly
        — linear in both knobs — distributed as evenly as possible over at
        most ``temperature_steps`` steps (fewer steps when the budget is
        smaller than the step count, instead of padding steps to one move).
        """
        total = int(round(self.moves_per_cell * max(0, movable_count)))
        if total <= 0:
            return []
        steps = max(1, min(self.temperature_steps, total))
        base, extra = divmod(total, steps)
        return [base + (1 if index < extra else 0) for index in range(steps)]


def _optimize(netlist: Netlist, cells: Dict[str, PlacedCell], floorplan: Floorplan,
              rng: random.Random, schedule: AnnealingSchedule,
              technology: Technology = HCMOS9_LIKE) -> float:
    """Run the full placement optimisation pipeline in place.

    The pipeline alternates centre-of-gravity sweeps with row legalisation
    (the analytic phase), applies a low-temperature annealing refinement, and
    legalises once more, all on the numpy-backed engine of
    :mod:`repro.pnr.anneal` (which also honours ``schedule.security_weight``).
    Returns the final total wirelength.
    """
    from .anneal import VectorPlacementEngine

    np_rng = np.random.default_rng(rng.getrandbits(64))
    engine = VectorPlacementEngine(netlist, cells, floorplan,
                                   schedule=schedule, technology=technology,
                                   rng=np_rng)
    if engine.conn.n_nets == 0:
        engine.legalize()
        engine.writeback()
        return 0.0

    rounds = max(1, schedule.legalize_rounds)
    sweeps_per_round = max(1, schedule.cog_sweeps // rounds)
    for _ in range(rounds):
        # Jacobi sweeps converge slower than the scalar Gauss-Seidel pass
        # but cost ~10x less; run three iterations per requested sweep.
        engine.cog_sweeps(sweeps_per_round * 3)
        engine.legalize()

    engine.refine()
    engine.legalize()
    engine.writeback()
    return engine.wirelength()


# ------------------------------------------------------------------- placers
@dataclass
class FlatPlacer:
    """The reference flow: one global, unconstrained placement (AES_v2).

    ``seed`` selects the random run; the paper observes that "the most
    sensitive channels are never the same from one place and route to
    another", which the test-suite reproduces by comparing seeds.
    """

    seed: int = 0
    utilization: float = 0.85
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    effort: float = 1.0
    security_weight: Optional[float] = None

    def place(self, netlist: Netlist,
              technology: Technology = HCMOS9_LIKE,
              floorplan: Optional[Floorplan] = None) -> Placement:
        from .floorplan import flat_floorplan

        rng = random.Random(self.seed)
        cells = cells_from_netlist(netlist, technology)
        plan = floorplan if floorplan is not None else flat_floorplan(
            cells, utilization=self.utilization
        )
        # The flat flow ignores block fences entirely.
        plan = Floorplan(die=plan.die, regions={})
        initial_placement(cells, plan, rng=rng, ordered=False)
        schedule = self.schedule.scaled(self.effort)
        if self.security_weight is not None:
            schedule = replace(schedule, security_weight=self.security_weight)
        _optimize(netlist, cells, plan, rng, schedule, technology)
        return Placement(cells=cells, floorplan=plan)


@dataclass
class HierarchicalPlacer:
    """The proposed flow: per-block fences and structured placement (AES_v1)."""

    seed: int = 0
    block_utilization: float = 0.78
    channel_margin_um: float = 3.0
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    effort: float = 1.0
    block_order: Optional[Sequence[str]] = None
    security_weight: Optional[float] = None

    def place(self, netlist: Netlist,
              technology: Technology = HCMOS9_LIKE,
              floorplan: Optional[Floorplan] = None) -> Placement:
        from .floorplan import hierarchical_floorplan

        rng = random.Random(self.seed)
        cells = cells_from_netlist(netlist, technology)
        plan = floorplan if floorplan is not None else hierarchical_floorplan(
            cells, block_utilization=self.block_utilization,
            channel_margin_um=self.channel_margin_um,
            block_order=self.block_order,
        )
        initial_placement(cells, plan, rng=rng, ordered=True)
        schedule = self.schedule.scaled(self.effort)
        if self.security_weight is not None:
            schedule = replace(schedule, security_weight=self.security_weight)
        _optimize(netlist, cells, plan, rng, schedule, technology)
        legality = Placement(cells=cells, floorplan=plan).check_legality()
        if legality:
            raise PlacementError("; ".join(legality[:5]))
        return Placement(cells=cells, floorplan=plan)
