"""Scalar placer oracle: the per-move pipeline the vectorized engine replaced.

:mod:`repro.pnr.anneal` optimizes placements on numpy arrays with batched
moves.  This module keeps the original dict-backed path verbatim:
incremental HPWL bookkeeping (:class:`_WirelengthModel`), Gauss–Seidel
centre-of-gravity sweeps, the row legalizer, and the one-move-at-a-time
annealing loop.  The equivalence tests and ``benchmarks/bench_placer.py``
(speedup and quality gates) compare the vectorized placer against it through
:func:`place_flat_reference`.
"""

import math
import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.circuits.netlist import Netlist
from repro.electrical.technology import HCMOS9_LIKE
from repro.pnr.cells import PlacedCell, cells_from_netlist
from repro.pnr.floorplan import Floorplan, flat_floorplan
from repro.pnr.placement import (
    AnnealingSchedule,
    Placement,
    initial_placement,
)


class _WirelengthModel:
    """Incremental HPWL bookkeeping over the movable pins of each net."""

    def __init__(self, netlist: Netlist, cells: Mapping[str, PlacedCell], *,
                 fanout_limit: int = 24):
        self.cells = cells
        self.net_pins: Dict[str, List[str]] = {}
        self.cell_nets: Dict[str, List[str]] = {name: [] for name in cells}
        for net in netlist.nets():
            pins = []
            for pin in net.connections():
                if pin.instance in cells:
                    pins.append(pin.instance)
            unique = sorted(set(pins))
            if len(unique) < 2 or len(unique) > fanout_limit:
                continue
            self.net_pins[net.name] = unique
            for cell_name in unique:
                self.cell_nets[cell_name].append(net.name)
        self.lengths: Dict[str, float] = {
            net: self._hpwl(pins) for net, pins in self.net_pins.items()
        }

    def _hpwl(self, pins: Sequence[str]) -> float:
        xs = [self.cells[p].x_um for p in pins]
        ys = [self.cells[p].y_um for p in pins]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def total(self) -> float:
        return sum(self.lengths.values())

    def nets_of(self, cell_name: str) -> List[str]:
        return self.cell_nets.get(cell_name, [])

    def delta_for_move(self, cell_names: Iterable[str]) -> float:
        """Recompute the nets touching the moved cells; return the cost delta."""
        delta = 0.0
        touched: Set[str] = set()
        for cell_name in cell_names:
            touched.update(self.cell_nets.get(cell_name, ()))
        for net in touched:
            new_length = self._hpwl(self.net_pins[net])
            delta += new_length - self.lengths[net]
            self.lengths[net] = new_length
        return delta


def _center_of_gravity_sweeps(model: "_WirelengthModel", cells: Dict[str, PlacedCell],
                              floorplan: Floorplan, rng: random.Random,
                              sweeps: int) -> None:
    """Iteratively move each cell to the centroid of its connected pins.

    This is the cheap analytic optimisation step of the flow (comparable to a
    quadratic placement): it pulls the cells of one bit slice together and
    shortens every net, while the per-cell allowed rectangle keeps
    hierarchical cells inside their fences.
    """
    movable = [name for name, cell in cells.items() if not cell.fixed]
    for _ in range(max(0, sweeps)):
        rng.shuffle(movable)
        for name in movable:
            cell = cells[name]
            nets = model.nets_of(name)
            if not nets:
                continue
            sum_x = 0.0
            sum_y = 0.0
            count = 0
            for net in nets:
                for pin in model.net_pins[net]:
                    if pin == name:
                        continue
                    other = cells[pin]
                    sum_x += other.x_um
                    sum_y += other.y_um
                    count += 1
            if count == 0:
                continue
            rect = floorplan.placement_rect(cell.block)
            target = rect.clamp(sum_x / count, sum_y / count)
            cell.x_um, cell.y_um = target
        model.lengths = {net: model._hpwl(pins) for net, pins in model.net_pins.items()}


def _legalize(cells: Dict[str, PlacedCell], floorplan: Floorplan) -> None:
    """Spread overlapping cells into rows while preserving relative positions.

    Cells are grouped by placement region, snapped to the nearest cell row and
    packed left-to-right in target-x order; when a row overflows its region it
    is compressed proportionally.  The residual displacement this introduces
    is precisely the "no control over the net capacitances" randomness of the
    flat flow — in the hierarchical flow it is bounded by the fence size.
    """
    by_region: Dict[str, List[PlacedCell]] = {}
    for cell in cells.values():
        region = cell.block if floorplan.region_for(cell.block) is not None else ""
        by_region.setdefault(region, []).append(cell)

    for region_key, region_cells in by_region.items():
        rect = (floorplan.regions[region_key].rect if region_key
                and region_key in floorplan.regions else floorplan.die)
        row_height = max(cell.height_um for cell in region_cells)
        row_count = max(1, int(rect.height_um // row_height))
        rows: Dict[int, List[PlacedCell]] = {index: [] for index in range(row_count)}
        for cell in region_cells:
            index = int((cell.y_um - rect.y_um) / row_height)
            index = min(max(index, 0), row_count - 1)
            rows[index].append(cell)
        # Balance badly overloaded rows by spilling cells to neighbours.
        capacity = rect.width_um
        for index in range(row_count):
            rows[index].sort(key=lambda c: c.x_um)
            packed_width = sum(c.width_um for c in rows[index])
            spill_target = index + 1 if index + 1 < row_count else index - 1
            while packed_width > 1.6 * capacity and 0 <= spill_target < row_count \
                    and spill_target != index and rows[index]:
                spilled = rows[index].pop()
                packed_width -= spilled.width_um
                rows[spill_target].append(spilled)
        for index in range(row_count):
            row_cells = sorted(rows[index], key=lambda c: c.x_um)
            if not row_cells:
                continue
            packed_width = sum(c.width_um for c in row_cells)
            scale = min(1.0, (rect.width_um / packed_width) if packed_width > 0 else 1.0)
            y = min(rect.y_um + (index + 0.5) * row_height, rect.y_max)
            # Minimum-displacement packing: keep every cell as close to its
            # target x as the already-placed cells allow, pushing right only
            # when overlaps force it and clamping the tail to the row end.
            cursor = rect.x_um
            for cell in row_cells:
                width = cell.width_um * scale
                target_left = cell.x_um - width / 2.0
                left = max(cursor, min(target_left, rect.x_max - width))
                left = max(left, rect.x_um)
                cell.x_um = min(left + width / 2.0, rect.x_max)
                cell.y_um = y
                cursor = left + width


def _refine_with_annealing_reference(model: _WirelengthModel,
                                     cells: Dict[str, PlacedCell],
                                     floorplan: Floorplan, rng: random.Random,
                                     schedule: AnnealingSchedule) -> None:
    """Scalar per-move annealing loop — the oracle for the vectorized engine."""
    movable = [name for name, cell in cells.items() if not cell.fixed]
    budget = schedule.move_budget(len(movable))
    if not movable or not model.net_pins or not budget:
        return

    total_moves = sum(budget)

    # Calibrate the starting temperature from the cost spread of small moves.
    probe_deltas: List[float] = []
    for _ in range(min(200, total_moves)):
        name = rng.choice(movable)
        cell = cells[name]
        old = (cell.x_um, cell.y_um)
        rect = floorplan.placement_rect(cell.block)
        radius = 0.05 * max(rect.width_um, rect.height_um)
        cell.x_um, cell.y_um = rect.clamp(cell.x_um + rng.uniform(-radius, radius),
                                          cell.y_um + rng.uniform(-radius, radius))
        probe_deltas.append(abs(model.delta_for_move([name])))
        cell.x_um, cell.y_um = old
        model.delta_for_move([name])
    mean_delta = sum(probe_deltas) / len(probe_deltas) if probe_deltas else 1.0
    temperature = max(mean_delta, 1e-9) / max(
        1e-9, -math.log(max(schedule.initial_acceptance, 1e-6))
    )

    steps = len(budget)
    for step, step_moves in enumerate(budget):
        fraction = 1.0 - step / max(steps - 1, 1)
        for _ in range(step_moves):
            name = rng.choice(movable)
            cell = cells[name]
            rect = floorplan.placement_rect(cell.block)
            swap_target: Optional[str] = None
            old_positions = {name: (cell.x_um, cell.y_um)}
            if rng.random() < 0.3:
                candidate = rng.choice(movable)
                if candidate != name:
                    other = cells[candidate]
                    other_rect = floorplan.placement_rect(other.block)
                    if (other_rect.contains(cell.x_um, cell.y_um)
                            and rect.contains(other.x_um, other.y_um)):
                        swap_target = candidate
                        old_positions[candidate] = (other.x_um, other.y_um)
                        cell.x_um, other.x_um = other.x_um, cell.x_um
                        cell.y_um, other.y_um = other.y_um, cell.y_um
            if swap_target is None:
                span = max(rect.width_um, rect.height_um)
                radius = max(span * 0.02, span * 0.25 * fraction)
                cell.x_um, cell.y_um = rect.clamp(
                    cell.x_um + rng.uniform(-radius, radius),
                    cell.y_um + rng.uniform(-radius, radius),
                )

            delta = model.delta_for_move(list(old_positions))
            accept = delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12))
            if not accept:
                for moved_name, (x, y) in old_positions.items():
                    cells[moved_name].x_um = x
                    cells[moved_name].y_um = y
                model.delta_for_move(list(old_positions))
        temperature *= schedule.cooling


def _optimize_reference(netlist: Netlist, cells: Dict[str, PlacedCell],
                        floorplan: Floorplan, rng: random.Random,
                        schedule: AnnealingSchedule) -> float:
    """The scalar (pre-vectorization) optimisation pipeline — the oracle."""
    model = _WirelengthModel(netlist, cells)
    if not model.net_pins:
        _legalize(cells, floorplan)
        return model.total()

    rounds = max(1, schedule.legalize_rounds)
    sweeps_per_round = max(1, schedule.cog_sweeps // rounds)
    for _ in range(rounds):
        _center_of_gravity_sweeps(model, cells, floorplan, rng, sweeps_per_round)
        _legalize(cells, floorplan)
        model.lengths = {net: model._hpwl(pins) for net, pins in model.net_pins.items()}

    _refine_with_annealing_reference(model, cells, floorplan, rng, schedule)

    _legalize(cells, floorplan)
    model.lengths = {net: model._hpwl(pins) for net, pins in model.net_pins.items()}
    return model.total()


def place_flat_reference(netlist: Netlist, *, seed: int = 0,
                         effort: float = 1.0) -> Placement:
    """Place ``netlist`` flat through the scalar pipeline.

    Mirrors ``FlatPlacer(seed=seed, effort=effort).place(netlist)`` step for
    step (the same ``random.Random(seed)`` stream, flat floorplan, shuffled
    initial placement and ``scaled(effort)`` default schedule) with the
    scalar HPWL-only optimizer in place of the vectorized one.
    """
    rng = random.Random(seed)
    cells = cells_from_netlist(netlist, HCMOS9_LIKE)
    plan = flat_floorplan(cells, utilization=0.85)
    plan = Floorplan(die=plan.die, regions={})
    initial_placement(cells, plan, rng=rng, ordered=False)
    schedule = AnnealingSchedule().scaled(effort)
    _optimize_reference(netlist, cells, plan, rng, schedule)
    return Placement(cells=cells, floorplan=plan)
