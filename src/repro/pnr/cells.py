"""Standard-cell geometry for the placement substrate.

Each gate instance of a netlist becomes a :class:`PlacedCell` whose footprint
is derived from the library cell area and the technology's row height.  The
placement engines move these rectangles; the routing estimator and the
parasitic extractor then work from the resulting positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from ..circuits.netlist import Netlist
from ..electrical.technology import HCMOS9_LIKE, Technology


@dataclass
class PlacedCell:
    """One placeable standard cell.

    Positions refer to the cell centre, in microns.  ``block`` carries the
    architectural block of the originating instance so the hierarchical flow
    can fence it.
    """

    name: str
    width_um: float
    height_um: float
    block: str = ""
    x_um: float = 0.0
    y_um: float = 0.0
    fixed: bool = False

    @property
    def area_um2(self) -> float:
        return self.width_um * self.height_um

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x_um, self.y_um)

    def move_to(self, x_um: float, y_um: float) -> None:
        if self.fixed:
            raise ValueError(f"cell {self.name!r} is fixed and cannot move")
        self.x_um = x_um
        self.y_um = y_um


def cell_from_instance(netlist: Netlist, instance_name: str,
                       technology: Technology = HCMOS9_LIKE) -> PlacedCell:
    """Create the placeable cell of one netlist instance."""
    instance = netlist.instance(instance_name)
    cell_type = netlist.library.get(instance.cell)
    height = technology.cell_height_um
    width = max(technology.cell_unit_width_um,
                cell_type.area_um2 / height)
    return PlacedCell(name=instance_name, width_um=width, height_um=height,
                      block=instance.block)


def cells_from_netlist(netlist: Netlist,
                       technology: Technology = HCMOS9_LIKE) -> Dict[str, PlacedCell]:
    """Placeable cells for every instance of the netlist, keyed by name."""
    return {
        instance.name: cell_from_instance(netlist, instance.name, technology)
        for instance in netlist.instances()
    }


def block_areas_um2(cells: Dict[str, PlacedCell]) -> Dict[str, float]:
    """Cell area grouped by architectural block (empty block name = glue)."""
    areas: Dict[str, float] = {}
    for cell in cells.values():
        areas[cell.block] = areas.get(cell.block, 0.0) + cell.area_um2
    return areas


def die_side_for_area(cell_area_um2: float, utilization: float,
                      aspect_ratio: float = 1.0) -> Tuple[float, float]:
    """Width and height of a rectangular die for the requested utilization."""
    if not 0 < utilization <= 1:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    if aspect_ratio <= 0:
        raise ValueError(f"aspect ratio must be > 0, got {aspect_ratio}")
    die_area = cell_area_um2 / utilization
    width = math.sqrt(die_area * aspect_ratio)
    height = die_area / width
    return (width, height)
