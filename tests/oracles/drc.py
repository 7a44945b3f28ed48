"""Placement-rule oracle: the pure-Python overlap sweep ``PLC002`` replaced.

:func:`repro.drc.rules_placement._overlap_pairs` enumerates overlapping cell
pairs with numpy, per pair of y groups, and keeps only the pairs a rule
reports.  This module keeps the original sweep verbatim
(:func:`overlap_pairs`: every pair as a list, one Python loop over sorted
extents) and the ``PLC002``/``PLC003`` checks built on it, so the
equivalence tests can compare diagnostic lists rule for rule through
:func:`placement_registry`.
"""

import dataclasses
from typing import List, Tuple

from repro.drc import rules_placement
from repro.drc.registry import Finding, RuleRegistry, finding

#: Overlap reporting cap: beyond this many pairs, one summary finding.
_MAX_OVERLAP_FINDINGS = 10


def overlap_pairs(placement, tolerance: float) -> List[Tuple[str, str, float]]:
    """True-width overlapping cell pairs via a sweep over sorted extents."""
    cells = sorted(placement.cells.values(), key=lambda c: c.name)
    spans = []
    for cell in cells:
        half_w = cell.width_um / 2.0
        half_h = cell.height_um / 2.0
        spans.append((cell.x_um - half_w, cell.x_um + half_w,
                      cell.y_um - half_h, cell.y_um + half_h, cell.name))
    spans.sort(key=lambda s: (s[0], s[4]))
    pairs: List[Tuple[str, str, float]] = []
    for index, (x0, x1, y0, y1, name) in enumerate(spans):
        for other in spans[index + 1:]:
            if other[0] >= x1 - tolerance:
                break
            dx = min(x1, other[1]) - max(x0, other[0])
            dy = min(y1, other[3]) - max(y0, other[2])
            if dx > tolerance and dy > tolerance:
                first, second = sorted((name, other[4]))
                pairs.append((first, second, dx * dy))
    pairs.sort()
    return pairs


def check_overlaps(context) -> List[Finding]:
    """PLC002 — two cells whose true-width footprints intersect."""
    pairs = overlap_pairs(context.placement, context.tolerance)
    hits: List[Finding] = []
    for first, second, area in pairs[:_MAX_OVERLAP_FINDINGS]:
        hits.append(finding(
            f"overlaps cell {second!r} by {area:.2f} um^2",
            "cell", first, detail=f"with {second}",
            hint="rows are over-filled; enlarge the region or reduce "
                 "utilization"))
    if len(pairs) > _MAX_OVERLAP_FINDINGS:
        hits.append(finding(
            f"{len(pairs) - _MAX_OVERLAP_FINDINGS} further overlapping "
            f"pair(s) suppressed ({len(pairs)} total)",
            "design", "placement",
            hint="fix the densest region first; the pair list is "
                 "deterministic, re-run after each fix"))
    return hits


def check_fixed_cells(context) -> List[Finding]:
    """PLC003 — fixed-cell violations.

    A fixed cell outside its fence can never be repaired by the annealer
    (it refuses to move fixed cells), and two fixed cells overlapping can
    never be legalized at all — both are hard errors, unlike the movable
    overlaps of ``PLC002``.
    """
    from repro.pnr.placement import legality_violations

    placement = context.placement
    fixed = {name: cell for name, cell in placement.cells.items()
             if cell.fixed}
    if not fixed:
        return []
    hits: List[Finding] = []
    for violation in legality_violations(fixed, placement.floorplan,
                                         tolerance=context.tolerance):
        hits.append(finding(
            f"fixed {violation.describe()}",
            "cell", violation.cell, detail=f"fence {violation.fence}",
            hint="a fixed cell can never be legalized by the annealer; "
                 "move it inside the fence or unfix it"))

    class _FixedView:
        cells = fixed

    for first, second, area in overlap_pairs(_FixedView, context.tolerance):
        hits.append(finding(
            f"fixed cells {first!r} and {second!r} overlap by "
            f"{area:.2f} um^2",
            "cell", first, detail=f"with {second}",
            hint="two fixed cells can never be pulled apart; revisit "
                 "the fixed positions"))
    return hits


def placement_registry() -> RuleRegistry:
    """The placement rules with ``PLC002``/``PLC003`` on the sweep."""
    checks = {"PLC002": check_overlaps, "PLC003": check_fixed_cells}
    return RuleRegistry(
        dataclasses.replace(rule, check=checks.get(rule.id, rule.check))
        for rule in rules_placement.RULES)
