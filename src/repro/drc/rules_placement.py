"""Placement rules (``PLC``): fences, overlaps, fixed cells.

``PLC001`` shares its implementation with
:meth:`repro.pnr.placement.Placement.check_legality` through
:func:`repro.pnr.placement.legality_violations`, so the placer and the DRC
can never disagree on what "legal" means.  ``PLC002`` reports true-width
cell overlaps; the row legalizer intentionally compresses crowded rows
(scaling cursor advance, not cell widths), so residual overlaps are a
density warning, not an error.

``PLC002`` and ``PLC003`` share one overlap finder, :func:`_overlap_pairs`.
It runs the sweep over ``(x0, name)``-sorted extents in numpy, one pair of
y groups (cells of one exact vertical span) at a time, counts every
overlapping pair and keeps only the pairs a rule lists: the first ten for
``PLC002`` (which prints the rest as one count), all of them for the
fixed cells of ``PLC003``.  A crowded placement has hundreds of thousands
of overlapping pairs (254,739 on the 16-bit hardened AES), so the finder
never builds the full pair list.  The plain Python sweep it replaced is the
reference in ``tests/oracles/drc.py``; the equivalence tests require
identical diagnostics, areas included.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

import numpy as np

from .diagnostics import Severity
from .registry import Finding, Rule, finding

#: Overlap reporting cap: beyond this many pairs, one summary finding.
_MAX_OVERLAP_FINDINGS = 10


def check_fences(context) -> List[Finding]:
    """PLC001 — a cell outside its fence (or the die)."""
    from ..pnr.placement import legality_violations

    placement = context.placement
    violations = legality_violations(placement.cells, placement.floorplan,
                                     tolerance=context.tolerance)
    return [
        finding(violation.describe(), "cell", violation.cell,
                detail=f"fence {violation.fence}",
                hint="re-run legalization, or widen the fence in the "
                     "floorplan")
        for violation in violations
    ]


def _overlap_pairs(cells: Mapping[str, object], tolerance: float,
                   limit: Optional[int] = None
                   ) -> Tuple[List[Tuple[str, str, float]], int]:
    """True-width overlapping cell pairs: the first ``limit`` and the count.

    Returns ``(pairs, total)``: ``pairs`` holds the ``limit`` smallest
    ``(first, second, area)`` triples in name order (all of them when
    ``limit`` is None), ``first < second``; ``total`` counts every pair.

    Cells are swept in ``(x0, name)`` order; cell ``i`` meets the later
    cells up to the first whose ``x0 >= x1_i - tolerance``, and a pair
    overlaps when both its ``dx`` and ``dy`` exceed ``tolerance``.  Here
    the candidates are enumerated with numpy one y group (the cells of one
    exact ``(y0, y1)`` span) at a time, against the group itself and the
    groups starting below its top; the float64 operations are the sweep's,
    so pairs and areas are bit for bit those of the plain sweep kept in
    ``tests/oracles/drc.py``.
    """
    by_name = sorted(cells.values(), key=lambda c: c.name)
    count = len(by_name)
    if count < 2:
        return [], 0
    x = np.array([c.x_um for c in by_name], dtype=float)
    y = np.array([c.y_um for c in by_name], dtype=float)
    half_w = np.array([c.width_um for c in by_name], dtype=float) / 2.0
    half_h = np.array([c.height_um for c in by_name], dtype=float) / 2.0
    x_start = x - half_w
    # Sweep position p holds the cell of name rank order[p].
    order = np.lexsort((np.arange(count), x_start))
    x0, x1 = x_start[order], (x + half_w)[order]
    y0, y1 = (y - half_h)[order], (y + half_h)[order]
    # The sweep's break: cell p meets positions p+1 .. reach[p]-1.
    reach = np.maximum(np.arange(1, count + 1),
                       np.searchsorted(x0, x1 - tolerance, side="left"))

    by_span = np.lexsort((y1, y0))  # stable: positions ascend per group
    span0, span1 = y0[by_span], y1[by_span]
    starts = np.flatnonzero(np.r_[True, (span0[1:] != span0[:-1])
                                  | (span1[1:] != span1[:-1])])
    ends = np.r_[starts[1:], count]
    # Later groups start no lower; one starting at or above a group's top
    # has dy <= 0 with it, so for tolerance >= 0 a group meets only the
    # groups that follow it in ``by_span`` up to its stop.
    stops = (np.r_[starts, count][np.searchsorted(span0[starts],
                                                  span1[starts])]
             if tolerance >= 0 else np.full(starts.size, count))

    def candidates(left, right):
        """Pairs (p, q): p in ``left``, q in sorted ``right``, p < q < reach[p]."""
        low = np.searchsorted(right, left, side="right")
        counts = np.searchsorted(right, reach[left], side="left") - low
        offsets = np.repeat(low - (np.cumsum(counts) - counts), counts)
        return (np.repeat(left, counts),
                right[np.arange(offsets.size) + offsets])

    total = 0
    keys, areas = [], []
    for start, end, stop in zip(starts, ends, stops):
        members = by_span[start:end]
        above = np.sort(by_span[end:stop])
        first, second = zip(candidates(members, members),
                            candidates(members, above),
                            candidates(above, members))
        first, second = np.concatenate(first), np.concatenate(second)
        dx = (np.minimum(x1[first], x1[second])
              - np.maximum(x0[first], x0[second]))
        dy = (np.minimum(y1[first], y1[second])
              - np.maximum(y0[first], y0[second]))
        hit = (dx > tolerance) & (dy > tolerance)
        found = int(np.count_nonzero(hit))
        if not found:
            continue
        total += found
        rank_a, rank_b = order[first[hit]], order[second[hit]]
        key = np.minimum(rank_a, rank_b) * count + np.maximum(rank_a, rank_b)
        area = dx[hit] * dy[hit]
        if limit is not None and found > limit:
            keep = np.argpartition(key, limit - 1)[:limit]
            key, area = key[keep], area[keep]
        keys.append(key)
        areas.append(area)
    if not keys:
        return [], 0
    key = np.concatenate(keys)
    area = np.concatenate(areas)
    ranked = np.argsort(key)[:limit]
    names = [c.name for c in by_name]
    return [(names[k // count], names[k % count], a)
            for k, a in zip(key[ranked].tolist(), area[ranked].tolist())
            ], total


def check_overlaps(context) -> List[Finding]:
    """PLC002 — two cells whose true-width footprints intersect."""
    pairs, total = _overlap_pairs(context.placement.cells, context.tolerance,
                                  limit=_MAX_OVERLAP_FINDINGS)
    hits: List[Finding] = []
    for first, second, area in pairs:
        hits.append(finding(
            f"overlaps cell {second!r} by {area:.2f} um^2",
            "cell", first, detail=f"with {second}",
            hint="rows are over-filled; enlarge the region or reduce "
                 "utilization"))
    if total > _MAX_OVERLAP_FINDINGS:
        hits.append(finding(
            f"{total - _MAX_OVERLAP_FINDINGS} further overlapping "
            f"pair(s) suppressed ({total} total)",
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
    from ..pnr.placement import legality_violations

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
    pairs, _ = _overlap_pairs(fixed, context.tolerance)
    for first, second, area in pairs:
        hits.append(finding(
            f"fixed cells {first!r} and {second!r} overlap by "
            f"{area:.2f} um^2",
            "cell", first, detail=f"with {second}",
            hint="two fixed cells can never be pulled apart; revisit "
                 "the fixed positions"))
    return hits


RULES = (
    Rule("PLC001", "cell outside fence", "placement",
         Severity.ERROR, check_fences,
         "A placed cell lies outside its block fence or the die."),
    Rule("PLC002", "overlapping placements", "placement",
         Severity.WARNING, check_overlaps,
         "Two cells' true-width footprints intersect (over-filled rows)."),
    Rule("PLC003", "fixed-cell violation", "placement",
         Severity.ERROR, check_fixed_cells,
         "A fixed cell outside its fence, or two fixed cells overlapping."),
)
