"""Equivalence of the numpy ``PLC002``/``PLC003`` with the sweep oracle.

:func:`repro.drc.rules_placement._overlap_pairs` must report what the plain
sweep kept in ``tests/oracles/drc.py`` reports: the same diagnostics, in the
same order, with the same ``.2f`` areas and the same summary line.  The
generated placements aim at the sweep's edge cases: equal ``x0``, touching
edges, overlaps of exactly ``tolerance``, zero-width cells, mixed heights,
rows offset from each other, cells off the rows and more pairs than
``PLC002`` lists.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import drc as oracle
from repro.asyncaes import AesArchitecture, AesNetlistGenerator
from repro.drc import run_drc
from repro.drc.rules_placement import _overlap_pairs
from repro.harden import harden_design
from repro.pnr import run_flat_flow, run_hierarchical_flow
from repro.pnr.cells import PlacedCell
from repro.pnr.floorplan import Floorplan, Rect, Region
from repro.pnr.placement import Placement

#: Coordinates on a 0.25 um grid, so edges touch and overlaps of exactly
#: ``tolerance`` occur; 3.7 um is the library's row height.
_STEP = 0.25
_HEIGHTS = (3.7, 3.7, 1.85, 2.0, 0.5, 0.0)
_ROW_OFFSETS = (0.0, 0.0, 0.25, 1.85)


def _placement(cells) -> Placement:
    floorplan = Floorplan(
        die=Rect(0.0, 0.0, 40.0, 40.0),
        regions={"blk": Region(block="blk", rect=Rect(0.0, 0.0, 20.0, 20.0))})
    return Placement(cells={c.name: c for c in cells}, floorplan=floorplan)


@st.composite
def placements(draw):
    """Crowded placements on a coarse grid, with fixed and movable cells;
    most sit on (offset) rows, some anywhere."""
    size = draw(st.integers(0, 40))
    names = draw(st.lists(st.text("abAB_/09", min_size=1, max_size=3),
                          min_size=size, max_size=size, unique=True))
    cells = []
    for name in names:
        on_row = (draw(st.integers(0, 2)) * 3.7 + 1.85
                  + draw(st.sampled_from(_ROW_OFFSETS)))
        off_row = draw(st.integers(0, 45)) * _STEP
        cells.append(PlacedCell(
            name,
            width_um=draw(st.integers(0, 12)) * _STEP,
            height_um=draw(st.sampled_from(_HEIGHTS)),
            block=draw(st.sampled_from(("", "blk"))),
            x_um=draw(st.integers(0, 32)) * _STEP,
            y_um=draw(st.sampled_from((on_row, on_row, on_row, off_row))),
            fixed=draw(st.booleans())))
    return _placement(cells)


def _assert_matches_oracle(placement, tolerance):
    report = run_drc(placement=placement, layers=("placement",),
                     tolerance=tolerance)
    reference = run_drc(placement=placement, layers=("placement",),
                        tolerance=tolerance,
                        registry=oracle.placement_registry())
    assert report.diagnostics == reference.diagnostics
    return report


@settings(max_examples=200, deadline=None)
@given(placements(), st.sampled_from((0.0, 1e-6, _STEP, 2 * _STEP, -_STEP)))
def test_generated_placements_match_the_sweep(placement, tolerance):
    _assert_matches_oracle(placement, tolerance)
    pairs, total = _overlap_pairs(placement.cells, tolerance)
    assert pairs == oracle.overlap_pairs(placement, tolerance)
    assert total == len(pairs)


def test_summary_line_past_the_listing_cap():
    """Twelve cells in one row, each overlapping every other: 66 pairs,
    10 listed, 1 summary.  Names fall as x rises, so the sweep meets the
    pairs it lists last."""
    placement = _placement([PlacedCell(f"c{11 - i:02d}", 4.0, 3.7,
                                       x_um=10.0 + i * _STEP, y_um=10.0,
                                       fixed=i % 2 == 0)
                            for i in range(12)])
    report = _assert_matches_oracle(placement, 1e-6)
    messages = [d.message for d in report.by_rule("PLC002")]
    assert len(messages) == 11
    assert messages[-1] == ("56 further overlapping pair(s) suppressed "
                            "(66 total)")
    # PLC003 lists every fixed pair: 6 fixed cells, 15 pairs.
    assert len(report.by_rule("PLC003")) == 15



@pytest.mark.parametrize("slim, wide, pairs", [("a", "b", 0), ("b", "a", 1)])
def test_the_break_decides_at_the_rounding_edge(slim, wide, pairs):
    """A cell ``tolerance`` wide at x = 2.317 has ``x0 == x1 - tolerance``,
    yet its rounded ``dx`` exceeds ``tolerance``.  A wider cell with the
    same ``x0`` overlaps it only when it comes first in the sweep's
    ``(x0, name)`` order, so the break, not the ``dx`` test, decides."""
    thin = PlacedCell(slim, 1e-6, 3.7, x_um=2.317, y_um=1.85)
    x0 = thin.x_um - thin.width_um / 2.0
    broad = PlacedCell(wide, 2.0, 3.7, x_um=x0 + 1.0, y_um=1.85)
    report = _assert_matches_oracle(_placement([thin, broad]), 1e-6)
    assert len(report.by_rule("PLC002")) == pairs


@pytest.fixture(scope="module")
def reference_flows_8bit():
    """The 8-bit flat, hierarchical and hardened placements of the
    perfbench designs (detail 0.1, placement seed 5, effort 0.3)."""
    architecture = AesArchitecture(word_width=8, detail=0.1)

    def fresh(name):
        return AesNetlistGenerator(architecture, name=name).build()

    flat = run_flat_flow(fresh("aes_flat"), seed=5, effort=0.3)
    hier = run_hierarchical_flow(fresh("aes_hier"), seed=5, effort=0.3)
    hardened = harden_design(fresh("aes_hardened"), base="flat", bound=0.02,
                             seed=5, effort=0.3).design
    return {"flat": flat.placement, "hier": hier.placement,
            "hardened": hardened.placement}


@pytest.mark.parametrize("flow", ["flat", "hier", "hardened"])
def test_reference_flows_match_the_sweep(reference_flows_8bit, flow):
    _assert_matches_oracle(reference_flows_8bit[flow], 1e-6)


def test_design_flow_hardened_16bit_summary_is_pinned():
    """The perfbench ``design-flow`` placement (16-bit, detail 0.1,
    placement seed 5, effort 1.0, bound 0.02): 254,739 overlapping pairs,
    too many for the sweep oracle to check within the suite's budget."""
    architecture = AesArchitecture(word_width=16, detail=0.1)
    netlist = AesNetlistGenerator(architecture, name="aes_hardened").build()
    hardening = harden_design(netlist, base="flat", bound=0.02, seed=5,
                              effort=1.0)
    report = run_drc(placement=hardening.design.placement,
                     layers=("placement",))
    assert report.errors == []
    messages = [d.message for d in report.by_rule("PLC002")]
    assert len(messages) == 11
    assert messages[-1] == ("254729 further overlapping pair(s) suppressed "
                            "(254739 total)")
