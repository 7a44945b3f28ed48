"""Tests of the place-and-route substrate (cells, floorplan, placement,
routing, extraction, flows)."""

import pytest

from repro.asyncaes import AesArchitecture, AesNetlistGenerator
from repro.circuits import build_xor_bank
from repro.core import evaluate_netlist_channels
from repro.electrical import HCMOS9_LIKE
from repro.pnr import (
    ExtractionLookupError,
    FlatPlacer,
    FloorplanError,
    HierarchicalPlacer,
    Rect,
    block_areas_um2,
    cells_from_netlist,
    channel_rail_caps,
    compare_flows,
    die_side_for_area,
    estimate_routing,
    extract_capacitances,
    fanout_factor,
    flat_floorplan,
    hierarchical_floorplan,
    run_flat_flow,
    run_hierarchical_flow,
)


@pytest.fixture(scope="module")
def bank_netlist():
    return build_xor_bank(6, "w").netlist


@pytest.fixture(scope="module")
def bank_cells(bank_netlist):
    return cells_from_netlist(bank_netlist)


class TestCells:
    def test_one_cell_per_instance(self, bank_netlist, bank_cells):
        assert len(bank_cells) == bank_netlist.instance_count

    def test_cell_dimensions_positive(self, bank_cells):
        for cell in bank_cells.values():
            assert cell.width_um > 0 and cell.height_um > 0

    def test_block_areas(self, bank_cells):
        areas = block_areas_um2(bank_cells)
        assert "w_bit0" in areas
        assert all(area > 0 for area in areas.values())

    def test_die_sizing(self):
        width, height = die_side_for_area(1000.0, utilization=0.8, aspect_ratio=2.0)
        assert width * height == pytest.approx(1250.0)
        assert width / height == pytest.approx(2.0)
        with pytest.raises(ValueError):
            die_side_for_area(100.0, utilization=0.0)

    def test_fixed_cell_cannot_move(self, bank_cells):
        cell = next(iter(bank_cells.values()))
        cell.fixed = True
        with pytest.raises(ValueError):
            cell.move_to(1.0, 1.0)
        cell.fixed = False


class TestFloorplan:
    def test_rect_geometry(self):
        rect = Rect(0.0, 0.0, 10.0, 20.0)
        assert rect.area_um2 == pytest.approx(200.0)
        assert rect.contains(5.0, 5.0)
        assert not rect.contains(11.0, 5.0)
        assert rect.clamp(50.0, -3.0) == (10.0, 0.0)
        assert rect.shrunk(1.0).width_um == pytest.approx(8.0)
        with pytest.raises(FloorplanError):
            Rect(0.0, 0.0, -1.0, 5.0)

    def test_flat_floorplan_has_no_regions(self, bank_cells):
        plan = flat_floorplan(bank_cells, utilization=0.8)
        assert not plan.is_hierarchical
        assert plan.die.area_um2 > 0

    def test_hierarchical_floorplan_covers_blocks(self, bank_cells):
        plan = hierarchical_floorplan(bank_cells)
        blocks = {block for block in block_areas_um2(bank_cells) if block}
        assert set(plan.regions) == blocks
        for region in plan.regions.values():
            assert region.rect.x_max <= plan.die.x_max + 1e-6
            assert region.rect.y_max <= plan.die.y_max + 1e-6

    def test_hierarchical_floorplan_needs_blocks(self):
        from repro.circuits import Netlist
        netlist = Netlist("flat_only")
        netlist.add_instance("g", "INV", {"A": "a", "Z": "z"})
        with pytest.raises(FloorplanError):
            hierarchical_floorplan(cells_from_netlist(netlist))

    def test_describe(self, bank_cells):
        plan = hierarchical_floorplan(bank_cells)
        assert "die:" in plan.describe()


class TestPlacement:
    def test_flat_placement_is_legal(self, bank_netlist):
        placement = FlatPlacer(seed=1, effort=0.5).place(bank_netlist)
        assert placement.check_legality() == []
        assert len(placement) == bank_netlist.instance_count

    def test_hierarchical_placement_respects_fences(self, bank_netlist):
        placement = HierarchicalPlacer(seed=1, effort=0.5).place(bank_netlist)
        assert placement.check_legality() == []
        for cell in placement.cells.values():
            region = placement.floorplan.region_for(cell.block)
            if region is not None:
                assert region.rect.contains(cell.x_um, cell.y_um, tolerance=1e-3)

    def test_seeds_give_different_flat_placements(self, bank_netlist):
        p1 = FlatPlacer(seed=1, effort=0.3).place(bank_netlist)
        p2 = FlatPlacer(seed=2, effort=0.3).place(bank_netlist)
        moved = [name for name in p1.cells
                 if p1.position_of(name) != p2.position_of(name)]
        assert moved

    def test_same_seed_is_deterministic(self, bank_netlist):
        p1 = FlatPlacer(seed=5, effort=0.3).place(bank_netlist)
        p2 = FlatPlacer(seed=5, effort=0.3).place(bank_netlist)
        for name in p1.cells:
            assert p1.position_of(name) == p2.position_of(name)


class TestRoutingAndExtraction:
    def test_fanout_factor_monotone(self):
        assert fanout_factor(2) <= fanout_factor(5) <= fanout_factor(20)

    def test_routing_estimate_covers_multi_pin_nets(self, bank_netlist):
        placement = FlatPlacer(seed=3, effort=0.3).place(bank_netlist)
        routing = estimate_routing(bank_netlist, placement)
        assert len(routing.nets) > 0
        assert routing.total_wirelength_um() > 0
        assert all(net.length_um >= net.hpwl_um for net in routing.nets.values())

    def test_extraction_annotates_netlist(self):
        netlist = build_xor_bank(3, "x").netlist
        placement = FlatPlacer(seed=3, effort=0.3).place(netlist)
        report = extract_capacitances(netlist, placement)
        assert len(report) == netlist.net_count
        some_net = next(iter(report.caps_ff))
        assert netlist.net(some_net).routing_cap_ff == pytest.approx(
            report.caps_ff[some_net]
        )
        assert report.max_cap_ff >= HCMOS9_LIKE.via_cap_ff

    def test_cap_of_unknown_net_raises(self):
        """Regression: a routing/annotation net-name mismatch must fail loudly
        instead of reporting a phantom 0.0 fF capacitance (which would
        understate channel dissymmetry and green-light a leaky design)."""
        netlist = build_xor_bank(2, "x").netlist
        placement = FlatPlacer(seed=3, effort=0.3).place(netlist)
        report = extract_capacitances(netlist, placement)
        with pytest.raises(ExtractionLookupError):
            report.cap_of("no_such_net")
        with pytest.raises(KeyError):  # subclass contract for generic callers
            report.cap_of("no_such_net")

    def test_cap_of_default_escape_hatch(self):
        netlist = build_xor_bank(2, "x").netlist
        placement = FlatPlacer(seed=3, effort=0.3).place(netlist)
        report = extract_capacitances(netlist, placement)
        assert report.cap_of("no_such_net", default=0.0) == 0.0
        assert report.cap_of("no_such_net", default=3.5) == 3.5
        some_net = next(iter(report.caps_ff))
        assert report.cap_of(some_net, default=99.0) == report.caps_ff[some_net]

    def test_channel_rail_caps_grouping(self):
        netlist = build_xor_bank(2, "x").netlist
        placement = FlatPlacer(seed=3, effort=0.3).place(netlist)
        extract_capacitances(netlist, placement)
        rails = channel_rail_caps(netlist)
        assert all(len(caps) == 2 for caps in rails.values())


class TestFlows:
    def test_flat_flow_produces_summary(self, bank_netlist):
        design = run_flat_flow(build_xor_bank(4, "f").netlist, seed=1, effort=0.4)
        assert design.flow == "flat"
        assert "cells" in design.summary()
        assert design.area_report().utilization > 0

    def test_hierarchical_flow_and_comparison(self):
        flat_netlist = build_xor_bank(4, "f").netlist
        hier_netlist = build_xor_bank(4, "f").netlist
        flat = run_flat_flow(flat_netlist, seed=1, effort=0.4)
        hier = run_hierarchical_flow(hier_netlist, seed=1, effort=0.4)
        comparison = compare_flows(flat, hier)
        assert comparison["hier_die_area_um2"] > 0
        assert comparison["flat_die_area_um2"] > 0
        # Criterion evaluation runs on both extracted netlists.
        flat_report = evaluate_netlist_channels(flat_netlist)
        hier_report = evaluate_netlist_channels(hier_netlist)
        assert len(flat_report) == len(hier_report) > 0

    def test_hierarchical_flow_costs_area_on_small_aes(self):
        """Table 2: the fenced hierarchical floorplan pays die area."""
        architecture = AesArchitecture(word_width=8, detail=0.05)
        flat = run_flat_flow(
            AesNetlistGenerator(architecture, name="aes_small").build(),
            seed=0, effort=0.5)
        hier = run_hierarchical_flow(
            AesNetlistGenerator(architecture, name="aes_small").build(),
            seed=0, effort=0.5)
        assert compare_flows(flat, hier)["area_overhead"] > 0


class TestIncrementalExtractor:
    """Incremental re-extraction must be exactly a full re-extraction."""

    def _placed_bank(self, seed=3):
        from repro.circuits import build_xor_bank

        netlist = build_xor_bank(6, "inc").netlist
        placement = FlatPlacer(seed=seed, effort=0.3).place(netlist)
        return netlist, placement

    def test_initial_state_matches_full_extraction(self):
        from repro.pnr import IncrementalExtractor

        netlist, placement = self._placed_bank()
        extractor = IncrementalExtractor(netlist, placement)
        reference = extract_capacitances(netlist, placement)
        assert extractor.extraction.caps_ff == reference.caps_ff
        assert extractor.full_extractions == 1

    def test_update_after_moves_equals_full_reextraction(self):
        import random

        from repro.pnr import IncrementalExtractor

        netlist, placement = self._placed_bank()
        extractor = IncrementalExtractor(netlist, placement)
        rng = random.Random(11)
        moved = rng.sample(sorted(placement.cells), 5)
        for name in moved:
            cell = placement.cells[name]
            cell.x_um += rng.uniform(-4.0, 4.0)
            cell.y_um += rng.uniform(-4.0, 4.0)
        touched = extractor.update_cells(moved)
        assert touched  # the moved cells pin some nets
        reference = extract_capacitances(netlist, placement)
        # Exact per-net equality, not approx: untouched nets were never
        # recomputed, touched nets went through the same estimator.
        assert extractor.extraction.caps_ff == reference.caps_ff
        assert extractor.extraction.total_wirelength_um == pytest.approx(
            reference.total_wirelength_um)
        assert extractor.full_extractions == 1
        assert extractor.incremental_updates == 1
        assert extractor.nets_reextracted == len(touched)
        assert extractor.nets_reextracted < len(reference)

    def test_update_nets_names_exactly(self):
        from repro.pnr import IncrementalExtractor

        netlist, placement = self._placed_bank()
        extractor = IncrementalExtractor(netlist, placement)
        net = next(iter(extractor.extraction.caps_ff))
        assert extractor.update_nets([net]) == {net}
        assert extractor.update_nets([]) == set()

    def test_topology_change_forces_full_reextraction(self):
        from repro.pnr import IncrementalExtractor
        from repro.pnr.cells import cell_from_instance

        netlist, placement = self._placed_bank()
        extractor = IncrementalExtractor(netlist, placement)
        assert not extractor.stale
        netlist.add_instance("late_buf", "INV",
                             {"A": netlist.net_names()[0], "Z": "late_out"})
        assert extractor.stale
        placement.cells["late_buf"] = cell_from_instance(netlist, "late_buf")
        touched = extractor.update_cells(["late_buf"])
        assert extractor.full_extractions == 2
        assert "late_out" not in touched or touched  # full refresh covers all
        reference = extract_capacitances(netlist, placement)
        assert extractor.extraction.caps_ff == reference.caps_ff

    def test_incremental_is_faster_than_full(self):
        """Loose smoke bound here; the >=10x gate lives in
        benchmarks/bench_hardening.py on the reference AES design."""
        import time

        from repro.pnr import IncrementalExtractor

        netlist, placement = self._placed_bank()
        extractor = IncrementalExtractor(netlist, placement)
        cell = sorted(placement.cells)[0]
        rounds = 30
        start = time.perf_counter()
        for _ in range(rounds):
            extractor.update_cells([cell])
        incremental = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(rounds):
            estimate_routing(netlist, placement)
            extract_capacitances(netlist, placement)
        full = time.perf_counter() - start
        assert incremental < full

    def test_annotation_bumps_cap_version(self):
        from repro.pnr import IncrementalExtractor

        netlist, placement = self._placed_bank()
        extractor = IncrementalExtractor(netlist, placement)
        version = netlist.cap_version
        cell = sorted(placement.cells)[0]
        placement.cells[cell].x_um += 1.0
        extractor.update_cells([cell])
        assert netlist.cap_version > version
