"""Equivalence and invariant tests of the vectorized annealing placer.

The numpy engine (:mod:`repro.pnr.anneal`) must agree with the scalar
bookkeeping it replaced: per-net HPWL bit-matches the ``_WirelengthModel``
oracle, batched move deltas match the oracle's recompute up to float
summation order, the incremental extrema caches survive a full refinement
(``consistency_check``), placements stay legal and deterministic, and the
``security_weight`` objective measurably lowers the initial dissymmetry of
the placed flat AES.
"""

import random

import numpy as np
import pytest

from oracles.placer import _WirelengthModel, place_flat_reference
from repro.asyncaes import AesArchitecture, AesNetlistGenerator
from repro.circuits import Netlist, build_xor_bank
from repro.core import evaluate_netlist_channels
from repro.electrical import HCMOS9_LIKE
from repro.pnr import (
    AnnealingSchedule,
    FlatPlacer,
    Floorplan,
    HierarchicalPlacer,
    PlacementError,
    VectorPlacementEngine,
    cells_from_netlist,
    compile_connectivity,
    estimate_routing,
    flat_floorplan,
    initial_placement,
    run_flat_flow,
)


def _random_flat_start(netlist, seed=3):
    cells = cells_from_netlist(netlist, HCMOS9_LIKE)
    plan = flat_floorplan(cells, utilization=0.85)
    plan = Floorplan(die=plan.die, regions={})
    rng = random.Random(seed)
    initial_placement(cells, plan, rng=rng, ordered=False)
    for cell in cells.values():
        cell.x_um += rng.uniform(-5.0, 5.0)
        cell.y_um += rng.uniform(-5.0, 5.0)
    return cells, plan, rng


def _engine(netlist, cells, plan, **schedule_kwargs):
    schedule = AnnealingSchedule(**schedule_kwargs)
    return VectorPlacementEngine(
        netlist, cells, plan, schedule=schedule,
        technology=HCMOS9_LIKE, rng=np.random.default_rng(99))


class TestHpwlOracle:
    """Per-net HPWL of the engine bit-matches the scalar model."""

    def test_per_net_hpwl_bit_matches(self):
        netlist = build_xor_bank(6, "w").netlist
        cells, plan, _ = _random_flat_start(netlist)
        engine = _engine(netlist, cells, plan)
        oracle = _WirelengthModel(netlist, cells)
        conn = engine.conn
        checked = 0
        for i, name in enumerate(conn.net_names):
            if conn.wl_weight[i] <= 0:
                continue
            assert engine.hpwl[i] == oracle.lengths[name], name
            checked += 1
        assert checked == len(oracle.lengths)

    def test_total_wirelength_matches(self):
        netlist = build_xor_bank(6, "w").netlist
        cells, plan, _ = _random_flat_start(netlist)
        engine = _engine(netlist, cells, plan)
        oracle = _WirelengthModel(netlist, cells)
        assert engine.wirelength() == pytest.approx(oracle.total(), rel=1e-12)

    def test_delta_matches_oracle_on_random_moves(self):
        """Batched single-cell deltas equal the oracle's full recompute.

        The engine sums per-net deltas with ``np.bincount`` (sorted net
        order) while the oracle iterates a python set, so the totals agree
        to float summation order, not bit-exactly.
        """
        netlist = build_xor_bank(6, "w").netlist
        cells, plan, rng = _random_flat_start(netlist)
        engine = _engine(netlist, cells, plan)
        oracle = _WirelengthModel(netlist, cells)
        conn = engine.conn
        die = plan.die
        names = list(conn.names)
        for _ in range(120):
            i = rng.randrange(len(names))
            nx = rng.uniform(die.x_um, die.x_max)
            ny = rng.uniform(die.y_um, die.y_max)
            a = np.array([i])
            delta, _, _, _ = engine._evaluate(
                a, np.array([nx]), np.array([ny]),
                np.array([-1]), np.array([engine.x[i]]),
                np.array([engine.y[i]]), 0.0)
            name = names[i]
            cell = cells[name]
            old = (cell.x_um, cell.y_um)
            cell.x_um, cell.y_um = nx, ny
            oracle_delta = oracle.delta_for_move([name])
            cell.x_um, cell.y_um = old
            oracle.delta_for_move([name])  # restore oracle state
            assert delta[0] == pytest.approx(oracle_delta, rel=1e-9, abs=1e-9)

    def test_consistency_after_refine(self):
        netlist = build_xor_bank(6, "w").netlist
        cells, plan, _ = _random_flat_start(netlist)
        engine = _engine(netlist, cells, plan, moves_per_cell=30.0)
        engine.cog_sweeps(6)
        engine.legalize()
        engine.refine()
        engine.consistency_check()
        assert engine.moves_committed > 0

    def test_consistency_after_refine_with_security(self):
        netlist = build_xor_bank(6, "w").netlist
        cells, plan, _ = _random_flat_start(netlist)
        engine = _engine(netlist, cells, plan, moves_per_cell=30.0,
                         security_weight=0.5)
        assert engine.security is not None
        engine.cog_sweeps(6)
        engine.legalize()
        engine.refine()
        engine.consistency_check()


class TestConnectivityCompilation:
    def test_cache_keyed_on_topology_version(self):
        netlist = build_xor_bank(3, "w").netlist
        cells = cells_from_netlist(netlist, HCMOS9_LIKE)
        conn1 = compile_connectivity(netlist, cells)
        conn2 = compile_connectivity(netlist, cells)
        assert conn1 is conn2
        netlist.add_instance("late", "INV",
                             {"A": netlist.net_names()[0], "Z": "late_out"})
        cells = cells_from_netlist(netlist, HCMOS9_LIKE)
        conn3 = compile_connectivity(netlist, cells)
        assert conn3 is not conn1

    def test_csr_round_trip(self):
        netlist = build_xor_bank(4, "w").netlist
        cells = cells_from_netlist(netlist, HCMOS9_LIKE)
        conn = compile_connectivity(netlist, cells)
        # Forward and reverse CSR describe the same bipartite graph.
        forward = {(int(conn.net_owner[k]), int(conn.net_cells[k]))
                   for k in range(conn.net_cells.size)}
        reverse = set()
        for cell_id in range(conn.n_cells):
            for k in range(conn.cell_net_ptr[cell_id],
                           conn.cell_net_ptr[cell_id + 1]):
                reverse.add((int(conn.cell_nets[k]), cell_id))
        assert forward == reverse


class TestPlacerInvariants:
    def test_flat_placement_legal_and_deterministic(self):
        netlist = build_xor_bank(6, "w").netlist
        p1 = FlatPlacer(seed=4, effort=0.5).place(netlist)
        p2 = FlatPlacer(seed=4, effort=0.5).place(netlist)
        assert p1.check_legality() == []
        for name in p1.cells:
            assert p1.position_of(name) == p2.position_of(name)

    def test_hierarchical_placement_legal_and_deterministic(self):
        netlist = build_xor_bank(6, "w").netlist
        p1 = HierarchicalPlacer(seed=4, effort=0.5).place(netlist)
        p2 = HierarchicalPlacer(seed=4, effort=0.5).place(netlist)
        assert p1.check_legality() == []
        for name in p1.cells:
            assert p1.position_of(name) == p2.position_of(name)

    def test_security_weighted_placement_stays_legal(self):
        netlist = build_xor_bank(6, "w").netlist
        placement = FlatPlacer(seed=4, effort=0.5,
                               security_weight=0.5).place(netlist)
        assert placement.check_legality() == []

    def test_netlist_without_nets_is_legalized_by_the_engine(self):
        """No multi-pin net: the placer skips optimization and only runs
        the engine's row legalizer, which must still give a legal,
        deterministic placement."""
        netlist = Netlist("loose_inverters")
        for index in range(40):
            netlist.add_instance(f"u{index:02d}", "INV",
                                 {"A": f"a{index:02d}", "Z": f"z{index:02d}"})
        cells = cells_from_netlist(netlist, HCMOS9_LIKE)
        assert compile_connectivity(netlist, cells).n_nets == 0
        p1 = FlatPlacer(seed=4, effort=0.5).place(netlist)
        p2 = FlatPlacer(seed=4, effort=0.5).place(netlist)
        assert p1.check_legality() == []
        for name in p1.cells:
            assert p1.position_of(name) == p2.position_of(name)


class TestAesScaleQualityAndSecurity:
    """AES-scale statements: quality bound and the security objective."""

    @pytest.fixture(scope="class")
    def aes_architecture(self):
        return AesArchitecture(word_width=8, detail=0.1)

    def _netlist(self, architecture):
        return AesNetlistGenerator(architecture, name="aes_placer").build()

    def test_quality_bound_vs_reference(self, aes_architecture):
        """Vectorized HPWL <= 1.05x the scalar reference at equal budget."""
        ref_netlist = self._netlist(aes_architecture)
        ref_placement = place_flat_reference(ref_netlist, seed=5, effort=0.5)
        ref_wl = estimate_routing(
            ref_netlist, ref_placement).total_wirelength_um()

        vec_netlist = self._netlist(aes_architecture)
        vec_placement = FlatPlacer(seed=5, effort=0.5).place(vec_netlist)
        vec_wl = estimate_routing(
            vec_netlist, vec_placement).total_wirelength_um()

        assert vec_wl <= 1.05 * ref_wl

    def test_security_weight_lowers_initial_dissymmetry(self, aes_architecture):
        """security_weight > 0 strictly lowers the placed flat AES's
        initial max d_A versus the HPWL-only placement."""
        plain = self._netlist(aes_architecture)
        run_flat_flow(plain, seed=5)
        plain_report = evaluate_netlist_channels(plain)

        secured = self._netlist(aes_architecture)
        run_flat_flow(secured, seed=5, security_weight=2.0)
        secured_report = evaluate_netlist_channels(secured)

        assert (secured_report.max_dissymmetry
                < plain_report.max_dissymmetry)
        assert (secured_report.mean_dissymmetry
                < plain_report.mean_dissymmetry)


class TestScheduleSatellites:
    """Satellite regressions: effort linearity and error messages."""

    def test_move_budget_scales_linearly_with_effort(self):
        schedule = AnnealingSchedule(moves_per_cell=15.0)
        totals = {effort: sum(schedule.scaled(effort).move_budget(100))
                  for effort in (0.1, 0.3, 1.0)}
        assert totals[1.0] == 1500
        assert totals[0.1] == pytest.approx(0.1 * totals[1.0], abs=1)
        assert totals[0.3] == pytest.approx(0.3 * totals[1.0], abs=1)

    def test_move_budget_sums_exactly(self):
        schedule = AnnealingSchedule(moves_per_cell=7.3,
                                     temperature_steps=20)
        budget = schedule.move_budget(41)
        assert sum(budget) == round(7.3 * 41)
        assert len(budget) <= 20
        assert max(budget) - min(budget) <= 1

    def test_tiny_budget_shrinks_step_count(self):
        schedule = AnnealingSchedule(moves_per_cell=0.1,
                                     temperature_steps=20)
        budget = schedule.move_budget(30)
        assert sum(budget) == 3
        assert len(budget) == 3  # no padding steps of one move each

    def test_position_of_unknown_cell_raises_placement_error(self):
        netlist = build_xor_bank(2, "w").netlist
        placement = FlatPlacer(seed=0, effort=0.3).place(netlist)
        with pytest.raises(PlacementError, match="no_such_cell"):
            placement.position_of("no_such_cell")

    def test_check_legality_names_cell_and_fence(self):
        netlist = build_xor_bank(2, "w").netlist
        placement = HierarchicalPlacer(seed=0, effort=0.3).place(netlist)
        offender = next(name for name, cell in placement.cells.items()
                        if cell.block)
        placement.cells[offender].x_um = placement.floorplan.die.x_max + 50.0
        problems = placement.check_legality()
        assert problems
        message = problems[0]
        assert offender in message
        # The offending fence rect's extent is spelled out in the message.
        assert "fence [" in message and "] x [" in message
