"""Tests of the static security DRC: diagnostics, every rule, the gates.

Each rule gets one minimal seeded violation that makes it fire, the clean
reference designs must produce zero error-severity diagnostics, and the
campaign pre-flight is regression-tested against the legacy runtime-error
behaviour it re-expresses statically.
"""

import json

import pytest

from repro.circuits.gates import CellLibrary, GateType, default_library
from repro.circuits.netlist import Netlist
from repro.core.flow import AttackCampaign
from repro.core.selection import AesSboxSelection
from repro.drc import (
    Diagnostic,
    DrcError,
    DrcLocation,
    DrcPass,
    DrcReport,
    Rule,
    RuleRegistry,
    Severity,
    default_registry,
    run_campaign_preflight,
    run_drc,
)
from repro.drc.__main__ import main as drc_main
from repro.pnr.cells import PlacedCell
from repro.pnr.floorplan import Floorplan, Rect, Region
from repro.pnr.placement import Placement, legality_violations
from repro.store.manifest import StoreManifest
from repro.store.schema import StoreError

KEY = [0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
       0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C]


# ------------------------------------------------------------ net helpers
def _clean_netlist() -> Netlist:
    netlist = Netlist("clean")
    netlist.add_input("a")
    netlist.add_instance("g1", "INV", {"A": "a", "Z": "y"})
    netlist.add_output("y")
    return netlist


def _channel_netlist(cap_r0: float = 1.0, cap_r1: float = 1.0) -> Netlist:
    """A symmetric dual-rail channel ``c`` driven by two buffers."""
    netlist = Netlist("chan")
    netlist.add_input("a")
    netlist.add_instance("d0", "BUF", {"A": "a", "Z": "c_r0"})
    netlist.add_instance("d1", "BUF", {"A": "a", "Z": "c_r1"})
    netlist.add_net("c_r0", channel="c", rail=0)
    netlist.add_net("c_r1", channel="c", rail=1)
    netlist.add_output("o0", "c_r0")
    netlist.add_output("o1", "c_r1")
    netlist.set_routing_cap("c_r0", cap_r0)
    netlist.set_routing_cap("c_r1", cap_r1)
    return netlist


def _rules_fired(report: DrcReport):
    return {diag.rule for diag in report.diagnostics}


def _synthetic_source(plaintexts, noise):  # module level: picklable
    raise AssertionError("the pre-flight must never generate traces")


def _grid_campaign(trace_source=_synthetic_source) -> AttackCampaign:
    campaign = AttackCampaign(KEY, mtd_start=50, mtd_step=50)
    campaign.add_design("synth", trace_source=trace_source)
    campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
    return campaign


# ------------------------------------------------------------- diagnostics
class TestDiagnostics:
    def test_severity_parse_and_rank(self):
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.parse("WARNING") is Severity.WARNING
        assert Severity.parse(Severity.INFO) is Severity.INFO
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")

    def test_location_render(self):
        assert DrcLocation("net", "x").render() == "net:x"
        assert DrcLocation("channel", "c", "rail 1").render() == "channel:c[rail 1]"

    def test_report_orders_errors_first_deterministically(self):
        report = DrcReport(subject="t")
        report.add(Diagnostic("ZZZ9", Severity.WARNING, "w",
                              DrcLocation("net", "a")))
        report.add(Diagnostic("AAA1", Severity.ERROR, "e2",
                              DrcLocation("net", "b")))
        report.add(Diagnostic("AAA1", Severity.ERROR, "e1",
                              DrcLocation("net", "a")))
        ordered = report.diagnostics
        assert [d.message for d in ordered] == ["e1", "e2", "w"]
        assert report.has_errors
        assert report.counts() == {"error": 2, "warning": 1, "info": 0}
        assert "2 error(s), 1 warning(s)" in report.summary()

    def test_jsonl_round_trip(self, tmp_path):
        report = DrcReport(subject="round")
        report.rules_checked.extend(["NET001", "SEC002"])
        report.add(Diagnostic("NET001", Severity.ERROR, "boom",
                              DrcLocation("net", "x", "port p"), hint="fix"))
        path = report.write_jsonl(tmp_path / "drc.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "report"
        assert lines[0]["error"] == 1
        assert lines[1]["rule"] == "NET001"
        back = DrcReport.read_jsonl(path)
        assert back.subject == "round"
        assert back.diagnostics == report.diagnostics
        assert sorted(back.rules_checked) == ["NET001", "SEC002"]

    def test_jsonl_rejects_malformed_logs(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            DrcReport.read_jsonl(empty)
        headless = tmp_path / "headless.jsonl"
        headless.write_text(json.dumps({"type": "diagnostic", "rule": "X",
                                        "severity": "error", "message": "m"})
                            + "\n")
        with pytest.raises(ValueError, match="before the report header"):
            DrcReport.read_jsonl(headless)

    def test_drc_error_lists_every_error(self):
        report = DrcReport(subject="t")
        report.add(Diagnostic("NET001", Severity.ERROR, "first",
                              DrcLocation("net", "a")))
        report.add(Diagnostic("NET005", Severity.ERROR, "second",
                              DrcLocation("channel", "c")))
        error = DrcError(report, subject="t")
        assert "2 error(s)" in str(error)
        assert "first" in str(error) and "second" in str(error)
        assert error.report is report


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_default_registry_catalog(self):
        registry = default_registry()
        assert len(registry) >= 10
        expected = {"NET001", "NET002", "NET003", "NET004", "NET005",
                    "NET006", "SEC001", "SEC002", "SEC003", "PLC001",
                    "PLC002", "PLC003", "CAM001", "CAM002", "CAM003",
                    "CAM004"}
        assert expected <= set(registry.rule_ids())
        for rule_id in registry.rule_ids():
            assert rule_id in registry.catalog_table()

    def test_unknown_rule_ids_never_no_op(self):
        registry = default_registry()
        for method in (registry.disable, registry.enable,
                       registry.is_enabled):
            with pytest.raises(KeyError, match="unknown rule"):
                method("NOPE99")
        with pytest.raises(KeyError, match="unknown rule"):
            registry.set_severity("NOPE99", "error")

    def test_disable_and_severity_override(self):
        registry = default_registry()
        netlist = Netlist("t")
        netlist.add_net("dead")  # NET002 warning
        report = run_drc(netlist, registry=registry, layers=("netlist",))
        assert "NET002" in _rules_fired(report)
        registry.set_severity("NET002", "error")
        report = run_drc(netlist, registry=registry, layers=("netlist",))
        assert report.by_rule("NET002")[0].severity is Severity.ERROR
        registry.disable("NET002")
        assert not registry.is_enabled("NET002")
        report = run_drc(netlist, registry=registry, layers=("netlist",))
        assert "NET002" not in _rules_fired(report)
        assert "NET002" not in report.rules_checked

    def test_copy_is_independent(self):
        registry = default_registry()
        clone = registry.copy()
        clone.disable("NET001").set_severity("NET002", "info")
        assert registry.is_enabled("NET001")
        assert registry.effective_severity("NET002") is Severity.WARNING
        assert not clone.is_enabled("NET001")
        assert clone.effective_severity("NET002") is Severity.INFO

    def test_duplicate_and_bad_layer_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError, match="duplicate rule id"):
            registry.register(registry.rule("NET001"))
        with pytest.raises(ValueError, match="unknown layer"):
            Rule("X1", "t", "electrical", Severity.ERROR, lambda ctx: [])

    def test_crashing_rule_becomes_error_diagnostic(self):
        def explode(context):
            raise RuntimeError("kaboom")

        registry = RuleRegistry([Rule("X1", "explodes", "netlist",
                                      Severity.WARNING, explode)])
        report = run_drc(Netlist("t"), registry=registry)
        assert report.has_errors
        assert "kaboom" in report.errors[0].message
        assert report.errors[0].rule == "X1"


# ------------------------------------------------------------ netlist rules
class TestNetlistRules:
    def test_clean_netlist_is_clean(self):
        report = run_drc(_clean_netlist())
        assert len(report.diagnostics) == 0
        assert set(report.rules_checked) >= {"NET001", "SEC001"}

    def test_net001_floating_net(self):
        netlist = Netlist("t")
        netlist.add_instance("g1", "INV", {"A": "x", "Z": "y"})
        report = run_drc(netlist, layers=("netlist",))
        hits = report.by_rule("NET001")
        assert [h.location.name for h in hits] == ["x"]
        assert hits[0].severity is Severity.ERROR

    def test_net001_undriven_output_port(self):
        netlist = Netlist("t")
        netlist.add_output("o")
        report = run_drc(netlist, layers=("netlist",))
        assert any("output port" in h.message
                   for h in report.by_rule("NET001"))

    def test_net002_dangling_net(self):
        netlist = _clean_netlist()
        netlist.add_net("dead")
        report = run_drc(netlist, layers=("netlist",))
        hits = report.by_rule("NET002")
        assert [h.location.name for h in hits] == ["dead"]
        assert hits[0].severity is Severity.WARNING

    def test_net003_combinational_cycle(self):
        netlist = Netlist("t")
        netlist.add_instance("i1", "INV", {"A": "x", "Z": "y"})
        netlist.add_instance("i2", "INV", {"A": "y", "Z": "x"})
        report = run_drc(netlist, layers=("netlist",))
        hits = report.by_rule("NET003")
        assert len(hits) == 1
        assert "i1 -> i2" in hits[0].message or "i2 -> i1" in hits[0].message

    def test_net003_muller_feedback_is_not_a_cycle(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_instance("m1", "MULLER2", {"A": "a", "B": "fb", "Z": "q"})
        netlist.add_instance("b1", "BUF", {"A": "q", "Z": "fb"})
        report = run_drc(netlist, layers=("netlist",))
        assert report.by_rule("NET003") == []

    def test_net004_broken_truth_table(self):
        library = default_library()

        def explode(values, previous):
            raise RuntimeError("no table")

        library.add(GateType(name="BROKEN", inputs=("A",), output="Z",
                             evaluate=explode))
        netlist = Netlist("t", library=library)
        netlist.add_input("a")
        netlist.add_instance("g", "BROKEN", {"A": "a", "Z": "y"})
        report = run_drc(netlist, layers=("netlist",))
        hits = report.by_rule("NET004")
        assert [h.location.name for h in hits] == ["BROKEN"]
        assert "no table" in hits[0].message

    def test_net004_missing_cell(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_instance("g", "INV", {"A": "a", "Z": "y"})
        netlist.library = CellLibrary()  # the cell vanished from the library
        registry = default_registry()
        context_report = run_drc(netlist, registry=registry,
                                 layers=("netlist",))
        hits = context_report.by_rule("NET004")
        assert hits and "missing" in hits[0].message

    def test_net005_channel_rail_defects(self):
        netlist = _channel_netlist()
        netlist.add_net("lone_r0", channel="lone", rail=0)  # single rail
        netlist.add_net("gap_r0", channel="gap", rail=0)
        netlist.add_net("gap_r2", channel="gap", rail=2)  # non-contiguous
        report = run_drc(netlist, layers=("netlist",))
        messages = " | ".join(h.message for h in report.by_rule("NET005"))
        channels = {h.location.name for h in report.by_rule("NET005")}
        assert channels == {"lone", "gap"}
        assert "only 1 rail" in messages
        assert "not contiguous" in messages
        # The healthy channel stays silent.
        assert "channel c" not in messages

    def test_net006_input_port_with_internal_driver(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_instance("g", "INV", {"A": "b", "Z": "a"})
        report = run_drc(netlist, layers=("netlist",))
        hits = report.by_rule("NET006")
        assert [h.location.name for h in hits] == ["a"]
        assert "'g'" in hits[0].message


# ----------------------------------------------------------- security rules
class TestSecurityRules:
    def test_sec001_asymmetric_cones(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_instance("u1", "INV", {"A": "a", "Z": "m"})
        netlist.add_instance("u2", "INV", {"A": "m", "Z": "c_r0"})
        netlist.add_instance("u3", "BUF", {"A": "a", "Z": "c_r1"})
        netlist.add_net("c_r0", channel="c", rail=0)
        netlist.add_net("c_r1", channel="c", rail=1)
        report = run_drc(netlist, layers=("security",))
        hits = report.by_rule("SEC001")
        assert hits and hits[0].location.name == "c"
        assert hits[0].severity is Severity.ERROR

    def test_sec001_symmetric_channel_is_clean(self):
        report = run_drc(_channel_netlist(), layers=("security",))
        assert report.by_rule("SEC001") == []

    def test_sec001_skips_netlist_with_missing_cell(self):
        netlist = _channel_netlist()
        netlist.library = CellLibrary()  # the cells vanished from the library
        report = run_drc(netlist, layers=("netlist", "security"))
        assert report.by_rule("NET004")
        assert report.by_rule("SEC001") == []

    def test_sec001_analysis_crash_is_reported(self, monkeypatch):
        def broken_levels(graph):
            raise RuntimeError("levelizer bug")

        monkeypatch.setattr("repro.drc.checker.compute_levels", broken_levels)
        report = run_drc(_channel_netlist(), layers=("security",))
        hits = report.by_rule("SEC001")
        assert len(hits) == 1
        assert hits[0].severity is Severity.ERROR
        assert "rule implementation crashed" in hits[0].message
        assert "levelizer bug" in hits[0].message

    def test_sec002_dissymmetry_above_bound(self):
        netlist = _channel_netlist(cap_r0=10.0, cap_r1=1.0)
        report = run_drc(netlist, layers=("security",), cap_bound=0.15)
        hits = report.by_rule("SEC002")
        assert hits and hits[0].severity is Severity.WARNING
        assert "d_A" in hits[0].message
        # A generous bound silences the rule without touching the netlist.
        relaxed = run_drc(netlist, layers=("security",), cap_bound=50.0)
        assert relaxed.by_rule("SEC002") == []

    def test_sec003_dummy_load_on_disconnected_net(self):
        netlist = _clean_netlist()
        netlist.add_net("ghost")
        netlist.add_dummy_load("ghost", 4.0)
        report = run_drc(netlist, layers=("security",))
        hits = report.by_rule("SEC003")
        assert [h.location.name for h in hits] == ["ghost"]
        assert hits[0].severity is Severity.ERROR
        # A dummy load on a live net is the hardening pass's normal output.
        netlist2 = _channel_netlist()
        netlist2.add_dummy_load("c_r0", 4.0)
        assert run_drc(netlist2, layers=("security",)).by_rule("SEC003") == []

    def test_sec003_negative_dummy_load(self):
        netlist = _clean_netlist()
        netlist.net("y").dummy_cap_ff = -1.0
        netlist.touch_caps()
        report = run_drc(netlist, layers=("security",))
        assert any("negative" in h.message
                   for h in report.by_rule("SEC003"))


# ---------------------------------------------------------- placement rules
def _placement(cells) -> Placement:
    floorplan = Floorplan(
        die=Rect(0.0, 0.0, 100.0, 100.0),
        regions={"blk": Region(block="blk",
                               rect=Rect(0.0, 0.0, 40.0, 40.0))})
    return Placement(cells={c.name: c for c in cells}, floorplan=floorplan)


class TestPlacementRules:
    def test_plc001_cell_outside_fence(self):
        placement = _placement([
            PlacedCell("ok", 2.0, 2.0, block="blk", x_um=10.0, y_um=10.0),
            PlacedCell("out", 2.0, 2.0, block="blk", x_um=90.0, y_um=90.0),
        ])
        report = run_drc(placement=placement, layers=("placement",))
        hits = report.by_rule("PLC001")
        assert [h.location.name for h in hits] == ["out"]
        assert hits[0].severity is Severity.ERROR

    def test_plc002_overlapping_cells(self):
        placement = _placement([
            PlacedCell("a", 4.0, 4.0, x_um=50.0, y_um=50.0),
            PlacedCell("b", 4.0, 4.0, x_um=52.0, y_um=51.0),
            PlacedCell("far", 4.0, 4.0, x_um=80.0, y_um=20.0),
        ])
        report = run_drc(placement=placement, layers=("placement",))
        hits = report.by_rule("PLC002")
        assert len(hits) == 1
        assert hits[0].severity is Severity.WARNING
        assert "overlaps cell 'b'" in hits[0].message

    def test_plc003_fixed_cell_violations(self):
        placement = _placement([
            PlacedCell("stuck", 2.0, 2.0, block="blk", x_um=90.0, y_um=90.0,
                       fixed=True),
            PlacedCell("f1", 4.0, 4.0, x_um=50.0, y_um=50.0, fixed=True),
            PlacedCell("f2", 4.0, 4.0, x_um=51.0, y_um=50.0, fixed=True),
            PlacedCell("loose", 4.0, 4.0, x_um=51.0, y_um=50.5),
        ])
        report = run_drc(placement=placement, layers=("placement",))
        messages = [h.message for h in report.by_rule("PLC003")]
        assert any("'stuck'" in m and "fence" in m for m in messages)
        assert any("'f1'" in m and "'f2'" in m for m in messages)
        # The movable overlapper is PLC002's business, not PLC003's.
        assert not any("loose" in m for m in messages)

    def test_check_legality_and_drc_share_one_verdict(self):
        """Regression: the placer's strings are the DRC records, verbatim."""
        placement = _placement([
            PlacedCell("in", 2.0, 2.0, block="blk", x_um=5.0, y_um=5.0),
            PlacedCell("out1", 2.0, 2.0, block="blk", x_um=77.7, y_um=3.0),
            PlacedCell("out2", 2.0, 2.0, x_um=105.0, y_um=50.0),
        ])
        legacy = placement.check_legality()
        structured = legality_violations(placement.cells,
                                         placement.floorplan)
        assert legacy == [v.describe() for v in structured]
        assert [v.cell for v in structured] == ["out1", "out2"]
        assert "outside its 'blk' fence" in legacy[0]
        assert "outside its 'die' fence" in legacy[1]
        report = run_drc(placement=placement, layers=("placement",))
        assert ([h.message for h in report.by_rule("PLC001")]
                == sorted(legacy))


# ----------------------------------------------------------- campaign rules
class TestCampaignRules:
    def test_cam001_duplicate_labels(self):
        campaign = _grid_campaign()
        campaign.add_design("synth", trace_source=_synthetic_source)
        campaign.add_noise("n0")
        campaign.add_noise("n0")
        report = run_campaign_preflight(campaign)
        messages = [h.message for h in report.by_rule("CAM001")]
        assert any("design label 'synth'" in m for m in messages)
        assert any("noise label 'n0'" in m for m in messages)

    def test_cam001_true_guess_outside_subset(self):
        campaign = AttackCampaign(KEY, guesses=[0x00, 0x01])
        campaign.add_design("synth", trace_source=_synthetic_source)
        campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
        report = run_campaign_preflight(campaign)
        hits = report.by_rule("CAM001")
        assert hits and f"{KEY[0]:#04x}" in hits[0].message

    def test_cam002_unpicklable_source_under_sharding(self):
        campaign = _grid_campaign(
            trace_source=lambda plaintexts, noise: None)
        report = run_campaign_preflight(campaign, workers=2)
        hits = report.by_rule("CAM002")
        assert hits and hits[0].severity is Severity.ERROR
        assert "does not pickle" in hits[0].message
        # Serial runs never pickle anything.
        assert run_campaign_preflight(campaign).by_rule("CAM002") == []
        # Module-level sources pickle fine.
        assert run_campaign_preflight(_grid_campaign(),
                                      workers=2).by_rule("CAM002") == []

    def test_cam002_unpicklable_noise_factory(self):
        campaign = _grid_campaign()
        campaign.add_noise("gauss", lambda: None)
        report = run_campaign_preflight(campaign, workers=4)
        assert any("noise factory 'gauss'" in h.message
                   for h in report.by_rule("CAM002"))

    def test_cam003_second_order_under_streaming(self):
        campaign = _grid_campaign()
        campaign.add_attack("dpa")
        campaign.add_attack("dpa2")
        report = run_campaign_preflight(campaign, streaming=True,
                                        chunk_size=16)
        hits = report.by_rule("CAM003")
        assert len(hits) == 1
        assert "second-order" in hits[0].message
        # In-memory runs take second-order kernels just fine.
        assert run_campaign_preflight(campaign).by_rule("CAM003") == []

    def test_cam004_store_manifest_mismatches(self, tmp_path):
        campaign = _grid_campaign()
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert run_campaign_preflight(
            campaign, store=fresh).by_rule("CAM004") == []

        wrong_kind = tmp_path / "kind"
        wrong_kind.mkdir()
        StoreManifest(kind="sweep", fingerprint="f",
                      scenario_keys=["noiseless/synth"]).save(wrong_kind)
        report = run_campaign_preflight(campaign, store=wrong_kind)
        assert any("'sweep'" in h.message for h in report.by_rule("CAM004"))

        wrong_keys = tmp_path / "keys"
        wrong_keys.mkdir()
        StoreManifest(kind="campaign", fingerprint="f",
                      scenario_keys=["noiseless/other"]).save(wrong_keys)
        report = run_campaign_preflight(campaign, store=wrong_keys)
        assert any("scenario keys" in h.message
                   for h in report.by_rule("CAM004"))

    def test_cam004_fingerprint_mismatch_with_plaintexts(self, tmp_path):
        campaign = _grid_campaign()
        store = tmp_path / "fp"
        store.mkdir()
        StoreManifest(kind="campaign", fingerprint="stale",
                      scenario_keys=["noiseless/synth"]).save(store)
        plaintexts = [[0] * 16, [1] * 16]
        report = run_campaign_preflight(campaign, store=store,
                                        plaintexts=plaintexts)
        assert any("fingerprint" in h.message
                   for h in report.by_rule("CAM004"))


# ------------------------------------------------- campaign gate regression
class TestCampaignGate:
    def test_run_rejects_unknown_drc_mode(self):
        with pytest.raises(ValueError, match="drc must be"):
            _grid_campaign().run(4, drc="loud")

    def test_gate_raises_before_any_trace_generation(self, tmp_path):
        """drc='error' fires before the trace source is ever called."""
        campaign = _grid_campaign()  # source raises if invoked
        store = tmp_path / "mismatch"
        store.mkdir()
        StoreManifest(kind="sweep", fingerprint="f",
                      scenario_keys=["noiseless/synth"]).save(store)
        with pytest.raises(DrcError) as excinfo:
            campaign.run(4, store=store, drc="error")
        assert "CAM004" in str(excinfo.value)

    def test_legacy_runtime_error_survives_with_drc_off(self, tmp_path):
        """Regression: drc='off' reproduces the old mid-run StoreError."""
        campaign = _grid_campaign()
        store = tmp_path / "mismatch"
        store.mkdir()
        StoreManifest(kind="sweep", fingerprint="f",
                      scenario_keys=["noiseless/synth"]).save(store)
        with pytest.raises(StoreError, match="use a fresh directory"):
            campaign.run(4, store=store, drc="off")

    def test_streaming_second_order_static_vs_runtime(self):
        from repro.core.dpa import DPAError

        def source(plaintexts, noise):
            import numpy as np

            from repro.core.dpa import TraceSet

            rng = np.random.default_rng(0)
            matrix = rng.normal(size=(len(plaintexts), 8))
            return TraceSet.from_matrix(matrix,
                                        [list(p) for p in plaintexts], 1e-9)

        campaign = AttackCampaign(KEY, mtd_start=50, mtd_step=50)
        campaign.add_design("synth", trace_source=source)
        campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
        campaign.add_attack("dpa2")
        with pytest.raises(DrcError) as excinfo:
            campaign.run(8, streaming=True, chunk_size=4, drc="error")
        assert "CAM003" in str(excinfo.value)
        with pytest.raises(DPAError, match="streaming"):
            campaign.run(8, streaming=True, chunk_size=4, drc="off")

    def test_default_warn_mode_logs_and_proceeds(self, caplog):
        import logging

        from repro.core.dpa import DPAError

        campaign = _grid_campaign()
        campaign.add_attack("dpa2")
        with caplog.at_level(logging.WARNING, logger="repro.core.flow"):
            # The gate only warns; the legacy error still lands at runtime
            # (here: the exploding trace source is reached).
            with pytest.raises((AssertionError, DPAError)):
                campaign.run(4, streaming=True, chunk_size=2)
        assert any("CAM003" in record.message
                   for record in caplog.records)

    def test_clean_campaign_runs_under_error_gate(self):
        def source(plaintexts, noise):
            import numpy as np

            from repro.core.dpa import TraceSet

            rng = np.random.default_rng(1)
            matrix = rng.normal(size=(len(plaintexts), 8))
            return TraceSet.from_matrix(matrix,
                                        [list(p) for p in plaintexts], 1e-9)

        campaign = AttackCampaign(KEY, mtd_start=4, mtd_step=4)
        campaign.add_design("synth", trace_source=source)
        campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
        result = campaign.run(8, drc="error")
        assert len(result.rows) == 1


# ------------------------------------------------------------ pipeline pass
class TestDrcPass:
    def test_pass_records_report_and_gates(self):
        from repro.harden.passes import PassContext

        context = PassContext(netlist=_channel_netlist())
        outcome = DrcPass().run(context)
        assert outcome.pass_name == "drc"
        assert outcome.changed is False
        assert len(context.scratch["drc_reports"]) == 1
        # A second execution appends, never overwrites.
        DrcPass(name="drc-post").run(context)
        assert len(context.scratch["drc_reports"]) == 2

    def test_pass_raises_on_errors_when_gating(self):
        from repro.harden.passes import PassContext

        netlist = _clean_netlist()
        netlist.add_net("ghost")
        netlist.add_dummy_load("ghost", 2.0)  # SEC003 error
        context = PassContext(netlist=netlist)
        with pytest.raises(DrcError, match="SEC003"):
            DrcPass().run(context)
        assert DrcPass(fail_on=None).run(context).changed is False
        with pytest.raises(ValueError, match="fail_on"):
            DrcPass(fail_on="everything")

    def test_pass_runs_inside_pipeline(self):
        from repro.harden.passes import ExtractionPass, FlatPlacementPass
        from repro.harden.pipeline import PassPipeline

        pipeline = PassPipeline(
            [FlatPlacementPass(effort=0.2), ExtractionPass(),
             DrcPass(name="drc-gate", fail_on=None)],
            name="drc-flat")
        result = pipeline.run(_channel_netlist())
        names = [record.pass_name for record in result.records]
        assert names[-1] == "drc-gate"
        assert result.records[-1].changed is False


# ----------------------------------------------------------- reference flows
class TestReferenceFlows:
    def test_reference_netlist_and_flows_have_zero_errors(self):
        from repro.asyncaes.netlist_gen import build_aes_netlist
        from repro.pnr.flows import run_flat_flow, run_hierarchical_flow

        netlist = build_aes_netlist(word_width=8, detail=0.25)
        bare = run_drc(netlist)
        assert bare.errors == [], bare.render()
        flat = run_flat_flow(netlist, seed=1, effort=0.15)
        hier = run_hierarchical_flow(netlist, seed=1, effort=0.15)
        for design in (flat, hier):
            report = run_drc(design.netlist, placement=design.placement,
                             subject=design.flow)
            assert report.errors == [], report.render()

    def test_hardened_flow_has_zero_errors(self):
        from repro.asyncaes.netlist_gen import build_aes_netlist
        from repro.harden.pipeline import harden_design

        netlist = build_aes_netlist(word_width=8, detail=0.25)
        result = harden_design(netlist, bound=0.15, seed=1, effort=0.15)
        report = run_drc(result.design.netlist,
                         placement=result.design.placement,
                         subject="hardened")
        assert report.errors == [], report.render()


# -------------------------------------------------------------------- CLI
class TestCli:
    def test_rules_listing(self, capsys):
        assert drc_main(["--rules"]) == 0
        out = capsys.readouterr().out
        assert "NET001" in out and "CAM004" in out

    def test_campaign_target_and_json(self, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        code = drc_main(["campaign", "-q", "--json", str(path)])
        assert code == 0
        back = DrcReport.read_jsonl(path)
        assert back.errors == []
        assert "campaign" in capsys.readouterr().out

    def test_netlist_target_exit_code(self, capsys):
        code = drc_main(["netlist", "-q", "--word-width", "8",
                         "--detail", "0.2"])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out
