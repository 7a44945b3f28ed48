"""Tests of the project-specific AST lint (``tools/lint_invariants.py``)."""

import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import lint_invariants  # noqa: E402


def _check(source: str, path: str):
    return lint_invariants.check_source(textwrap.dedent(source), path)


class TestCapWrites:
    def test_direct_write_without_touch_fires(self):
        problems = _check(
            """
            def repair(netlist):
                netlist.net("x").dummy_cap_ff = 4.0
            """, "src/repro/harden/passes.py")
        assert len(problems) == 1
        assert "dummy_cap_ff" in problems[0]
        assert "touch_caps" in problems[0]

    def test_bulk_write_with_touch_is_accepted(self):
        problems = _check(
            """
            def extract(netlist, caps):
                for net, cap in caps.items():
                    netlist.net(net).routing_cap_ff = cap
                netlist.touch_caps()
            """, "src/repro/pnr/extraction.py")
        assert problems == []

    def test_touch_in_another_function_does_not_count(self):
        problems = _check(
            """
            def write(netlist):
                netlist.net("x").routing_cap_ff = 1.0

            def touch(netlist):
                netlist.touch_caps()
            """, "src/repro/pnr/extraction.py")
        assert len(problems) == 1
        assert ":3:" in problems[0]

    def test_augmented_write_fires(self):
        problems = _check(
            """
            def bump(net):
                net.dummy_cap_ff += 0.5
            """, "src/repro/electrical/capacitance.py")
        assert len(problems) == 1

    def test_netlist_module_is_allowlisted(self):
        problems = _check(
            """
            def set_routing_cap(self, name, cap):
                self.net(name).routing_cap_ff = cap
            """, "src/repro/circuits/netlist.py")
        assert problems == []

    def test_versioned_api_calls_are_clean(self):
        problems = _check(
            """
            def balance(netlist):
                netlist.add_dummy_load("x", 2.0)
                netlist.set_routing_cap("y", 1.0)
            """, "src/repro/harden/passes.py")
        assert problems == []

    def test_nested_function_scopes_are_independent(self):
        # The inner function writes, the outer one touches: not the same
        # scope, so the write is still a violation.
        problems = _check(
            """
            def outer(netlist):
                def inner():
                    netlist.net("x").dummy_cap_ff = 1.0
                inner()
                netlist.touch_caps()
            """, "src/repro/harden/passes.py")
        assert len(problems) == 1


class TestSpanGates:
    HOT = "src/repro/pnr/anneal.py"

    def test_ungated_span_in_loop_fires(self):
        problems = _check(
            """
            def anneal(telemetry):
                for step in range(1000):
                    with telemetry.span("move"):
                        pass
            """, self.HOT)
        assert len(problems) == 1
        assert ".enabled gate" in problems[0]

    def test_conditional_expression_gate_is_accepted(self):
        problems = _check(
            """
            def anneal(telemetry):
                for step in range(1000):
                    with (telemetry.span("move") if telemetry.enabled
                          else _NO_SPAN):
                        pass
            """, self.HOT)
        assert problems == []

    def test_enclosing_if_gate_is_accepted(self):
        problems = _check(
            """
            def anneal(telemetry):
                while True:
                    if telemetry.enabled:
                        with telemetry.span("move"):
                            pass
            """, self.HOT)
        assert problems == []

    def test_gate_outside_the_loop_does_not_count(self):
        problems = _check(
            """
            def anneal(telemetry):
                if telemetry.enabled:
                    for step in range(1000):
                        with telemetry.span("move"):
                            pass
            """, self.HOT)
        assert len(problems) == 1

    def test_span_outside_loops_needs_no_gate(self):
        problems = _check(
            """
            def anneal(telemetry):
                with telemetry.span("anneal"):
                    for step in range(1000):
                        pass
            """, self.HOT)
        assert problems == []

    def test_cold_modules_are_not_checked(self):
        problems = _check(
            """
            def run(telemetry):
                for item in range(10):
                    with telemetry.span("item"):
                        pass
            """, "src/repro/core/flow.py")
        assert problems == []


class TestGridOwnership:
    def test_multiprocessing_import_fires(self):
        problems = _check(
            """
            import multiprocessing
            from multiprocessing.pool import Pool
            """, "src/repro/core/flow.py")
        assert len(problems) == 2
        assert all("multiprocessing imported" in p for p in problems)

    def test_store_open_fires(self):
        problems = _check(
            """
            def run(path):
                return CampaignStore.open(path, kind="sweep",
                                          scenario_keys=[], fingerprint="")
            """, "src/repro/pnr/sweep.py")
        assert len(problems) == 1
        assert "CampaignStore.open called" in problems[0]

    @pytest.mark.parametrize("path", ["src/repro/store/grid.py",
                                      "src/repro/serve/scheduler.py"])
    def test_grid_owners_are_allowed(self, path):
        problems = _check(
            """
            import multiprocessing

            def run(path):
                return CampaignStore.open(path, kind="sweep",
                                          scenario_keys=[], fingerprint="")
            """, path)
        assert problems == []

    def test_other_open_calls_are_clean(self):
        problems = _check(
            """
            from multiprocessing_tools import helper

            def read(path, store):
                with path.open() as handle:
                    return store.open(handle)
            """, "src/repro/store/store.py")
        # Only rule 5 fires, on the made-up third-party package.
        assert len(problems) == 1
        assert "'multiprocessing_tools' imported in the package" in problems[0]


class TestOracleNames:
    def test_reference_names_in_src_fire(self):
        problems = _check(
            """
            def dpa_attack_reference(traces, selection):
                pass

            class ReferenceSimulator:
                pass
            """, "src/repro/core/dpa.py")
        assert len(problems) == 2
        assert all("tests/oracles/" in p for p in problems)

    def test_nested_and_unrelated_names_are_clean(self):
        problems = _check(
            """
            def reference_point():
                def scan_reference():
                    pass

            class Simulator:
                def run_reference(self):
                    pass
            """, "src/repro/core/dpa.py")
        assert problems == []

    def test_oracles_outside_src_are_allowed(self):
        problems = _check(
            """
            def dpa_attack_reference(traces, selection):
                pass
            """, "tests/oracles/dpa.py")
        assert problems == []

    def test_driver_rejects_oracle_in_a_src_tree(self, tmp_path, capsys):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "engine.py").write_text(
            "class ReferenceEngine:\n    pass\n")
        assert lint_invariants.main([str(tmp_path / "src")]) == 1
        assert "ReferenceEngine" in capsys.readouterr().out


class TestPackageImports:
    def test_third_party_import_in_src_fires(self):
        problems = _check(
            """
            import networkx as nx
            from networkx.algorithms import dag
            """, "src/repro/graph/build.py")
        assert len(problems) == 2
        assert all("'networkx'" in p for p in problems)

    def test_stdlib_numpy_package_and_relative_imports_are_clean(self):
        problems = _check(
            """
            from __future__ import annotations
            import collections.abc
            import numpy as np
            from repro.circuits import Netlist
            from ..circuits.netlist import Netlist
            from . import build
            """, "src/repro/graph/levels.py")
        assert problems == []

    def test_third_party_imports_outside_src_are_allowed(self):
        problems = _check("import networkx\n", "tests/oracles/graph.py")
        assert problems == []


class TestDriver:
    def test_real_tree_is_clean(self, capsys):
        # Every rule, rule 5 (stdlib + numpy imports only) included.
        root = TOOLS.parent / "src"
        assert lint_invariants.main([str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violating_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(n):\n    n.dummy_cap_ff = 1.0\n")
        assert lint_invariants.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "1 violation(s)" in out

    def test_syntax_error_is_a_loud_failure(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        with pytest.raises(SyntaxError):
            lint_invariants.main([str(broken)])
