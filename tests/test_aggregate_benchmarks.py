"""Tests of the benchmark-record aggregator (``tools/aggregate_benchmarks.py``)."""

import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import aggregate_benchmarks  # noqa: E402


def _record(results, name, **assertions):
    results.mkdir(exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(
        {"name": name, "assertions": assertions}))


def _main(tmp_path, monkeypatch, expected, *args):
    monkeypatch.setattr(aggregate_benchmarks, "EXPECTED_RECORDS", expected)
    return aggregate_benchmarks.main(
        ["--results", str(tmp_path / "results"),
         "--output", str(tmp_path / "summary.json"), *args])


def test_all_expected_records_present_passes(tmp_path, monkeypatch):
    _record(tmp_path / "results", "alpha", gate=True)
    _record(tmp_path / "results", "beta", gate=None)
    assert _main(tmp_path, monkeypatch, ("alpha", "beta")) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())["summary"]
    assert summary["missing"] == []
    assert summary["assertions_skipped"] == 1


def test_missing_record_is_a_failure(tmp_path, monkeypatch):
    # A benchmark that crashed before record_benchmark leaves no record.
    _record(tmp_path / "results", "alpha", gate=True)
    assert _main(tmp_path, monkeypatch, ("alpha", "crashed")) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())["summary"]
    assert summary["missing"] == ["crashed"]
    assert {"benchmark": "crashed", "gates": ["missing_record"]} \
        in summary["failed"]
    assert _main(tmp_path, monkeypatch, ("alpha", "crashed"),
                 "--allow-failures") == 0


def test_failed_gate_is_a_failure(tmp_path, monkeypatch):
    _record(tmp_path / "results", "alpha", gate=False)
    assert _main(tmp_path, monkeypatch, ()) == 1


def test_expected_records_are_the_ci_benchmarks():
    ci = (TOOLS.parent / ".github" / "workflows" / "ci.yml").read_text()
    ran = {line.split("benchmarks/bench_")[1].split(".py")[0]
           for line in ci.splitlines() if "benchmarks/bench_" in line}
    assert ran == set(aggregate_benchmarks.EXPECTED_RECORDS)
