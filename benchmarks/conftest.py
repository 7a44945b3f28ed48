"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and writes a
small text report under ``benchmarks/results/`` so the numbers can be compared
against the paper (see EXPERIMENTS.md).  Run with ``pytest benchmarks/
--benchmark-only -s`` to also see the reports on stdout.

Every benchmark — pytest-style and script-style alike — also records a
machine-readable summary via :func:`record_benchmark`, one JSON file per
benchmark under ``benchmarks/results/<name>.json``, so CI can archive a
uniform metrics set across the whole suite.

Importing this module also puts ``tests/`` on ``sys.path``, so benchmarks
that time an engine against its reference oracle import the oracle as
``from oracles.dpa import ...``, exactly as the tests do.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS_DIR) not in sys.path:
    sys.path.append(str(TESTS_DIR))


def record_benchmark(name: str, *,
                     wall_time_s: Optional[float] = None,
                     speedup: Optional[float] = None,
                     assertions: Optional[dict] = None,
                     metrics: Optional[dict] = None) -> Path:
    """Write the uniform JSON record of one benchmark run.

    ``assertions`` documents the pass/fail gates the benchmark enforced
    (name -> bool); ``metrics`` carries free-form numbers (throughputs,
    errors against the paper's values, sizes).  Script benchmarks import
    this directly (``from conftest import record_benchmark`` — the
    benchmarks directory is ``sys.path[0]`` when run as a script);
    pytest benchmarks use it through the same import since conftest is
    importable inside the package directory.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "name": name,
        "wall_time_s": wall_time_s,
        "speedup": speedup,
        "assertions": assertions or {},
        "metrics": metrics or {},
    }
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True,
                               default=float) + "\n")
    return path


@pytest.fixture(scope="session")
def report_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_report(report_dir):
    """Write (and echo) the textual report of one experiment."""

    def _write(name: str, text: str) -> Path:
        path = report_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")
        return path

    return _write
