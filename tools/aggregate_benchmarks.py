#!/usr/bin/env python3
"""Aggregate the per-benchmark JSON records into one ``BENCH_summary.json``.

Every benchmark (pytest-style and script-style alike) writes a uniform
record via ``record_benchmark`` — ``benchmarks/results/<name>.json`` with
``wall_time_s``, ``speedup``, the pass/fail ``assertions`` it enforced and
free-form ``metrics``.  This tool folds them into a single summary file so
CI archives one machine-readable artifact per run:

    python tools/aggregate_benchmarks.py [--results benchmarks/results]
                                         [--output BENCH_summary.json]

Exits nonzero when any recorded assertion failed, or when the record of a
benchmark CI runs (:data:`EXPECTED_RECORDS`) is missing — a benchmark
that crashed before ``record_benchmark`` is a failure, not silence
(``--allow-failures`` downgrades both to a warning).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


#: The records CI's benchmark steps write (.github/workflows/ci.yml).
EXPECTED_RECORDS = (
    "engine_throughput",
    "sim_engine",
    "cpa_throughput",
    "tvla_throughput",
    "streaming_rss",
    "hardening",
    "placer",
    "campaign_store",
    "telemetry_overhead",
    "serve_scaling",
)


def aggregate(results_dir: Path, expected=()) -> dict:
    """Fold every ``<name>.json`` record under ``results_dir`` into one
    summary dict (benchmarks sorted by name, gate failures tallied; each
    ``expected`` name without a record counts as a failed benchmark)."""
    benchmarks = {}
    failed = []
    assertions_total = 0
    assertions_skipped = 0
    for path in sorted(results_dir.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            print(f"warning: skipping unparseable {path}: {error}",
                  file=sys.stderr)
            continue
        if not isinstance(record, dict) or "name" not in record:
            continue  # not a record_benchmark file (e.g. exported frames)
        name = record["name"]
        assertions = record.get("assertions") or {}
        assertions_total += len(assertions)
        # None marks a gate the benchmark did not enforce on this workload
        # (e.g. a smoke run below the gated size): skipped, not failed.
        assertions_skipped += sum(1 for passed in assertions.values()
                                  if passed is None)
        bad = sorted(gate for gate, passed in assertions.items()
                     if passed is False)
        if bad:
            failed.append({"benchmark": name, "gates": bad})
        benchmarks[name] = {
            "wall_time_s": record.get("wall_time_s"),
            "speedup": record.get("speedup"),
            "assertions": assertions,
            "metrics": record.get("metrics") or {},
        }
    missing = sorted(set(expected) - set(benchmarks))
    failed.extend({"benchmark": name, "gates": ["missing_record"]}
                  for name in missing)
    return {
        "benchmarks": benchmarks,
        "summary": {
            "benchmark_count": len(benchmarks),
            "assertion_count": assertions_total,
            "assertions_skipped": assertions_skipped,
            "missing": missing,
            "failed": failed,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default="benchmarks/results",
                        help="directory of record_benchmark JSON files")
    parser.add_argument("--output", default="BENCH_summary.json",
                        help="where to write the merged summary")
    parser.add_argument("--allow-failures", action="store_true",
                        help="exit 0 even when recorded gates failed or "
                             "expected records are missing")
    args = parser.parse_args(argv)

    results_dir = Path(args.results)
    if not results_dir.is_dir():
        print(f"error: no results directory at {results_dir}",
              file=sys.stderr)
        return 2
    summary = aggregate(results_dir, EXPECTED_RECORDS)
    output = Path(args.output)
    output.write_text(json.dumps(summary, indent=2, sort_keys=True,
                                 default=float) + "\n")
    counts = summary["summary"]
    print(f"{output}: {counts['benchmark_count']} benchmarks, "
          f"{counts['assertion_count']} recorded gates, "
          f"{len(counts['failed'])} with failures "
          f"({len(counts['missing'])} missing)")
    for failure in counts["failed"]:
        print(f"  FAILED {failure['benchmark']}: "
              f"{', '.join(failure['gates'])}", file=sys.stderr)
    if counts["failed"] and not args.allow_failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
