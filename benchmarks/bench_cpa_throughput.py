"""Throughput benchmark of the CPA engine and the sharded attack campaign.

Measures, on the reference asynchronous AES designs:

* CPA attack throughput — the vectorized 256-guess Pearson pass of
  :func:`repro.core.cpa.cpa_attack` (one centered matmul) against the
  per-guess reference loop (guess evaluations/second, extrapolated from a
  guess subsample);
* attack effectiveness — traces-to-disclosure of single-bit DPA vs CPA on
  the flat (leaking) design; at the full workload the benchmark asserts
  both attacks disclose the key byte and CPA needs at most **half** the
  traces DPA needs.  The default 1580 traces is the smallest budget at
  which DPA discloses on seed 7 (DPA MTD 1580, CPA MTD 540; at 600 traces
  DPA still ranks the key 157th);
* sharded campaign scaling — the same (designs × attacks × noise) grid run
  serially and through the ``fork`` shard pool; the merged tables must be
  identical, and with ``--assert-speedup`` on a machine with >= 4 dedicated
  cores the benchmark asserts a >= 2x wall-clock speedup at 4 workers (the
  assertion is opt-in because shared CI runners and multithreaded BLAS make
  wall-clock gates flaky).

Run with:  PYTHONPATH=src python benchmarks/bench_cpa_throughput.py
           [--traces 1580] [--workers 4] [--assert-speedup]

The report lands in ``benchmarks/results/cpa_throughput.txt``.
"""

import argparse
import os
import time
from pathlib import Path

from conftest import record_benchmark
from repro.asyncaes import AesArchitecture, AesNetlistGenerator, AesPowerTraceGenerator
from repro.core import (
    AesSboxSelection,
    AttackCampaign,
    HammingWeightModel,
    cpa_attack,
    leakage_matrix,
    pearson_statistics,
)
from repro.crypto import random_key
from repro.crypto.keys import PlaintextGenerator
from repro.electrical.noise import GaussianNoise
from repro.pnr import run_flat_flow, run_hierarchical_flow

RESULTS_DIR = Path(__file__).parent / "results"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=1580)
    parser.add_argument("--guesses", type=int, default=256)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--assert-speedup", action="store_true",
                        help="enforce the >= 2x sharding speedup bound "
                             "(needs >= 4 dedicated cores)")
    args = parser.parse_args()
    full_workload = args.traces >= 600 and args.guesses == 256

    key = random_key(16, seed=args.seed)
    architecture = AesArchitecture(word_width=32, detail=0.15)
    print("placing the reference AES designs...")
    flat_netlist = AesNetlistGenerator(architecture, name="aes_cpa_flat").build()
    run_flat_flow(flat_netlist, seed=args.seed, effort=0.8)
    hier_netlist = AesNetlistGenerator(architecture, name="aes_cpa_hier").build()
    run_hierarchical_flow(hier_netlist, seed=args.seed, effort=0.8)

    generator = AesPowerTraceGenerator(flat_netlist, key,
                                       architecture=architecture)
    best_bit = max(range(8), key=lambda j: generator.channel_dissymmetry(
        "bytesub0_to_sr0", 24 + j))
    selection = AesSboxSelection(byte_index=0, bit_index=best_bit)
    plaintexts = PlaintextGenerator(seed=args.seed + 1).batch(args.traces)
    traces = generator.trace_batch(plaintexts)
    matrix = traces.matrix()
    guesses = list(range(args.guesses))

    lines = [f"CPA throughput: {args.traces} traces x {args.guesses} guesses "
             f"x {matrix.shape[1]} samples", ""]

    # ------------------------------------------------- CPA attack throughput
    model = HammingWeightModel(selection)
    start = time.perf_counter()
    cpa_attack(traces, model, guesses=guesses)
    batched_s = time.perf_counter() - start

    hypothesis = leakage_matrix(model, traces.plaintexts(), guesses)
    reference_guesses = min(16, len(guesses))
    start = time.perf_counter()
    for index in range(reference_guesses):
        pearson_statistics(matrix, hypothesis[index:index + 1])
    reference_s = ((time.perf_counter() - start)
                   * len(guesses) / reference_guesses)

    evals_per_s = args.traces * len(guesses) / batched_s
    lines += [
        f"vectorized cpa_attack        : {batched_s:8.3f} s "
        f"({evals_per_s:,.0f} trace-guess evals/s)",
        f"per-guess reference (extrap.): {reference_s:8.3f} s "
        f"(x{reference_s / batched_s:.1f} slower)",
        "",
    ]

    # ------------------------------------------- effectiveness: CPA vs DPA
    campaign = AttackCampaign(key, architecture=architecture,
                              mtd_start=20, mtd_step=20)
    campaign.add_design("AES_v2_flat", flat_netlist)
    campaign.add_design("AES_v1_hier", hier_netlist)
    campaign.add_selection(selection)
    campaign.add_attack("dpa")
    campaign.add_attack("cpa", model="bit")
    campaign.add_noise("noiseless")
    campaign.add_noise("sigma=2e-5",
                       lambda: GaussianNoise(2e-5, seed=args.seed + 2))

    start = time.perf_counter()
    serial = campaign.run(plaintexts=plaintexts)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded = campaign.run(plaintexts=plaintexts, workers=args.workers)
    sharded_s = time.perf_counter() - start

    assert sharded.table() == serial.table(), \
        "sharded campaign diverged from the serial reference"

    dpa_row = serial.row("AES_v2_flat", attack="dpa", noise="noiseless")
    cpa_row = serial.row("AES_v2_flat", attack="cpa-bit", noise="noiseless")
    dpa_mtd, cpa_mtd = dpa_row.disclosure, cpa_row.disclosure
    effectiveness = (f"DPA MTD {dpa_mtd} (rank {dpa_row.rank_of_correct}), "
                     f"CPA MTD {cpa_mtd} (rank {cpa_row.rank_of_correct}) "
                     f"at {args.traces} traces")
    lines += [
        f"flat-design disclosure       : DPA = {dpa_mtd} traces, "
        f"CPA = {cpa_mtd} traces",
        "",
    ]
    if full_workload:
        assert dpa_mtd is not None and cpa_mtd is not None, \
            f"an attack did not disclose the key byte: {effectiveness}"
        assert 2 * cpa_mtd <= dpa_mtd, \
            f"CPA needed more than half of DPA's traces: {effectiveness}"

    # ------------------------------------------------- sharded campaign
    cores = os.cpu_count() or 1
    speedup = serial_s / sharded_s if sharded_s > 0 else float("inf")
    lines += [
        f"campaign grid                : 2 designs x 2 attacks x 2 noise "
        f"levels ({args.traces} traces/scenario)",
        f"serial campaign              : {serial_s:8.3f} s",
        f"sharded campaign ({args.workers} workers): {sharded_s:8.3f} s "
        f"(x{speedup:.2f}, {cores} cores available)",
        "tables identical             : yes",
    ]
    if args.assert_speedup:
        assert cores >= 4 and args.workers >= 4, \
            f"--assert-speedup needs >= 4 cores and >= 4 workers " \
            f"(have {cores} cores, {args.workers} workers)"
        assert speedup >= 2.0, \
            f"sharded campaign speedup x{speedup:.2f} is below the 2x bound"
        lines.append("speedup bound (>= 2x at 4 workers): PASS")
    else:
        lines.append(
            f"speedup bound not asserted (measured x{speedup:.2f}; "
            "run with --assert-speedup on >= 4 dedicated cores to enforce "
            "the >= 2x bound)")

    report = "\n".join(lines)
    print(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "cpa_throughput.txt").write_text(report + "\n")
    record_benchmark(
        "cpa_throughput", wall_time_s=serial_s + sharded_s, speedup=speedup,
        assertions={
            "tables_identical": True,
            "cpa_halves_dpa_budget": (2 * cpa_mtd <= dpa_mtd
                                      if full_workload else None),
            "sharded_speedup_2x": (speedup >= 2.0
                                   if args.assert_speedup else None),
        },
        metrics={"serial_s": serial_s, "sharded_s": sharded_s,
                 "dpa_mtd": dpa_mtd, "cpa_mtd": cpa_mtd})


if __name__ == "__main__":
    main()
