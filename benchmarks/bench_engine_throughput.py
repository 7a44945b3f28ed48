"""Throughput benchmark of the batched trace/attack engine vs the reference
per-trace, per-guess paths.

Measures, on an end-to-end key-recovery workload (default: 1000 traces, 256
key guesses):

* trace generation  — ``AesPowerTraceGenerator.trace`` in a Python loop vs
  ``trace_batch`` (traces/second);
* the DPA attack    — ``dpa_attack_reference`` of ``tests/oracles/dpa.py``
  (one partition + two set averages per guess) vs the vectorized
  multi-guess ``dpa_attack`` (full attacks/second and guess
  evaluations/second);
* messages-to-disclosure — full re-attack per prefix size vs the
  incremental cumulative-sum sweep.

Run with:  PYTHONPATH=src python benchmarks/bench_engine_throughput.py
           [--traces 1000] [--guesses 256]

The script asserts the >= 10x end-to-end speedup of the engine when run at
the full workload size and writes its report to
``benchmarks/results/engine_throughput.txt``.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from conftest import record_benchmark
from oracles.dpa import dpa_attack_reference
from repro.asyncaes import AesArchitecture, AesNetlistGenerator, AesPowerTraceGenerator
from repro.core import (
    AesSboxSelection,
    TraceSet,
    dpa_attack,
    messages_to_disclosure,
)
from repro.crypto import random_key
from repro.crypto.keys import PlaintextGenerator

RESULTS_DIR = Path(__file__).parent / "results"


def _mtd_reference(traces, selection, correct, *, start, step):
    """The former O(N^2 * m) sweep: one full re-attack per prefix size."""
    count = start
    while count <= len(traces):
        attack = dpa_attack_reference(traces.subset(count), selection)
        if attack.rank_of(correct) == 1:
            return count
        count += step
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=1000)
    parser.add_argument("--guesses", type=int, default=256)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--skip-mtd", action="store_true",
                        help="skip the messages-to-disclosure comparison")
    args = parser.parse_args()

    key = random_key(16, seed=args.seed)
    architecture = AesArchitecture(word_width=8, detail=0.05)
    netlist = AesNetlistGenerator(architecture, name="aes_throughput").build()
    # Unbalance the S-box output channel so the attack has a leak to chase.
    target = architecture.channel("bytesub0_to_sr0").rail_net(0, 1)
    netlist.set_routing_cap(target, netlist.net(target).routing_cap_ff + 40.0)
    generator = AesPowerTraceGenerator(netlist, key, architecture=architecture)
    plaintexts = PlaintextGenerator(seed=args.seed + 1).batch(args.traces)
    selection = AesSboxSelection(byte_index=3, bit_index=0)
    guesses = list(range(args.guesses))

    lines = [f"Engine throughput: {args.traces} traces x {args.guesses} guesses", ""]

    # ------------------------------------------------------ trace generation
    t0 = time.perf_counter()
    per_trace = TraceSet()
    for plaintext in plaintexts:
        per_trace.add(generator.trace(plaintext), plaintext)
    old_gen = time.perf_counter() - t0

    t0 = time.perf_counter()
    traces = generator.trace_batch(plaintexts)
    new_gen = time.perf_counter() - t0

    assert np.allclose(per_trace.matrix(), traces.matrix()), \
        "batched traces diverged from the per-trace reference"
    gen_speedup = old_gen / new_gen
    lines += [
        f"trace generation  per-trace : {old_gen:8.3f} s "
        f"({args.traces / old_gen:10.1f} traces/s)",
        f"trace generation  batched   : {new_gen:8.3f} s "
        f"({args.traces / new_gen:10.1f} traces/s)   x{gen_speedup:.1f}",
    ]

    # --------------------------------------------------------------- attack
    traces.matrix()  # both paths start from an aligned matrix
    t0 = time.perf_counter()
    reference = dpa_attack_reference(traces, selection, guesses=guesses)
    old_attack = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = dpa_attack(traces, selection, guesses=guesses)
    new_attack = time.perf_counter() - t0

    assert np.allclose([r.peak for r in batched.results],
                       [r.peak for r in reference.results]), \
        "batched attack diverged from the per-guess reference"
    attack_speedup = old_attack / new_attack
    lines += [
        f"{args.guesses}-guess attack  per-guess : {old_attack:8.3f} s "
        f"({1 / old_attack:10.2f} attacks/s, "
        f"{len(guesses) / old_attack:8.1f} guess-evals/s)",
        f"{args.guesses}-guess attack  batched   : {new_attack:8.3f} s "
        f"({1 / new_attack:10.2f} attacks/s, "
        f"{len(guesses) / new_attack:8.1f} guess-evals/s)   x{attack_speedup:.1f}",
    ]

    # ------------------------------------------------ messages to disclosure
    if not args.skip_mtd:
        step = max(args.traces // 8, 1)
        t0 = time.perf_counter()
        old_mtd = _mtd_reference(traces, selection, key[3], start=step, step=step)
        old_mtd_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        new_mtd = messages_to_disclosure(traces, selection, key[3],
                                         start=step, step=step)
        new_mtd_time = time.perf_counter() - t0
        assert old_mtd == new_mtd, "incremental disclosure sweep diverged"
        lines += [
            f"disclosure sweep  re-attack : {old_mtd_time:8.3f} s (MTD = {old_mtd})",
            f"disclosure sweep  cumulative: {new_mtd_time:8.3f} s (MTD = {new_mtd})"
            f"   x{old_mtd_time / new_mtd_time:.1f}",
        ]

    old_total = old_gen + old_attack
    new_total = new_gen + new_attack
    total_speedup = old_total / new_total
    lines += ["", f"end-to-end key recovery: {old_total:.3f} s -> {new_total:.3f} s "
                  f"(x{total_speedup:.1f})"]

    report = "\n".join(lines)
    print(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "engine_throughput.txt").write_text(report + "\n")

    full_workload = args.traces >= 1000 and args.guesses >= 256
    record_benchmark(
        "engine_throughput", wall_time_s=old_total + new_total,
        speedup=total_speedup,
        assertions={"speedup_10x": (total_speedup >= 10.0
                                    if full_workload else None)},
        metrics={"generation_speedup": gen_speedup,
                 "attack_speedup": attack_speedup})
    if full_workload:
        assert total_speedup >= 10.0, \
            f"batched engine only x{total_speedup:.1f} faster (need >= 10x)"
        print("OK: batched engine is >= 10x faster end to end")


if __name__ == "__main__":
    main()
