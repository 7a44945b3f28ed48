"""Throughput benchmark of the compiled/levelized simulation engine.

Measures, on the reference XOR-block stimulus set (a word-wide dual-rail XOR
bank driven with random rail vectors):

* settled-state queries — the scalar per-vector event loop
  (``ReferenceSimulator`` of ``tests/oracles/simulator.py`` + ``settle``)
  vs the levelized vectorized ``simulate_batch`` sweep (stimuli/second);
* the event loop itself — the dict-backed scalar loop vs the compiled
  table-driven :class:`Simulator` on the same stimuli.

Run with:  PYTHONPATH=src python benchmarks/bench_sim_engine.py
           [--width 4] [--stimuli 256]

The script asserts the >= 10x speedup of the batched engine over the scalar
loop at the full workload size, checks value-identity on sampled rows, and
writes its report to ``benchmarks/results/sim_engine.txt``.
"""

import argparse
import random
import time
from pathlib import Path

from conftest import record_benchmark
from oracles.simulator import ReferenceSimulator
from repro.circuits import (
    Logic,
    Simulator,
    build_xor_bank,
    simulate_batch,
)

RESULTS_DIR = Path(__file__).parent / "results"


def _stimulus_set(bank, count: int, seed: int):
    rails = [rail for block in bank.bits
             for rail in (*block.inputs[0].rails, *block.inputs[1].rails)]
    rng = random.Random(seed)
    return [{rail: rng.randint(0, 1) for rail in rails} for _ in range(count)]


def _settle_scalar(sim_class, netlist, stimulus):
    sim = sim_class(netlist)
    for net, value in stimulus.items():
        sim.drive_input(net, Logic(value))
    sim.settle()
    return sim


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=4,
                        help="XOR bank width (bits)")
    parser.add_argument("--stimuli", type=int, default=256)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    bank = build_xor_bank(args.width, "bench")
    netlist = bank.netlist
    stimuli = _stimulus_set(bank, args.stimuli, args.seed)
    lines = [f"Simulation engine: {args.width}-bit XOR bank "
             f"({netlist.instance_count} gates), {args.stimuli} stimuli", ""]

    # ------------------------------------------------- scalar event loop
    t0 = time.perf_counter()
    scalar_sims = [_settle_scalar(ReferenceSimulator, netlist, stimulus)
                   for stimulus in stimuli]
    scalar_time = time.perf_counter() - t0

    # ----------------------------------------------- compiled event loop
    t0 = time.perf_counter()
    compiled_sims = [_settle_scalar(Simulator, netlist, stimulus)
                     for stimulus in stimuli]
    compiled_time = time.perf_counter() - t0

    # -------------------------------------------------- levelized batch
    t0 = time.perf_counter()
    batch = simulate_batch(netlist, stimuli)
    batch_time = time.perf_counter() - t0

    # Value-identity spot checks against both event loops.
    step = max(1, args.stimuli // 16)
    for index in range(0, args.stimuli, step):
        row = batch.row(index)
        for net in netlist.net_names():
            assert row[net] is scalar_sims[index].value(net), \
                f"batch diverged from the scalar loop on {net!r} (row {index})"
            assert row[net] is compiled_sims[index].value(net), \
                f"batch diverged from the event engine on {net!r} (row {index})"

    batch_speedup = scalar_time / batch_time
    event_speedup = scalar_time / compiled_time
    lines += [
        f"scalar event loop : {scalar_time:8.3f} s "
        f"({args.stimuli / scalar_time:10.1f} stimuli/s)",
        f"compiled event loop: {compiled_time:7.3f} s "
        f"({args.stimuli / compiled_time:10.1f} stimuli/s)   x{event_speedup:.1f}",
        f"levelized batch   : {batch_time:8.3f} s "
        f"({args.stimuli / batch_time:10.1f} stimuli/s)   x{batch_speedup:.1f}",
        "",
        f"batched engine vs scalar loop: x{batch_speedup:.1f}",
    ]

    report = "\n".join(lines)
    print(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sim_engine.txt").write_text(report + "\n")

    record_benchmark(
        "sim_engine", wall_time_s=scalar_time + compiled_time + batch_time,
        speedup=batch_speedup,
        assertions={"values_identical": True,
                    "speedup_10x": (batch_speedup >= 10.0
                                    if args.stimuli >= 256 else None)},
        metrics={"scalar_s": scalar_time, "compiled_s": compiled_time,
                 "batch_s": batch_time, "event_speedup": event_speedup})
    if args.stimuli >= 256:
        assert batch_speedup >= 10.0, \
            f"batched engine only x{batch_speedup:.1f} faster (need >= 10x)"
        print("OK: batched simulation engine is >= 10x faster than the "
              "scalar loop")


if __name__ == "__main__":
    main()
