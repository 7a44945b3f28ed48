"""Benchmark of the vectorized annealing placer (repro.pnr.anneal).

Three gates, all on the reference reduced asynchronous AES:

* **vectorized speedup** — the numpy batched engine must place the design
  >= 10x faster than the scalar per-move reference loop
  (``tests/oracles/placer.py``) at the same schedule (best-of-N timing on
  both sides to damp scheduler noise);
* **quality bound** — the vectorized placement's estimated wirelength must
  stay within 1.05x of the scalar reference's at equal move budget;
* **security objective** — placing with ``security_weight > 0`` must enter
  the hardening pipeline with a lower initial max d_A than the HPWL-only
  placement.

Also reports the end-to-end ``flat_pipeline`` wall time (placement +
extraction + criterion) before and after the security weighting.

Run with:  PYTHONPATH=src python benchmarks/bench_placer.py
           [--word-width 8] [--detail 0.1] [--seed 5] [--repeats 3]
           [--min-speedup 10] [--max-quality-ratio 1.05]

Writes its report to ``benchmarks/results/placer.txt``.
"""

import argparse
import time
from pathlib import Path

from conftest import record_benchmark
from oracles.placer import place_flat_reference
from repro.asyncaes import AesArchitecture, AesNetlistGenerator
from repro.core import evaluate_netlist_channels
from repro.harden.pipeline import flat_pipeline
from repro.pnr import FlatPlacer, estimate_routing

RESULTS_DIR = Path(__file__).parent / "results"


def _best_of(repeats, run):
    """(best wall time, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--word-width", type=int, default=8)
    parser.add_argument("--detail", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--effort", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per placer variant")
    parser.add_argument("--security-weight", type=float, default=2.0)
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="required reference/vectorized placement ratio")
    parser.add_argument("--max-quality-ratio", type=float, default=1.05,
                        help="max vectorized/reference wirelength ratio")
    args = parser.parse_args()

    architecture = AesArchitecture(word_width=args.word_width,
                                   detail=args.detail)

    def fresh(name):
        return AesNetlistGenerator(architecture, name=name).build()

    probe = fresh("aes_probe")
    lines = [f"Vectorized placer: AES word_width={args.word_width} "
             f"detail={args.detail} seed={args.seed} effort={args.effort} "
             f"({probe.instance_count} cells)",
             ""]

    # ------------------------------------------------------- speedup gate
    def place(reference):
        """Build outside, time ``place()`` only (the optimizer under test)."""
        netlist = fresh("aes_bench_ref" if reference else "aes_bench_vec")
        start = time.perf_counter()
        if reference:
            placement = place_flat_reference(netlist, seed=args.seed,
                                             effort=args.effort)
        else:
            placement = FlatPlacer(seed=args.seed,
                                   effort=args.effort).place(netlist)
        elapsed = time.perf_counter() - start
        return elapsed, estimate_routing(netlist,
                                         placement).total_wirelength_um()

    ref_runs = [place(True) for _ in range(args.repeats)]
    vec_runs = [place(False) for _ in range(args.repeats)]
    ref_time, ref_wl = min(t for t, _ in ref_runs), ref_runs[0][1]
    vec_time, vec_wl = min(t for t, _ in vec_runs), vec_runs[0][1]
    speedup = ref_time / vec_time
    quality = vec_wl / ref_wl
    lines += [
        f"placement (equal move budget, best of {args.repeats}):",
        f"  scalar reference loop: {ref_time:8.3f} s  "
        f"(wirelength {ref_wl:10.0f} um)",
        f"  vectorized engine:     {vec_time:8.3f} s  "
        f"(wirelength {vec_wl:10.0f} um)",
        f"  speedup: {speedup:.1f}x (required >= {args.min_speedup:.0f}x)",
        f"  quality ratio: {quality:.3f} "
        f"(required <= {args.max_quality_ratio:.2f})",
        "",
    ]

    # ------------------------------------------- security objective gate
    def pipeline_run(security_weight):
        netlist = fresh("aes_bench_sec")
        pipeline = flat_pipeline(effort=args.effort,
                                 security_weight=security_weight)
        pipeline.run(netlist, seed=args.seed)
        return evaluate_netlist_channels(netlist)

    plain_time, plain_report = _best_of(1, lambda: pipeline_run(None))
    sec_time, sec_report = _best_of(
        1, lambda: pipeline_run(args.security_weight))
    lines += [
        f"flat_pipeline end-to-end (placement + extraction + criterion):",
        f"  HPWL-only:              {plain_time:8.3f} s  "
        f"max dA {plain_report.max_dissymmetry:8.4f}  "
        f"mean dA {plain_report.mean_dissymmetry:8.4f}",
        f"  security_weight={args.security_weight:g}:    "
        f"{sec_time:8.3f} s  "
        f"max dA {sec_report.max_dissymmetry:8.4f}  "
        f"mean dA {sec_report.mean_dissymmetry:8.4f}",
        "",
    ]

    report = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "placer.txt").write_text(report + "\n")
    print(report)

    record_benchmark(
        "placer", wall_time_s=ref_time + vec_time, speedup=speedup,
        assertions={
            "speedup_gate": speedup >= args.min_speedup,
            "quality_gate": quality <= args.max_quality_ratio,
            "security_weight_lowers_dA":
                sec_report.max_dissymmetry < plain_report.max_dissymmetry,
        },
        metrics={"quality_ratio": quality,
                 "plain_max_dA": plain_report.max_dissymmetry,
                 "secure_max_dA": sec_report.max_dissymmetry})
    assert speedup >= args.min_speedup, (
        f"vectorized placer speedup {speedup:.1f}x below the "
        f"{args.min_speedup:.0f}x gate")
    assert quality <= args.max_quality_ratio, (
        f"vectorized wirelength ratio {quality:.3f} above the "
        f"{args.max_quality_ratio:.2f} quality bound")
    assert sec_report.max_dissymmetry < plain_report.max_dissymmetry, (
        f"security-weighted placement did not lower the initial max d_A "
        f"({sec_report.max_dissymmetry:.4f} vs "
        f"{plain_report.max_dissymmetry:.4f})")
    print(f"\nOK: {speedup:.1f}x vectorized placement, quality ratio "
          f"{quality:.3f}, security weighting lowers initial max dA "
          f"{plain_report.max_dissymmetry:.3f} -> "
          f"{sec_report.max_dissymmetry:.3f}.")


if __name__ == "__main__":
    main()
