"""Paper-pipeline benchmark: place/extract/harden, DRC, attack, store.

Run from the root of a checkout::

    python3 perfbench/run.py --workload attack-inmem --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``attack-inmem``,
``stream-pool`` and ``design-flow``.  A run builds the workload's netlists
and runs its timed pipeline again and again until ``--seconds`` have
passed, and reports medians over the iterations.  Every iteration checks
its outputs; the simulated statistics (d_A, MTDs, TVLA peaks, sweep
wirelengths, DRC finding counts) must also repeat exactly between
iterations of one seed.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced iterations (a
:class:`repro.obs.Telemetry` passed to the campaign and installed for the
flows, DRC and sweep) and reports the per-layer metrics, the tracing
overhead included.  The BLAS thread pool is left as the environment sets
it.

The last line of standard output is one JSON object: ``correct``,
``attempted``/``failed`` (correctness checks over all iterations) and
``metrics``.  A record of the run, and for traced runs the run-report tree
and the per-layer table, are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "traces_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "asyncaes.netlist_build_s": "s",
    "asyncaes.trace_batch_s": "s",
    "asyncaes.traces_per_s": "1/s",
    "core.generate_s": "s",
    "core.attack_s": "s",
    "core.disclosure_s": "s",
    "assess.tvla_s": "s",
    "assess.stream_s": "s",
    "serve.worker_busy_ratio": "ratio",
    "store.write_shard_s": "s",
    "store.merge_s": "s",
    "store.finalize_s": "s",
    "store.load_s": "s",
    "store.query_s": "s",
    "store.bytes": "bytes",
    "rss.parent_mib": "MiB",
    "rss.worker_mib": "MiB",
    "pnr.flat_s": "s",
    "pnr.hier_s": "s",
    "pnr.anneal_refine_s": "s",
    "pnr.anneal_moves": "count",
    "pnr.sweep_s": "s",
    "pnr.sweep_points_per_s": "1/s",
    "harden.pipeline_s": "s",
    "harden.repair_iterations": "count",
    "harden.nets_reextracted": "count",
    "harden.pass.place-flat_s": "s",
    "harden.pass.extract_s": "s",
    "harden.pass.repair-fence-resize_s": "s",
    "harden.pass.repair-reposition_s": "s",
    "harden.pass.repair-dummy-load_s": "s",
    "drc.netlist_s": "s",
    "drc.security_s": "s",
    "drc.placement_s": "s",
    "drc.preflight_s": "s",
    "drc.findings": "count",
    "dA.flat.max": "ratio",
    "dA.flat.mean": "ratio",
    "dA.hier.max": "ratio",
    "dA.hier.mean": "ratio",
    "dA.hardened.max": "ratio",
    "dA.hardened.mean": "ratio",
    "tvla.flat.gaussian": "t",
    "tvla.hardened.gaussian": "t",
    "obs.tracing_overhead": "ratio",
    "error_rate": "ratio",
}

#: Layers every workload runs; a workload adds its own in ``layers_run``.
#: Each must report a non-zero value in a traced run.
COMMON_LAYERS = (
    "asyncaes.netlist_build_s", "asyncaes.trace_batch_s",
    "asyncaes.traces_per_s", "serve.worker_busy_ratio", "rss.parent_mib",
    "pnr.flat_s", "pnr.hier_s", "pnr.anneal_refine_s", "pnr.anneal_moves",
    "harden.pipeline_s", "harden.pass.place-flat_s", "harden.pass.extract_s",
    "drc.preflight_s",
)

#: Interpreter-import samples per run; their median is part of ``setup_s``.
IMPORT_PROBES = 3
IMPORT_PROBE = (
    "import sys, time\n"
    f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
    "start = time.perf_counter()\n"
    "import workloads\n"
    "print(time.perf_counter() - start)\n"
)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("attack-inmem", "stream-pool", "design-flow"))
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the plaintexts and noise draws")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run iterations until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def import_seconds() -> list:
    """Wall time of the benchmark's imports in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=60, check=True)
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mib() -> tuple:
    """(this process, largest reaped child) peak RSS in MiB."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return parent, children


def span_layers(root, workers: int) -> dict:
    """Per-layer figures of one traced iteration's span tree."""

    def seconds(name):
        return sum(node.duration_s for node in root.find(name))

    campaign = root.find("campaign")[0]
    return {
        "core.generate_s": seconds("campaign.generate"),
        "core.attack_s": seconds("campaign.attack"),
        "assess.tvla_s": seconds("campaign.assess"),
        "assess.stream_s": seconds("campaign.stream"),
        "serve.worker_busy_ratio": (seconds("campaign.scenario")
                                    / (workers * campaign.duration_s)),
        "store.write_shard_s": seconds("store.write_shard"),
        "store.merge_s": seconds("store.merge"),
        "store.finalize_s": seconds("store.finalize"),
        "pnr.anneal_refine_s": seconds("anneal.refine"),
        "pnr.anneal_moves": root.total("moves_proposed"),
        "campaign_traces": campaign.total("traces"),
    }


def median_of(values):
    return statistics.median(values) if values else 0.0


class Run:
    """The iterations of one benchmark run and what they add up to."""

    def __init__(self, workload, args, workdir: Path):
        self.workload = workload
        self.args = args
        self.workdir = workdir
        self.builds = []
        self.outcomes = []
        self.traced = []
        self.trees = []
        self.netlists = None

    def iterate(self) -> None:
        from repro.obs import NULL_TELEMETRY, Telemetry, use

        deadline = time.perf_counter() + self.args.seconds
        while True:
            # Traced runs alternate untraced and traced iterations after a
            # first, untraced one that also warms the process up.
            traced = bool(self.args.trace) and len(self.outcomes) % 2 == 1
            start = time.perf_counter()
            self.netlists = self.workload.build()
            self.builds.append(time.perf_counter() - start)
            telemetry = Telemetry(self.workload.name) if traced else NULL_TELEMETRY
            with use(telemetry):
                outcome = self.workload.run(self.netlists, self.args.seed,
                                            self.workdir)
            self.outcomes.append(outcome)
            self.traced.append(traced)
            if traced:
                self.trees.append(telemetry.snapshot())
            print(f"iteration {len(self.outcomes)}{' traced' if traced else ''}: "
                  f"pipeline {outcome.pipeline_s:.3f} s, campaign "
                  f"{outcome.campaign_s:.3f} s, {outcome.traces} traces, "
                  f"build {self.builds[-1]:.3f} s, failed checks "
                  f"{sorted(k for k, ok in outcome.checks.items() if not ok)}",
                  flush=True)
            enough = not self.args.trace or len(self.outcomes) >= 3
            if enough and time.perf_counter() >= deadline:
                return

    def checks(self) -> dict:
        """Every check of every iteration, plus the cross-iteration ones."""
        checks = {}
        for index, outcome in enumerate(self.outcomes):
            for name, ok in outcome.checks.items():
                checks[f"{index}.{name}"] = bool(ok)
            checks[f"{index}.stats_repeat"] = (outcome.stats
                                               == self.outcomes[0].stats)
        return checks

    def end_to_end(self, import_s, rss) -> dict:
        return {
            "pipeline_s": median_of([o.pipeline_s for o in self.outcomes]),
            "setup_s": median_of(import_s) + median_of(self.builds),
            "traces_per_s": median_of([o.traces / o.campaign_s
                                       for o in self.outcomes]),
            "peak_rss_mib": max(rss),
        }

    def per_layer(self, rss) -> tuple:
        """(per-layer metrics, extra checks) of a traced run."""
        workload = self.workload
        traced = [o for o, t in zip(self.outcomes, self.traced) if t]
        untraced = [o for o, t in zip(self.outcomes[1:], self.traced[1:])
                    if not t]
        samples = {}
        checks = {}
        for index, (outcome, tree) in enumerate(zip(traced, self.trees)):
            layers = dict(outcome.layers)
            layers.update(span_layers(tree, workload.workers))
            checks[f"traced{index}.traces_counted"] = (
                layers.pop("campaign_traces") == outcome.traces)
            for name, value in outcome.stats.items():
                if name in PER_LAYER:
                    layers[name] = value
            for name, value in layers.items():
                samples.setdefault(name, []).append(value)
        metrics = {name: median_of(samples.get(name, [])) for name in PER_LAYER}

        metrics["asyncaes.netlist_build_s"] = median_of(self.builds)
        batch_s = median_of([workload.trace_batch(self.netlists, self.args.seed)
                             for _ in range(3)])
        metrics["asyncaes.trace_batch_s"] = batch_s
        metrics["asyncaes.traces_per_s"] = workload.trace_count / batch_s
        metrics["core.disclosure_s"] = self.disclosure_seconds()
        metrics["rss.parent_mib"] = rss[0]
        metrics["rss.worker_mib"] = rss[1] if workload.workers > 1 else 0.0
        metrics["obs.tracing_overhead"] = (
            median_of([o.pipeline_s for o in traced])
            / median_of([o.pipeline_s for o in untraced]) - 1.0)
        for name in COMMON_LAYERS + workload.layers_run:
            checks[f"layer_reported.{name}"] = metrics[name] > 0
        return metrics, checks

    def disclosure_seconds(self) -> float:
        """Campaign time with the disclosure sweep minus without it."""
        from repro.obs import NULL_TELEMETRY, use
        from workloads import Outcome

        times = {}
        with use(NULL_TELEMETRY):
            for flag in (True, False):
                outcome = Outcome()
                self.workload.campaign(outcome, self.netlists, self.args.seed,
                                       self.workdir, compute_disclosure=flag)
                times[flag] = outcome.campaign_s
        return times[True] - times[False]


def write_artifacts(run: Run, args, metrics, checks, env, report_text) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "why": run.workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "failed_checks": sorted(name for name, ok in checks.items() if not ok),
        "iterations": [
            {"traced": traced, "build_s": build, "pipeline_s": o.pipeline_s,
             "campaign_s": o.campaign_s, "traces": o.traces,
             "layers": o.layers}
            for o, traced, build in zip(run.outcomes, run.traced, run.builds)
        ],
        "stats": run.outcomes[0].stats if run.outcomes else {},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if report_text:
        stem.with_suffix(".runreport.txt").write_text(report_text + "\n")
        lines = [f"{'metric':<36s} {'value':>16s}  unit"]
        for name, value in metrics.items():
            lines.append(f"{name:<36s} {value:>16.6g}  {PER_LAYER[name]}")
        stem.with_suffix(".layers.txt").write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    from repro.obs import RunReport

    workload = workloads.WORKLOADS[args.workload]()
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, args, workdir)
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} env={json.dumps(env)}",
          flush=True)
    try:
        run.iterate()
        rss = peak_rss_mib()
        checks = run.checks()
        report_text = ""
        if args.trace:
            values, layer_checks = run.per_layer(rss)
            checks.update(layer_checks)
            report_text = RunReport(run.trees[0]).render(max_depth=5)
        else:
            values = run.end_to_end(import_seconds(), rss)
    except Exception:  # noqa: BLE001 - a crashed run is reported, not lost
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not ok for ok in checks.values())
    if args.trace:
        values["error_rate"] = failed / len(checks)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: values[name] for name in units}
    write_artifacts(run, args, metrics, checks, env, report_text)
    for name, value in metrics.items():
        print(f"{name:<36s} {value:>16.6g} {units[name]}")
    for name in sorted(name for name, ok in checks.items() if not ok):
        print(f"FAILED CHECK {name}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
