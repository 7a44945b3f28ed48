"""The worker half of the campaign service: the forked child's main loop.

A worker is forked from the scheduler *after* every campaign / sweep was
registered, so it holds its own copy-on-write image of the target objects
and only ever receives tiny messages: a :class:`~repro.serve.jobs.RunSpec`
per run (from which it rebuilds the identical scenario plan via
:meth:`~repro.core.flow.AttackCampaign._plan_run`, cross-checked by grid
fingerprint) and job descriptors from the shared queue.  Large results —
trace chunk matrices, result frame columns — go back through the worker's
:class:`~repro.serve.shm.ShmRing`; everything else is a small envelope on
the result queue.

A daemon heartbeat thread beats on the same result queue the shard
telemetry snapshots ride, carrying the job the worker is currently
executing; the scheduler uses beat age to tell a slow worker from a hung
one.  :class:`FaultInjection` provides the deterministic failure seams the
worker-death tests drive (self-SIGKILL / hang after the nth claim, muted
heartbeats) — they apply to generation-0 workers only, so a respawned
replacement never re-triggers its predecessor's fault.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from queue import Empty
from typing import Dict, Tuple

from ..store import open_store
from ..store.grid import recorded, single_blas_thread
from .jobs import (
    ATTACK_STREAM,
    BEAT,
    CLAIM,
    DONE,
    ERROR,
    ChunkJob,
    FramePayload,
    RunSpec,
    ScenarioJob,
    SweepJob,
)


@dataclass(frozen=True)
class FaultInjection:
    """Deterministic failure seams for the worker-death tests.

    ``kill_after_claims[w] == n`` makes worker ``w`` SIGKILL itself right
    after claiming its ``n``-th job (mid-scenario from the scheduler's
    point of view); ``hang_after_claims[w] == n`` makes it claim and then
    sleep forever instead; ``mute_heartbeats`` suppresses a worker's
    heartbeat thread entirely.  All seams apply to the first incarnation
    (generation 0) of a worker id only.
    """

    kill_after_claims: Dict[int, int] = field(default_factory=dict)
    hang_after_claims: Dict[int, int] = field(default_factory=dict)
    mute_heartbeats: Tuple[int, ...] = ()


#: Arrays below this ride the result queue inline: pickling a few hundred
#: bytes is cheaper than a slot round-trip, and small arrays must never
#: occupy the (few, large) ring slots a payload's big arrays need.
_SHM_MIN_BYTES = 4096


def _pack_array(ring, array) -> tuple:
    """Ship an array over the ring, inline when small or oversized."""
    if array.nbytes < _SHM_MIN_BYTES:
        return ("inline", array)
    payload = ring.place(array)
    if payload is None:
        return ("inline", array)
    return ("shm", payload)


def _pack_tables(ring, tables: dict) -> dict:
    """Decompose frames into per-column payloads, one dict per table.

    All of a scenario's tables travel in **one** result envelope, and the
    scheduler only releases slots after processing the whole envelope — so
    a payload that needs more slots than the ring owns would deadlock the
    worker mid-pack.  When the shm-worthy arrays of the payload exceed the
    ring, everything goes inline instead (counted, so the benchmark sees
    it).
    """

    def frame_arrays(frame):
        nullable = [spec.name for spec in frame.schema.columns
                    if spec.nullable]
        return ({name: frame.column(name) for name in frame.column_names()},
                {name: frame.null_mask(name) for name in nullable})

    decomposed = {name: frame_arrays(frame) for name, frame in tables.items()}
    large = sum(1 for columns, masks in decomposed.values()
                for array in [*columns.values(), *masks.values()]
                if array.nbytes >= _SHM_MIN_BYTES)
    pack = _pack_array if large <= ring.slots else \
        (lambda _ring, array: ("inline", array))
    return {name: FramePayload(
                kind=tables[name].kind,
                columns={column: pack(ring, array)
                         for column, array in columns.items()},
                null_masks={column: pack(ring, array)
                            for column, array in masks.items()})
            for name, (columns, masks) in decomposed.items()}


class _WorkerRuntime:
    """Per-process state of one worker incarnation."""

    def __init__(self, worker_id: int, generation: int, targets: dict,
                 job_queue, result_queue, ctrl_queue, ring, config,
                 fault: FaultInjection):
        self.worker_id = worker_id
        self.generation = generation
        self.targets = targets
        self.job_queue = job_queue
        self.result_queue = result_queue
        self.ctrl_queue = ctrl_queue
        self.ring = ring
        self.config = config
        self.fault = fault if generation == 0 else FaultInjection()
        self.ref = (worker_id, generation)
        self.plans: Dict[int, dict] = {}
        self.claims = 0
        self.current_job = [None]
        self._stop = threading.Event()
        self._parent = os.getppid()

    # ------------------------------------------------------------ heartbeat
    def start_heartbeat(self) -> None:
        if self.worker_id in self.fault.mute_heartbeats:
            return
        thread = threading.Thread(target=self._heartbeat_loop, daemon=True)
        thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval_s):
            self.result_queue.put((BEAT, self.ref, self.current_job[0],
                                   time.monotonic()))

    # ----------------------------------------------------------------- plans
    def _plan_for(self, run_id: int) -> dict:
        """The cached run plan, reading specs off the ctrl queue as needed.

        The scheduler broadcasts every run's spec to every worker before it
        enqueues the run's jobs, so a bounded wait here means the spec was
        lost — surfaced as an error rather than a silent hang.
        """
        while run_id not in self.plans:
            try:
                spec = self.ctrl_queue.get(timeout=30.0)
            except Empty:
                raise RuntimeError(
                    f"worker {self.worker_id} never received the spec of "
                    f"run {run_id}") from None
            self.plans[spec.run_id] = self._build_plan(spec)
        return self.plans[run_id]

    def _build_plan(self, spec: RunSpec) -> dict:
        target = self.targets[spec.name]
        if spec.kind == "campaign":
            plaintexts = [list(block) for block in spec.plaintexts]
            scenarios, options = target._plan_run(
                plaintexts, spec.seed,
                compute_disclosure=spec.compute_disclosure,
                keep_results=False, streaming=spec.streaming,
                chunk_size=spec.chunk_size)
            fingerprint = target._grid_fingerprint(
                target._scenario_keys(scenarios), plaintexts, spec.seed,
                options)
            plan = dict(spec=spec, target=target, scenarios=scenarios,
                        options=options, plaintexts=plaintexts)
        else:
            points = target.points()
            design = target.netlist_factory().name
            fingerprint = target._grid_fingerprint(points, design)
            plan = dict(spec=spec, target=target, points=points)
        if fingerprint != spec.fingerprint:
            raise RuntimeError(
                f"grid fingerprint mismatch on {spec.name!r}: the "
                "registered object changed after the service started — "
                "restart the service after reconfiguring a grid")
        return plan

    # ------------------------------------------------------------------ jobs
    def execute(self, job) -> dict:
        plan = self._plan_for(job.run_id)
        if isinstance(job, ChunkJob):
            return self._execute_chunk(job, plan)
        if isinstance(job, ScenarioJob):
            return self._execute_scenario(job, plan)
        if isinstance(job, SweepJob):
            return self._execute_sweep_point(job, plan)
        raise RuntimeError(f"unknown job type {type(job).__name__}")

    def _execute_chunk(self, job: ChunkJob, plan: dict) -> dict:
        target = plan["target"]
        scenario = plan["scenarios"][job.scenario]
        if job.stream == ATTACK_STREAM:
            stream_plaintexts = plan["plaintexts"]
        else:
            stream_plaintexts = plan["options"]["tvla_schedule"][0]
        matrix, dt, t0 = target._stream_chunk(
            scenario, stream_plaintexts, job.start, job.stop,
            noise_base=job.noise_base)
        return {"matrix": _pack_array(self.ring, matrix),
                "dt": dt, "t0": t0}

    def _execute_scenario(self, job: ScenarioJob, plan: dict) -> dict:
        spec = plan["spec"]
        target = plan["target"]
        scenario = plan["scenarios"][job.scenario]
        parts, tree = recorded(
            lambda: target._run_scenario(scenario, plan["plaintexts"],
                                         **plan["options"]),
            record=spec.record_telemetry)
        tables = target._grid_layout.frames(parts)
        if job.shard_key is not None:
            # Spill the shard straight from the worker — the npz frames are
            # durable before the scheduler commits them to the manifest.
            record = open_store(spec.store).write_shard_tables(job.shard_key,
                                                               tables)
            return {"record": record, "telemetry": tree}
        return {"tables": _pack_tables(self.ring, tables), "telemetry": tree}

    def _execute_sweep_point(self, job: SweepJob, plan: dict) -> dict:
        point = plan["points"][job.point]
        row, tree = recorded(lambda: plan["target"]._run_point(point),
                             record=plan["spec"].record_telemetry)
        return {"row": row, "telemetry": tree}

    # ------------------------------------------------------------------ loop
    def loop(self) -> None:
        self.start_heartbeat()
        try:
            while True:
                try:
                    job = self.job_queue.get(timeout=1.0)
                except Empty:
                    if os.getppid() != self._parent:
                        break  # orphaned: the scheduler process is gone
                    continue
                if job is None:
                    break
                self.claims += 1
                self.current_job[0] = job.job_id
                self.result_queue.put((CLAIM, self.ref, job.job_id,
                                       time.monotonic()))
                if self.fault.kill_after_claims.get(self.worker_id) \
                        == self.claims:
                    os.kill(os.getpid(), signal.SIGKILL)
                if self.fault.hang_after_claims.get(self.worker_id) \
                        == self.claims:
                    while True:  # pragma: no cover - killed by scheduler
                        time.sleep(3600)
                try:
                    payload = self.execute(job)
                except Exception as error:
                    self.result_queue.put(
                        (ERROR, self.ref, job.job_id,
                         f"{type(error).__name__}: {error}"))
                else:
                    self.result_queue.put((DONE, self.ref, job.job_id,
                                           payload))
                self.current_job[0] = None
        finally:
            self._stop.set()


def worker_main(worker_id: int, generation: int, targets: dict, job_queue,
                result_queue, ctrl_queue, ring, config,
                fault: FaultInjection) -> None:
    """Entry point of a forked pool worker."""
    runtime = _WorkerRuntime(worker_id, generation, targets, job_queue,
                             result_queue, ctrl_queue, ring, config, fault)
    # One BLAS thread, as in every fan_out grid: service frames then equal
    # serial ones bit for bit, and N workers do not oversubscribe the cores.
    with single_blas_thread():
        runtime.loop()
