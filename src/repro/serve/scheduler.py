"""The campaign execution service: persistent pool, async queue, retries.

:class:`CampaignService` is the alternative to the one-shot fork pool of
:func:`repro.store.grid.fan_out` behind ``run(workers=N)``: a pool that
outlives runs.  Targets are :meth:`~CampaignService.register`\\ ed,
:meth:`~CampaignService.start` forks the workers (which inherit every
registered object copy-on-write), and each subsequent run only ships job
descriptors.  Streaming campaign scenarios decompose into **chunk-level**
work units riding the existing streaming chunk pipeline, so the load
balances across uneven scenarios instead of tail-stalling on the slowest
one; trace matrices and result frame columns come back over per-worker
shared-memory rings (:mod:`repro.serve.shm`) instead of pickle.  The
scheduler owns job scheduling only: opening or resuming a run's store,
spilling, merging and finalizing go through the same
:class:`repro.store.grid.GridRun` as the in-process runs.

Determinism is the hard invariant: chunk generation is a pure function of
(scenario, range) — noise draws are pinned to global trace indices — and
every accumulator update happens *here*, in the scheduler, in stream
order (out-of-order arrivals are buffered).  Serial, pooled and
service-scheduled runs therefore produce byte-identical merged store
frames, which ``benchmarks/bench_serve_scaling.py`` gates.

Fault tolerance: workers claim jobs before executing them and heartbeat
on the result channel; a worker with a claim and a stale heartbeat is
killed and its jobs requeued (bounded retries), dead workers are
respawned from a fresh fork (bounded respawns), and when the whole pool
is gone the scheduler degrades to executing the remaining jobs inline —
slower, never wrong.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass
from queue import Empty
from typing import Dict, List, Optional, Set

from ..obs.telemetry import current
from ..store import CampaignFrame, schema_for
from ..store.grid import GridRun
from .jobs import (
    ATTACK_STREAM,
    BEAT,
    CLAIM,
    DONE,
    ERROR,
    TVLA_STREAM,
    ChunkJob,
    FramePayload,
    RunSpec,
    ScenarioJob,
    SweepJob,
)
from .pool import FaultInjection, worker_main
from .shm import ShmRing

logger = logging.getLogger(__name__)


class ServeError(RuntimeError):
    """A service-level failure (scheduling, transport, retry exhaustion)."""


@dataclass
class ServiceConfig:
    """Knobs of the campaign execution service."""

    workers: int = 2
    slot_bytes: int = 8 << 20
    slots_per_worker: int = 4
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float = 5.0
    poll_timeout_s: float = 0.05
    max_retries: int = 2
    max_respawns: int = 2
    join_timeout_s: float = 5.0


@dataclass
class _WorkerHandle:
    """Scheduler-side record of one worker incarnation."""

    worker_id: int
    generation: int
    process: object
    ring: ShmRing
    ctrl: object

    @property
    def ref(self) -> tuple:
        return (self.worker_id, self.generation)


class CampaignService:
    """A persistent worker pool executing campaign and sweep runs.

    Usage::

        service = CampaignService(ServiceConfig(workers=2))
        service.register("aes", campaign)   # before start(): workers fork
        with service:                       # start() .. shutdown()
            result = service.run("aes", trace_count=512, streaming=True,
                                 chunk_size=64)

    Equivalently, pass ``service=service`` to ``campaign.run(...)`` /
    ``sweep.run(...)`` directly.  Results are byte-identical to serial
    runs of the same arguments.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 fault_injection: Optional[FaultInjection] = None):
        self.config = config if config is not None else ServiceConfig()
        if self.config.workers < 1:
            raise ServeError(f"need at least one worker, "
                             f"got {self.config.workers}")
        self._fault = fault_injection if fault_injection is not None \
            else FaultInjection()
        self._targets: Dict[str, object] = {}
        self._workers: Dict[int, Optional[_WorkerHandle]] = {}
        self._rings: Dict[tuple, ShmRing] = {}
        self._last_beat: Dict[int, float] = {}
        self._active_specs: Dict[int, RunSpec] = {}
        self._context = None
        self._job_queue = None
        self._result_queue = None
        self._started = False
        self._run_counter = 0
        self._job_counter = 0
        self._respawns = 0

    # -------------------------------------------------------------- lifecycle
    def register(self, name: str, target: object) -> "CampaignService":
        """Register a campaign or sweep under ``name`` (before ``start``).

        Workers fork from the scheduler at :meth:`start`, inheriting the
        registered objects copy-on-write — that is what lets unpicklable
        netlists, trace sources and noise factories cross the process
        boundary for free, and why registration after start is an error.
        """
        if self._started:
            raise ServeError("register() must happen before start(): "
                             "workers fork the registered objects")
        if name in self._targets:
            raise ServeError(f"duplicate registration {name!r}")
        if not (hasattr(target, "_plan_run") or hasattr(target, "points")):
            raise ServeError(
                f"{type(target).__name__} is not a campaign or sweep")
        self._targets[name] = target
        return self

    def start(self) -> "CampaignService":
        if self._started:
            raise ServeError("service already started")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ServeError("the campaign service needs the fork start "
                             "method; run the campaign serially instead")
        self._context = multiprocessing.get_context("fork")
        self._job_queue = self._context.Queue()
        self._result_queue = self._context.Queue()
        self._started = True
        for worker_id in range(self.config.workers):
            self._spawn_worker(worker_id, 0)
        logger.info("campaign service started: %d workers, %d targets",
                    self.config.workers, len(self._targets))
        return self

    def shutdown(self) -> None:
        if not self._started:
            return
        for handle in self._workers.values():
            if handle is not None and handle.process.is_alive():
                self._job_queue.put(None)
        for handle in self._workers.values():
            if handle is None:
                continue
            handle.process.join(self.config.join_timeout_s)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(self.config.join_timeout_s)
            handle.ctrl.close()
            handle.ctrl.cancel_join_thread()
        for ring in self._rings.values():
            ring.close()
        for queue in (self._job_queue, self._result_queue):
            queue.close()
            queue.cancel_join_thread()
        self._workers.clear()
        self._rings.clear()
        self._started = False
        logger.info("campaign service stopped")

    def __enter__(self) -> "CampaignService":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def worker_pids(self) -> List[int]:
        return [handle.process.pid for handle in self._workers.values()
                if handle is not None]

    # ------------------------------------------------------------------- runs
    def run(self, name: str, **kwargs):
        """Run a registered target through the service (its ``run(...)``
        arguments pass through)."""
        try:
            target = self._targets[name]
        except KeyError:
            raise ServeError(f"no target registered under {name!r}; "
                             f"known: {sorted(self._targets)}") from None
        return target.run(service=self, **kwargs)

    def _require_started(self) -> None:
        if not self._started:
            raise ServeError("service is not running; call start() first "
                             "(or use it as a context manager)")

    def _name_of(self, target: object) -> str:
        for name, registered in self._targets.items():
            if registered is target:
                return name
        raise ServeError(
            "this campaign/sweep is not registered with the service; "
            "register() it before start() so workers fork it")

    def _next_run_id(self) -> int:
        self._run_counter += 1
        return self._run_counter

    def _next_job_id(self) -> int:
        self._job_counter += 1
        return self._job_counter

    @contextmanager
    def _running(self, spec: RunSpec):
        """Broadcast ``spec`` to every worker; it stays active (replayed to
        respawned workers) for the body's lifetime."""
        self._active_specs[spec.run_id] = spec
        for handle in self._workers.values():
            if handle is not None:
                handle.ctrl.put(spec)
        try:
            yield
        finally:
            self._active_specs.pop(spec.run_id, None)

    # ---------------------------------------------------------------- workers
    def _spawn_worker(self, worker_id: int, generation: int) -> _WorkerHandle:
        ring = ShmRing(self._context, slots=self.config.slots_per_worker,
                       slot_bytes=self.config.slot_bytes)
        ctrl = self._context.Queue()
        process = self._context.Process(
            target=worker_main,
            args=(worker_id, generation, self._targets, self._job_queue,
                  self._result_queue, ctrl, ring, self.config, self._fault),
            daemon=True)
        process.start()
        handle = _WorkerHandle(worker_id, generation, process, ring, ctrl)
        self._workers[worker_id] = handle
        self._rings[handle.ref] = ring
        self._last_beat[worker_id] = time.monotonic()
        # A mid-run replacement needs the active specs to build its plans.
        for spec in self._active_specs.values():
            ctrl.put(spec)
        return handle

    def _alive_workers(self) -> List[_WorkerHandle]:
        return [handle for handle in self._workers.values()
                if handle is not None and handle.process.is_alive()]

    def _on_worker_death(self, handle: _WorkerHandle, claimed: dict,
                         jobs: dict, attempts: dict) -> None:
        telemetry = current()
        telemetry.count("serve.workers_lost")
        logger.warning("worker %d (generation %d) died; requeuing its jobs",
                       handle.worker_id, handle.generation)
        self._workers[handle.worker_id] = None
        for job_id, (ref, _t) in list(claimed.items()):
            if ref == handle.ref:
                del claimed[job_id]
                self._requeue(job_id, jobs, attempts)
        if self._respawns < self.config.max_respawns:
            self._respawns += 1
            replacement = self._spawn_worker(handle.worker_id,
                                             handle.generation + 1)
            telemetry.count("serve.workers_respawned")
            logger.info("respawned worker %d as generation %d (pid %d)",
                        replacement.worker_id, replacement.generation,
                        replacement.process.pid)

    def _requeue(self, job_id: int, jobs: dict, attempts: dict) -> None:
        attempts[job_id] += 1
        if attempts[job_id] > self.config.max_retries:
            self._drain_job_queue()
            raise ServeError(
                f"job {job_id} exceeded {self.config.max_retries} retries")
        current().count("serve.jobs_requeued")
        self._job_queue.put(jobs[job_id])

    def _drain_job_queue(self) -> None:
        try:
            while True:
                self._job_queue.get_nowait()
        except Empty:
            pass

    def _check_worker_health(self, now: float, claimed: dict, jobs: dict,
                             attempts: dict) -> bool:
        """Kill stale workers, requeue their jobs, respawn replacements.

        Returns whether any worker was reaped — that *is* progress, so the
        caller resets its starvation clock instead of double-requeuing.
        """
        telemetry = current()
        reaped = False
        for handle in list(self._workers.values()):
            if handle is None:
                continue
            alive = handle.process.is_alive()
            if alive:
                claim_times = [t for ref, t in claimed.values()
                               if ref == handle.ref]
                if claim_times:
                    freshest = max(self._last_beat.get(handle.worker_id, 0.0),
                                   max(claim_times))
                    age = now - freshest
                    telemetry.gauge("serve.heartbeat_age_s", age, mode="max")
                    if age > self.config.heartbeat_timeout_s:
                        telemetry.count("serve.workers_timed_out")
                        logger.warning(
                            "worker %d heartbeat is %.1fs stale with a "
                            "claimed job; killing it", handle.worker_id, age)
                        handle.process.kill()
                        handle.process.join(self.config.join_timeout_s)
                        alive = False
            if not alive:
                self._on_worker_death(handle, claimed, jobs, attempts)
                reaped = True
        return reaped

    # -------------------------------------------------------------- transport
    def _take_array(self, worker_ref: tuple, transport: tuple):
        kind, value = transport
        if kind == "shm":
            ring = self._rings[worker_ref]
            array = ring.take(value)
            ring.release(value)
            current().count("serve.shm_bytes", value.nbytes)
            return array
        current().count("serve.pickle_payload_bytes", int(value.nbytes))
        return value

    def _unpack_frame(self, worker_ref: tuple, payload: FramePayload):
        columns = {name: self._take_array(worker_ref, transport)
                   for name, transport in payload.columns.items()}
        null_masks = {name: self._take_array(worker_ref, transport)
                      for name, transport in payload.null_masks.items()}
        return CampaignFrame(schema_for(payload.kind), columns, null_masks)

    def _release_payload(self, worker_ref: tuple, payload: dict) -> None:
        """Free the ring slots of a payload that will not be consumed
        (duplicate result after a requeue)."""
        ring = self._rings.get(worker_ref)
        if ring is None:
            return

        def transports():
            matrix = payload.get("matrix")
            if matrix is not None:
                yield matrix
            for frame_payload in (payload.get("tables") or {}).values():
                yield from frame_payload.columns.values()
                yield from frame_payload.null_masks.values()

        for kind, value in transports():
            if kind == "shm":
                ring.release(value)

    # ------------------------------------------------------------ drive loop
    def _drive(self, jobs: Dict[int, object], on_payload,
               inline_execute) -> None:
        """Execute ``jobs`` to completion: dispatch, collect, retry, degrade.

        ``on_payload(job, payload, worker_ref)`` applies one worker result;
        ``inline_execute(job)`` computes-and-applies a job in this process
        (the degraded path when the whole pool is gone).  Raises
        :class:`ServeError` on job errors or retry exhaustion.
        """
        if not jobs:
            return
        config = self.config
        telemetry = current()
        pending: Set[int] = set(jobs)
        done: Set[int] = set()
        attempts = {job_id: 0 for job_id in jobs}
        claimed: Dict[int, tuple] = {}
        for job_id in sorted(jobs):
            self._job_queue.put(jobs[job_id])
        telemetry.count("serve.jobs", len(jobs))
        last_progress = time.monotonic()
        while pending:
            # Reap the dead (accounting, requeues, respawns) before deciding
            # whether any pool is left to wait on.
            now = time.monotonic()
            if self._check_worker_health(now, claimed, jobs, attempts):
                last_progress = now
            if not self._alive_workers():
                telemetry.count("serve.degraded")
                logger.warning("no workers left; executing %d remaining "
                               "job(s) inline", len(pending))
                self._drain_job_queue()
                for job_id in sorted(pending):
                    inline_execute(jobs[job_id])
                    done.add(job_id)
                pending.clear()
                return
            try:
                message = self._result_queue.get(timeout=config.poll_timeout_s)
            except Empty:
                message = None
            if message is not None:
                kind, worker_ref, *rest = message
                if kind == BEAT:
                    _job_id, beat_time = rest
                    self._last_beat[worker_ref[0]] = beat_time
                    telemetry.count("serve.heartbeats")
                elif kind == CLAIM:
                    job_id, claim_time = rest
                    if job_id in pending:
                        claimed[job_id] = (worker_ref, claim_time)
                    last_progress = time.monotonic()
                elif kind == DONE:
                    job_id, payload = rest
                    if job_id in pending:
                        pending.discard(job_id)
                        done.add(job_id)
                        claimed.pop(job_id, None)
                        on_payload(jobs[job_id], payload, worker_ref)
                    else:
                        telemetry.count("serve.duplicate_results")
                        self._release_payload(worker_ref, payload)
                    last_progress = time.monotonic()
                elif kind == ERROR:
                    job_id, text = rest
                    self._drain_job_queue()
                    raise ServeError(f"job {job_id} failed in worker "
                                     f"{worker_ref[0]}: {text}")
            now = time.monotonic()
            if (message is None and not claimed
                    and now - last_progress > config.heartbeat_timeout_s):
                # The claim-lost window: a worker dequeued a job and died
                # before claiming it.  Nothing is claimed, nothing arrives —
                # requeue everything outstanding (duplicates are deduped on
                # arrival by the done-set).
                logger.warning("no progress for %.1fs with no claims; "
                               "requeuing %d outstanding job(s)",
                               now - last_progress, len(pending))
                for job_id in sorted(pending):
                    self._requeue(job_id, jobs, attempts)
                last_progress = now

    # ------------------------------------------------------ campaign execution
    def _execute_campaign(self, campaign, scenarios, plaintexts, seed,
                          options, store=None):
        """Scheduled counterpart of ``AttackCampaign.run``'s dispatch block
        (called by it, inside the run's telemetry span)."""
        from ..core.flow import CampaignResult

        self._require_started()
        name = self._name_of(campaign)
        keys = campaign._scenario_keys(scenarios)
        fingerprint = campaign._grid_fingerprint(keys, plaintexts, seed,
                                                 options)
        spec = RunSpec(
            run_id=self._next_run_id(), name=name, kind="campaign",
            seed=seed,
            plaintexts=tuple(tuple(int(byte) for byte in block)
                             for block in plaintexts),
            compute_disclosure=options["compute_disclosure"],
            streaming=options["streaming"],
            chunk_size=options["chunk_size"],
            store=None if store is None else str(store),
            fingerprint=fingerprint,
            record_telemetry=current().enabled)
        grid = GridRun(campaign._grid_layout, len(scenarios), store,
                       keys=keys, fingerprint=fingerprint)
        run_jobs = (self._run_campaign_chunks if options["streaming"]
                    else self._run_campaign_scenarios)
        with self._running(spec):
            run_jobs(campaign, scenarios, plaintexts, options, spec, grid)
        rows, assessments = grid.finish()
        return CampaignResult(rows=rows, assessments=assessments)

    def _run_campaign_chunks(self, campaign, scenarios, plaintexts, options,
                             spec, grid):
        """Streaming scenarios as chunk-level jobs, accumulated in order."""
        from ..core.flow import _StreamingScenarioState

        telemetry = current()
        chunk_size = options["chunk_size"]
        tvla_plaintexts = (options["tvla_schedule"][0]
                           if options["tvla_schedule"] is not None else [])
        progress: Dict[int, dict] = {}
        jobs: Dict[int, object] = {}

        def finalize_scenario(index):
            context = progress.pop(index)
            state = context["state"]
            with telemetry.span("serve.scenario", noise=state.noise_label,
                                design=state.design.label,
                                chunks=context["applied"]):
                rows = state.attack_rows()
                for _row in rows:
                    telemetry.count("attacks")
                assessment_rows = (state.value_assessment_rows()
                                   + state.fr_assessment_rows())
            grid.add(index, (rows, assessment_rows))

        def apply_ready(index):
            context = progress[index]
            state = context["state"]
            for stream, total in context["totals"].items():
                buffer = context["buffer"][stream]
                while context["next"][stream] in buffer:
                    start = context["next"][stream]
                    matrix, dt, t0 = buffer.pop(start)
                    telemetry.count("chunks")
                    telemetry.count("traces", matrix.shape[0])
                    stop = start + matrix.shape[0]
                    if stream == ATTACK_STREAM:
                        state.apply_attack_chunk(
                            matrix, plaintexts[start:stop], dt, t0)
                    else:
                        state.apply_tvla_chunk(matrix)
                    context["next"][stream] = stop
                    context["applied"] += 1
            if all(context["next"][stream] >= total
                   for stream, total in context["totals"].items()):
                finalize_scenario(index)

        for index in grid.pending:
            state = _StreamingScenarioState(
                campaign, scenarios[index], plaintexts,
                attacks=options["attacks"],
                assessments=options["assessments"],
                tvla_schedule=options["tvla_schedule"],
                compute_disclosure=options["compute_disclosure"],
                keep_results=False)
            totals = {}
            if state.needs_attack_stream and plaintexts:
                totals[ATTACK_STREAM] = len(plaintexts)
            if state.needs_tvla_stream and len(tvla_plaintexts):
                totals[TVLA_STREAM] = len(tvla_plaintexts)
            progress[index] = {"state": state, "totals": totals,
                               "next": {stream: 0 for stream in totals},
                               "buffer": {stream: {} for stream in totals},
                               "applied": 0}
            for stream, total in totals.items():
                noise_base = 0 if stream == ATTACK_STREAM else len(plaintexts)
                for start in range(0, total, chunk_size):
                    job_id = self._next_job_id()
                    jobs[job_id] = ChunkJob(
                        job_id=job_id, run_id=spec.run_id, scenario=index,
                        stream=stream, start=start,
                        stop=min(start + chunk_size, total),
                        noise_base=noise_base)
            if not totals:
                finalize_scenario(index)

        def on_payload(job, payload, worker_ref):
            matrix = self._take_array(worker_ref, payload["matrix"])
            context = progress[job.scenario]
            context["buffer"][job.stream][job.start] = (
                matrix, payload["dt"], payload["t0"])
            apply_ready(job.scenario)

        def inline_execute(job):
            stream_plaintexts = (plaintexts if job.stream == ATTACK_STREAM
                                 else tvla_plaintexts)
            matrix, dt, t0 = campaign._stream_chunk(
                scenarios[job.scenario], stream_plaintexts, job.start,
                job.stop, noise_base=job.noise_base)
            context = progress[job.scenario]
            context["buffer"][job.stream][job.start] = (matrix, dt, t0)
            apply_ready(job.scenario)

        self._drive(jobs, on_payload, inline_execute)

    def _run_campaign_scenarios(self, campaign, scenarios, plaintexts,
                                options, spec, grid):
        """Non-streaming scenarios as whole-scenario jobs; workers spill
        store shards directly and ship back the manifest receipt."""
        jobs: Dict[int, object] = {}
        for index in grid.pending:
            job_id = self._next_job_id()
            jobs[job_id] = ScenarioJob(
                job_id=job_id, run_id=spec.run_id, scenario=index,
                shard_key=grid.shard_key(index))
        self._run_unit_jobs(
            grid, jobs, lambda job: job.scenario,
            lambda index: campaign._run_scenario(scenarios[index],
                                                 plaintexts, **options))

    def _run_unit_jobs(self, grid, jobs, unit_of, run_unit) -> None:
        """Drive whole-unit jobs (scenarios, sweep points) into ``grid``;
        ``run_unit(index)`` is the inline (degraded) path.  Worker span
        trees are adopted in unit order, whatever the completion order."""
        trees: List[tuple] = []

        def on_payload(job, payload, worker_ref):
            index = unit_of(job)
            if "record" in payload:
                # The worker already wrote the shard frames; committing the
                # receipt is the scheduler's (single manifest owner's) job.
                grid.commit(payload["record"])
            elif "row" in payload:
                grid.add(index, ([payload["row"]],))
            else:
                tables = {name: self._unpack_frame(worker_ref, frame_payload)
                          for name, frame_payload
                          in payload["tables"].items()}
                grid.add(index, grid.layout.rows(tables))
            tree = payload.get("telemetry")
            if tree is not None:
                trees.append((index, worker_ref[0], tree))

        def inline_execute(job):
            grid.add(unit_of(job), run_unit(unit_of(job)))

        self._drive(jobs, on_payload, inline_execute)
        telemetry = current()
        for index, worker_id, tree in sorted(trees, key=lambda t: t[0]):
            telemetry.adopt(tree, shard=index, worker=worker_id)

    # --------------------------------------------------------- sweep execution
    def _execute_sweep(self, sweep, points, design, store=None):
        """Scheduled counterpart of ``PlacementSweep.run``'s dispatch."""
        from ..pnr.sweep import SweepResult

        self._require_started()
        name = self._name_of(sweep)
        fingerprint = sweep._grid_fingerprint(points, design)
        spec = RunSpec(run_id=self._next_run_id(), name=name, kind="sweep",
                       store=None if store is None else str(store),
                       fingerprint=fingerprint,
                       record_telemetry=current().enabled)
        grid = GridRun(sweep._grid_layout, len(points), store,
                       keys=sweep._point_keys(points), fingerprint=fingerprint,
                       metadata={"flow": sweep.flow, "design": design})
        jobs: Dict[int, object] = {}
        for index in grid.pending:
            job_id = self._next_job_id()
            jobs[job_id] = SweepJob(job_id=job_id, run_id=spec.run_id,
                                    point=index)
        with self._running(spec):
            self._run_unit_jobs(
                grid, jobs, lambda job: job.point,
                lambda index: ([sweep._run_point(points[index])],))
        (rows,) = grid.finish()
        return SweepResult(flow=sweep.flow, design=design, rows=rows)
