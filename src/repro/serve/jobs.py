"""The serve wire vocabulary: run specs, jobs and result envelopes.

Everything that crosses a process boundary is defined here, and all of it
is deliberately tiny: workers are *forked from the scheduler after
registration*, so the campaign / sweep objects themselves (netlists,
trace sources, noise factories — none of them picklable in general) ride
the copy-on-write memory image, and the queues only ever carry

* one :class:`RunSpec` per run per worker (the arguments of the run —
  every worker rebuilds the identical scenario plan from them via
  :meth:`~repro.core.flow.AttackCampaign._plan_run`, checked by grid
  fingerprint);
* :class:`ChunkJob` / :class:`ScenarioJob` / :class:`SweepJob` work
  units, each a handful of ints;
* result envelopes whose large arrays are :class:`~repro.serve.shm.\
SlotPayload` receipts into the worker's shared-memory ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Stream identifiers of a streaming campaign scenario (the attack stream
#: consumes the run plaintexts; the TVLA stream consumes the independent
#: fixed-vs-random schedule with its noise indices offset past the attack
#: stream, exactly as the serial chunk pipeline does).
ATTACK_STREAM = "attack"
TVLA_STREAM = "tvla"


@dataclass(frozen=True)
class RunSpec:
    """Everything a worker needs to rebuild one run's plan locally."""

    run_id: int
    name: str
    kind: str  # "campaign" | "sweep"
    seed: int = 0
    plaintexts: Tuple[Tuple[int, ...], ...] = ()
    compute_disclosure: bool = True
    streaming: bool = False
    chunk_size: Optional[int] = None
    store: Optional[str] = None
    fingerprint: str = ""
    record_telemetry: bool = False


@dataclass(frozen=True)
class ChunkJob:
    """Generate rows ``[start, stop)`` of one scenario's trace stream."""

    job_id: int
    run_id: int
    scenario: int
    stream: str  # ATTACK_STREAM | TVLA_STREAM
    start: int
    stop: int
    noise_base: int = 0


@dataclass(frozen=True)
class ScenarioJob:
    """Run one full (noise × design) scenario (non-streaming campaigns)."""

    job_id: int
    run_id: int
    scenario: int
    shard_key: Optional[str] = None  # spill directly when the run has a store


@dataclass(frozen=True)
class SweepJob:
    """Place-and-evaluate one knob point of a registered placement sweep."""

    job_id: int
    run_id: int
    point: int


@dataclass(frozen=True)
class FramePayload:
    """A columnar frame shipped column-by-column over the shm ring.

    ``columns`` / ``null_masks`` values are either ``("shm", SlotPayload)``
    or ``("inline", ndarray)`` — the inline fallback is what the
    ``pickle_payload_bytes`` counter measures.
    """

    kind: str
    columns: Dict[str, tuple] = field(default_factory=dict)
    null_masks: Dict[str, tuple] = field(default_factory=dict)


#: Result-queue envelopes, all plain tuples:
#:   ("claim", worker, job_id, monotonic_time)
#:   ("beat",  worker, job_id_or_None, monotonic_time)
#:   ("done",  worker, job_id, payload)
#:   ("error", worker, job_id, message)
#: ``payload`` of a done envelope is job-shaped: chunk jobs carry
#: ``{"matrix": transport, "dt": float, "t0": float}``, scenario jobs
#: carry ``{"tables": {name: FramePayload}}`` or ``{"record": ShardRecord}``
#: and sweep jobs ``{"row": SweepRow}``, both with a ``"telemetry"`` span
#: tree (None unless the run records telemetry).
CLAIM, BEAT, DONE, ERROR = "claim", "beat", "done", "error"
