"""The campaign store: a directory of shard npz files behind one manifest.

Layout of a store directory (``kind`` is ``campaign`` or ``sweep``)::

    manifest.json                      # grid identity + completion records
    shard-00007-rows.npz               # one frame per table per scenario
    shard-00007-assessments.npz
    ...
    frame.npz                          # merged main table (after finalize)
    assessments.npz                    # merged assessment table (campaign)

:class:`CampaignStore` is the producer handle behind
:class:`repro.store.grid.GridRun`, the one spill/resume path of campaigns,
sweeps and the service: ``open`` creates or resumes the
manifest (refusing grid mismatches), ``write_shard`` persists one completed
scenario (frames first, manifest after — crash-safe), ``finalize`` writes
the merged tables.  The reader side is :func:`load_campaign_result` /
:func:`load_sweep_rows`, which also serve *partial* stores by merging
whatever shards completed before a crash.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..obs.telemetry import current
from .disk import read_frame, write_frame
from .frame import CampaignFrame
from .manifest import ShardRecord, StoreManifest
from .schema import StoreError

logger = logging.getLogger(__name__)

#: Filename of each merged table (the main table keeps the historic name).
_MERGED_NAMES = {"rows": "frame.npz"}


def grid_fingerprint(payload: Dict[str, object]) -> str:
    """A stable digest of everything that shapes a run's result table.

    The payload must be JSON-serializable (labels, counts, seeds, knob
    values — *not* callables: noise factories and custom trace sources are
    represented by their labels, which is as far as equality can be checked
    without executing them).
    """
    try:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except TypeError as error:
        raise StoreError(f"grid fingerprint payload is not JSON-stable: "
                         f"{error}") from None
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class CampaignStore:
    """Producer/consumer handle on one store directory."""

    def __init__(self, path: Union[str, Path], manifest: StoreManifest):
        self.path = Path(path)
        self.manifest = manifest

    # ------------------------------------------------------------- opening
    @classmethod
    def open(cls, path: Union[str, Path], *, kind: str,
             scenario_keys: Sequence[str], fingerprint: str,
             metadata: Optional[Dict[str, str]] = None) -> "CampaignStore":
        """Create a fresh store or resume an existing compatible one."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        existing = StoreManifest.load_if_present(path)
        if existing is not None:
            existing.check_compatible(kind=kind, fingerprint=fingerprint,
                                      scenario_keys=list(scenario_keys))
            logger.info("resuming %s store at %s: %d/%d shards complete",
                        kind, path, len(existing.completed_keys()),
                        len(existing.scenario_keys))
            return cls(path, existing)
        manifest = StoreManifest(kind=kind, fingerprint=fingerprint,
                                 scenario_keys=list(scenario_keys),
                                 metadata=dict(metadata or {}))
        manifest.save(path)
        return cls(path, manifest)

    # ------------------------------------------------------------- shards
    def completed_keys(self) -> List[str]:
        return self.manifest.completed_keys()

    def pending_keys(self) -> List[str]:
        return self.manifest.pending_keys()

    def _shard_filename(self, index: int, table: str) -> str:
        return f"shard-{index:05d}-{table}.npz"

    def write_shard_tables(self, key: str,
                           tables: Dict[str, CampaignFrame]) -> ShardRecord:
        """Write one scenario's shard frames to disk — manifest untouched.

        The returned :class:`ShardRecord` is the tiny, picklable receipt a
        :mod:`repro.serve` worker ships back to the scheduler, which alone
        calls :meth:`commit_shard`: writers may be many processes, but the
        manifest has exactly one owner, so resume state never races.
        """
        try:
            index = self.manifest.scenario_keys.index(key)
        except ValueError:
            raise StoreError(f"shard key {key!r} is not a scenario of this "
                             "store") from None
        filenames = {}
        rows = {}
        for table, frame in tables.items():
            filename = self._shard_filename(index, table)
            write_frame(frame, self.path / filename)
            filenames[table] = filename
            rows[table] = len(frame)
        return ShardRecord(key=key, index=index, tables=filenames, rows=rows)

    def commit_shard(self, record: ShardRecord) -> None:
        """Record an already-written shard in the manifest (crash-safe:
        the frames were durable before this runs)."""
        telemetry = current()
        self.manifest.record_shard(record)
        self.manifest.save(self.path)
        telemetry.count("shards_written")
        telemetry.count("rows_spilled", sum(record.rows.values()))

    def write_shard(self, key: str,
                    tables: Dict[str, CampaignFrame]) -> ShardRecord:
        """Persist one completed scenario (frames first, manifest after)."""
        with current().span("store.write_shard", key=key):
            record = self.write_shard_tables(key, tables)
            self.commit_shard(record)
        return record

    def read_shard(self, key: str) -> Dict[str, CampaignFrame]:
        record = self.manifest.shards.get(key)
        if record is None:
            raise StoreError(f"scenario {key!r} has no completed shard")
        tables = {}
        for table, filename in record.tables.items():
            frame = read_frame(self.path / filename)
            if len(frame) != record.rows[table]:
                raise StoreError(
                    f"shard {filename} holds {len(frame)} rows; manifest "
                    f"records {record.rows[table]} — store is corrupt")
            tables[table] = frame
        return tables

    # -------------------------------------------------------------- merge
    def merge_tables(self, table_kinds: Dict[str, str],
                     keys: Optional[Sequence[str]] = None,
                     cache: Optional[Dict[str, Dict[str, CampaignFrame]]]
                     = None) -> Dict[str, CampaignFrame]:
        """Concatenate shard frames in scenario order, per table.

        ``table_kinds`` names each table and its frame kind (for empty
        stores); ``keys`` defaults to every completed scenario.  ``cache``
        maps keys to their in-memory table dicts — shards a producer just
        wrote skip the disk round trip (npy serialization is bit-exact, so
        the merge is identical either way).
        """
        keys = list(self.completed_keys() if keys is None else keys)
        cache = cache or {}
        telemetry = current()
        with telemetry.span("store.merge", shards=len(keys),
                            tables=len(table_kinds)):
            shards = [cache[key] if key in cache else self.read_shard(key)
                      for key in keys]
            merged = {}
            for table, kind in table_kinds.items():
                merged[table] = CampaignFrame.concat(
                    [tables[table] for tables in shards if table in tables],
                    kind=kind)
            telemetry.count("rows_merged",
                            sum(len(frame) for frame in merged.values()))
        return merged

    def finalize(self, tables: Dict[str, CampaignFrame]) -> None:
        """Write the merged tables and mark the manifest complete."""
        with current().span("store.finalize", tables=len(tables)):
            merged = {}
            for table, frame in tables.items():
                filename = _MERGED_NAMES.get(table, f"{table}.npz")
                write_frame(frame, self.path / filename)
                merged[table] = filename
            self.manifest.merged = merged
            self.manifest.save(self.path)
        logger.info("finalized %s store at %s (%d merged tables)",
                    self.manifest.kind, self.path, len(merged))

    def read_merged(self, table: str) -> CampaignFrame:
        filename = self.manifest.merged.get(table)
        if filename is None:
            raise StoreError(f"store at {self.path} has no merged "
                             f"{table!r} table (run did not finalize); "
                             "use merge_tables for a partial view")
        return read_frame(self.path / filename)


# -------------------------------------------------------------- consumers
def open_store(path: Union[str, Path]) -> CampaignStore:
    """Open an existing store directory read-only-ish (manifest as found)."""
    return CampaignStore(Path(path), StoreManifest.load(path))


def _merged_or_partial(store: CampaignStore, table: str,
                       kind: str) -> CampaignFrame:
    if table in store.manifest.merged:
        return store.read_merged(table)
    return store.merge_tables({table: kind})[table]


def load_campaign_frames(path: Union[str, Path]
                         ) -> Dict[str, CampaignFrame]:
    """The (merged or partial) row/assessment frames of a campaign store."""
    store = open_store(path)
    if store.manifest.kind != "campaign":
        raise StoreError(f"store at {path} holds {store.manifest.kind!r} "
                         "results, not campaign results")
    return {
        "rows": _merged_or_partial(store, "rows", "campaign"),
        "assessments": _merged_or_partial(store, "assessments",
                                          "assessment"),
    }


def load_campaign_result(path: Union[str, Path]):
    """Rebuild a :class:`repro.core.flow.CampaignResult` from a store.

    Incomplete stores (crashed runs) load too: the result then holds the
    rows of every *completed* scenario, in scenario order — queryable
    without re-running anything.
    """
    from ..core.flow import CampaignResult

    frames = load_campaign_frames(path)
    return CampaignResult(rows=frames["rows"].to_rows(),
                          assessments=frames["assessments"].to_rows())


def load_sweep_rows(path: Union[str, Path]):
    """Rebuild a :class:`repro.pnr.sweep.SweepResult` from a sweep store."""
    from ..pnr.sweep import SweepResult

    store = open_store(path)
    if store.manifest.kind != "sweep":
        raise StoreError(f"store at {path} holds {store.manifest.kind!r} "
                         "results, not placement-sweep results")
    frame = _merged_or_partial(store, "rows", "sweep")
    return SweepResult(
        flow=store.manifest.metadata.get("flow", ""),
        design=store.manifest.metadata.get("design", ""),
        rows=frame.to_rows(),
    )
