"""Columnar campaign store: numpy frames, npz + manifest disk format, query.

The store is the persistence and analysis layer of campaign-scale runs
(:class:`repro.core.flow.AttackCampaign`, :class:`repro.pnr.sweep.\
PlacementSweep`):

* :mod:`repro.store.schema`   — typed column schemas of the three result-row
  kinds (campaign / assessment / sweep) and their dataclass conversions;
* :mod:`repro.store.frame`    — :class:`CampaignFrame`, the one-array-per-
  column nullable table that round-trips the dataclasses exactly;
* :mod:`repro.store.query`    — lazy filter/select, group-by aggregation,
  MTD percentiles, verdict pivots, pareto fronts;
* :mod:`repro.store.disk`     — the bit-exact npz frame format;
* :mod:`repro.store.manifest` — the JSON manifest with per-shard completion
  records that makes crashed sweeps resumable;
* :mod:`repro.store.store`    — :class:`CampaignStore`, the directory handle
  tying it together, plus the ``load_*`` consumers;
* :mod:`repro.store.grid`     — the one grid runner of campaigns, sweeps
  and the service: fork fan-out plus the spill/resume/merge protocol.

The package is numpy-only and a dependency leaf: nothing here imports the
rest of the repo at module scope, so every layer can use it.
"""

from .disk import read_frame, write_frame
from .frame import CampaignFrame
from .manifest import MANIFEST_NAME, ShardRecord, StoreManifest
from .query import (
    AmbiguousQueryError,
    GroupedFrame,
    LazyFrame,
    PivotTable,
    mtd_percentiles,
    pareto_front,
    single_row,
    verdict_pivot,
)
from .schema import (
    SCHEMA_VERSION,
    ColumnSpec,
    FrameSchema,
    StoreError,
    kind_of_row,
    schema_for,
)
from .store import (
    CampaignStore,
    grid_fingerprint,
    load_campaign_frames,
    load_campaign_result,
    load_sweep_rows,
    open_store,
)

__all__ = [
    "AmbiguousQueryError",
    "CampaignFrame",
    "CampaignStore",
    "ColumnSpec",
    "FrameSchema",
    "GroupedFrame",
    "LazyFrame",
    "MANIFEST_NAME",
    "PivotTable",
    "SCHEMA_VERSION",
    "ShardRecord",
    "StoreError",
    "StoreManifest",
    "grid_fingerprint",
    "kind_of_row",
    "load_campaign_frames",
    "load_campaign_result",
    "load_sweep_rows",
    "mtd_percentiles",
    "open_store",
    "pareto_front",
    "read_frame",
    "schema_for",
    "single_row",
    "verdict_pivot",
    "write_frame",
]
