"""One grid runner: the fork fan-out and the store spill/resume protocol.

A *grid* is a list of independent units, each a deterministic function of
its index — campaign scenarios, placement-sweep points — returning one
row list per table of its :class:`GridLayout`.  :func:`fan_out` runs the
units in order, serially or over one ``fork`` pool (only the index
crosses the process boundary; children inherit the unit copy-on-write).
:class:`GridRun` holds a run's results in memory or behind the store
protocol: open or resume, skip completed keys, spill each unit, merge,
add the telemetry frame, finalize.  :func:`run_grid` composes the two;
the :mod:`repro.serve` scheduler drives a :class:`GridRun` from its own
jobs.

Every grid runs with the loaded OpenBLAS at one thread
(:func:`single_blas_thread`, entered by :func:`fan_out` around both its
serial and its fork branch; forked children inherit the count).  The
campaign and sweep entry points enter it as well, so their spans record
the count and the parent-side work of service runs is pinned too.  Two
reasons: ``workers`` forked processes that each start one BLAS thread per
core oversubscribe the cores, and a threaded gemm splits its sums
differently from a serial one, so its last bits — and with them the
``best_peak``/``discrimination`` columns — would depend on the host's
core count.  Pinned, serial and pooled runs agree on any host, whatever
``OPENBLAS_NUM_THREADS`` says.
"""

from __future__ import annotations

import ctypes
import logging
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..obs.export import telemetry_frame
from ..obs.telemetry import Telemetry, current, use
from .frame import CampaignFrame
from .manifest import ShardRecord
from .store import CampaignStore

logger = logging.getLogger(__name__)

#: One unit's result: a list of rows per table, in layout order.
UnitRows = Tuple[list, ...]


@dataclass(frozen=True)
class GridLayout:
    """The manifest ``kind`` and the ``tables`` (name → frame kind) of a
    grid, in the order a unit returns its row lists."""

    kind: str
    tables: Dict[str, str]

    def frames(self, parts: UnitRows) -> Dict[str, CampaignFrame]:
        """One unit's row lists as columnar frames, keyed by table."""
        return {table: CampaignFrame.from_rows(rows, kind=kind)
                for (table, kind), rows in zip(self.tables.items(), parts)}

    def rows(self, frames: Dict[str, CampaignFrame]) -> UnitRows:
        """The row lists of a table dict, in layout order."""
        return tuple(frames[table].to_rows() for table in self.tables)


def recorded(call: Callable[[], object], *,
             record: Optional[bool] = None) -> Tuple[object, object]:
    """``(call(), span tree or None)`` for a unit run in a worker process:
    with ``record`` (default: the ambient collector is enabled) the call
    records under a fresh collector whose snapshot the parent adopts."""
    if record is None:
        record = current().enabled
    if not record:
        return call(), None
    local = Telemetry(name="shard")
    with use(local):
        result = call()
    return result, local.snapshot()


#: (set, get) thread-count symbol pairs of the OpenBLAS builds numpy
#: bundles, tried in order: scipy-openblas (ILP64), older ILP64, LP64.
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

#: The loaded OpenBLAS's (set, get) functions once looked up: ``None``
#: before the first :func:`single_blas_thread`, ``()`` when none was found.
_BLAS_CONTROLS: Optional[tuple] = None


def _blas_controls() -> tuple:
    """``(set, get)`` of numpy's OpenBLAS thread count, or ``()``.

    Looked up once, on first use, so importing :mod:`repro` stays cheap:
    the shared objects under ``numpy.libs`` are the ones numpy already
    loaded, so ``dlopen`` hands back the same library instance.
    """
    global _BLAS_CONTROLS
    if _BLAS_CONTROLS is None:
        import numpy

        libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
        libraries = [ctypes.CDLL(str(path))
                     for path in sorted(libs.glob("lib*openblas*.so*"))]
        _BLAS_CONTROLS = next(
            ((getattr(library, set_name), getattr(library, get_name))
             for library in libraries
             for set_name, get_name in _BLAS_SYMBOLS
             if hasattr(library, set_name) and hasattr(library, get_name)),
            ())
        if not _BLAS_CONTROLS:
            logger.warning(
                "no OpenBLAS thread-count symbol found under %s; grid runs "
                "keep the ambient BLAS thread count, so their last bits may "
                "depend on the host's core count", libs)
    return _BLAS_CONTROLS


@contextmanager
def single_blas_thread() -> Iterator[Optional[int]]:
    """Run the body with the loaded OpenBLAS at one thread.

    Yields the effective count read back from the library (``None`` when
    no OpenBLAS symbol was found: then this is a no-op).  The caller's
    count is restored on exit — also on an exception or when an enclosing
    generator is closed early.
    """
    controls = _blas_controls()
    if not controls:
        yield None
        return
    set_threads, get_threads = controls
    previous = get_threads()
    set_threads(1)
    try:
        yield get_threads()
    finally:
        set_threads(previous)


#: The unit function inherited by forked children (set around the pool's
#: lifetime only); the inbound task payload is just the unit index.
_GRID_UNIT: Optional[Callable[[int], object]] = None


def _grid_worker(index: int) -> Tuple[object, object]:
    unit = _GRID_UNIT
    return recorded(lambda: unit(index))


def fan_out(unit: Callable[[int], object], count: int,
            workers: int) -> Iterator[object]:
    """``unit(0), ..., unit(count - 1)``, yielded in index order.

    Serial when ``workers <= 1``, ``count <= 1`` or ``fork`` is
    unavailable; otherwise one lazily consumed ``fork`` pool whose span
    trees are adopted in index order with ``shard=index``, so the merged
    tree has the serial shape.  Either way the units run under
    :func:`single_blas_thread` (children fork with the pinned count), so
    the results are identical.
    """
    global _GRID_UNIT
    fork = "fork" in multiprocessing.get_all_start_methods()
    with single_blas_thread():
        if workers <= 1 or count <= 1 or not fork:
            if workers > 1 and count > 1:
                logger.info("fork unavailable on this platform; running %d "
                            "unit(s) serially", count)
            for index in range(count):
                yield unit(index)
            return
        telemetry = current()
        _GRID_UNIT = unit
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=min(workers, count)) as pool:
                for index, (result, tree) in enumerate(
                        pool.imap(_grid_worker, range(count), chunksize=1)):
                    if tree is not None:
                        telemetry.adopt(tree, shard=index)
                    yield result
        finally:
            _GRID_UNIT = None


class GridRun:
    """The results of one grid run, held in memory or spilled to a store.

    With ``store`` (a directory) the run creates or resumes the store —
    units whose key has a completed shard are not :attr:`pending` — and
    :meth:`add` spills each result as its shard at once.  :meth:`finish`
    returns the rows per table in unit order; stored rows round-trip
    through the frames, so resumed and fresh runs give identical tables.
    """

    def __init__(self, layout: GridLayout, count: int,
                 store: Optional[Union[str, Path]] = None, *,
                 keys: Optional[Sequence[str]] = None,
                 fingerprint: Optional[str] = None,
                 metadata: Optional[Dict[str, str]] = None):
        self.layout = layout
        self.pending: List[int] = list(range(count))
        self._results: Dict[int, UnitRows] = {}
        self._written: Dict[str, Dict[str, CampaignFrame]] = {}
        self.keys = list(keys or ())
        self._store = None
        if store is None:
            return
        self._store = CampaignStore.open(
            store, kind=layout.kind, scenario_keys=self.keys,
            fingerprint=fingerprint, metadata=metadata)
        done = set(self._store.completed_keys())
        self.pending = [index for index in self.pending
                        if self.keys[index] not in done]
        if done:
            logger.info("%s store resume: %d/%d units already complete, "
                        "%d to run", layout.kind, len(done), len(self.keys),
                        len(self.pending))

    def shard_key(self, index: int) -> Optional[str]:
        """The store key of unit ``index`` (None for in-memory runs)."""
        return self.keys[index] if self._store is not None else None

    def add(self, index: int, parts: UnitRows) -> None:
        """Keep unit ``index``'s rows, or spill them as its shard."""
        if self._store is None:
            self._results[index] = parts
            return
        key = self.keys[index]
        tables = self.layout.frames(parts)
        self._store.write_shard(key, tables)
        self._written[key] = tables

    def commit(self, record: ShardRecord) -> None:
        """Record a shard a worker process already wrote to disk."""
        self._store.commit_shard(record)

    def finish(self) -> UnitRows:
        """The run's rows per table, in unit order."""
        telemetry = current()
        if self._store is None:
            telemetry.record_rss()
            joined = tuple([] for _table in self.layout.tables)
            for index in sorted(self._results):
                for rows, part in zip(joined, self._results[index]):
                    rows.extend(part)
            return joined
        merged = self._store.merge_tables(self.layout.tables, keys=self.keys,
                                          cache=self._written)
        telemetry.record_rss()
        tables = dict(merged)
        if telemetry.enabled:
            # Persist the (still-open) run's span tree next to the shard
            # manifest so the metrics are queryable like any result table.
            tables["telemetry"] = telemetry_frame(telemetry.snapshot())
        self._store.finalize(tables)
        return self.layout.rows(merged)


def run_grid(unit: Callable[[int], UnitRows], grid: GridRun, *,
             workers: int = 1) -> UnitRows:
    """Run ``grid``'s pending units over :func:`fan_out`; returns its rows."""
    pending = grid.pending
    results = fan_out(lambda index: unit(pending[index]), len(pending),
                      workers)
    for index, parts in zip(pending, results):
        grid.add(index, parts)
    return grid.finish()
