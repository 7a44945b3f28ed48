"""Streaming attack states: DPA and CPA over bounded-memory chunk streams.

The in-memory attack engine (:mod:`repro.core.dpa`, :mod:`repro.core.cpa`)
computes its distinguisher from the full ``(n_traces, n_samples)`` matrix.
Both first-order statistics are functions of streaming moments only, so the
same attacks run chunk-by-chunk without ever materializing the matrix:

* difference of means — per-guess selected-set sums (the running state of
  :func:`repro.core.dpa.dom_prefix_states`);
* Pearson CPA — the cross-moment accumulator of
  :mod:`repro.assess.accumulators` between the hypothesis rows and the
  trace samples.

Each state exposes ``update(matrix, plaintexts)``, boundary ``peaks(rows)``
for messages-to-disclosure sweeps, final ``statistics(rows)`` matching the
in-memory kernel output to floating-point reordering, and exact ``merge`` for
shards.  Both read-outs finalize only the guesses ``rows`` selects, so
the campaign's :class:`repro.core.dpa.DisclosureTracker` — the in-memory
sweep's disclosure loop — reads one or two blocks of guesses at a boundary
where a wrong guess leads.  Unlike the in-memory sweep, whose
:class:`repro.core.dpa.BlockSums` replay a block's past segments the first
time it is read, a streaming state accumulates every guess at every chunk:
the stream drops each chunk once it is folded in, so there is nothing left
to replay.
Second-order kernels genuinely need the whole matrix (their centered-product
preprocessing centres on full-set means), so they are rejected with a clear
error instead of silently approximated.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.cpa import CpaKernel, DpaKernel
from ..core.dpa import DPAError, dom_bias
from ..core.power_model import leakage_matrix
from ..core.selection import selection_matrix
from .accumulators import ALL_ROWS, CoMomentAccumulator


class StreamingDomState:
    """Running difference-of-means state of every key guess at once.

    Maintains exactly the prefix sums of the incremental disclosure engine
    (:func:`repro.core.dpa.dom_prefix_states`): the per-guess selected-set
    sums, set sizes and the all-trace sum.  All quantities are plain sums, so
    merging shard states is exact.
    """

    def __init__(self, selection, guess_space: Sequence[int]):
        self.selection = selection
        self.guess_space = list(guess_space)
        self.count = 0
        self.sum1: Optional[np.ndarray] = None
        self.sum_all: Optional[np.ndarray] = None
        self.counts1 = np.zeros(len(self.guess_space))

    def _allocate(self, n_samples: int) -> None:
        self.sum1 = np.zeros((len(self.guess_space), n_samples))
        self.sum_all = np.zeros(n_samples)

    def update(self, matrix: np.ndarray,
               plaintexts: Sequence[Sequence[int]]) -> "StreamingDomState":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[0] == 0:
            return self
        if self.sum1 is None:
            self._allocate(matrix.shape[1])
        bits = selection_matrix(self.selection, [list(p) for p in plaintexts],
                                self.guess_space)
        self.sum_all += matrix.sum(axis=0)
        self.sum1 += bits.astype(float) @ matrix
        self.counts1 += bits.sum(axis=1)
        self.count += matrix.shape[0]
        return self

    def merge(self, other: "StreamingDomState") -> "StreamingDomState":
        if other.sum1 is None:
            return self
        if self.sum1 is None:
            self._allocate(other.sum1.shape[1])
        self.sum1 += other.sum1
        self.sum_all += other.sum_all
        self.counts1 += other.counts1
        self.count += other.count
        return self

    def statistics(self, rows: slice = ALL_ROWS) -> np.ndarray:
        """The bias matrix of the guesses ``rows`` over everything seen
        (equations (8)–(9))."""
        if self.sum1 is None:
            raise DPAError("streaming DPA state has seen no traces")
        bias, _ = dom_bias(self.sum1[rows], self.sum_all, self.counts1[rows],
                           self.count)
        return bias

    def peaks(self, rows: slice = ALL_ROWS) -> np.ndarray:
        """Per-guess max |bias| of the guesses ``rows`` (the disclosure-sweep
        boundary statistic)."""
        return np.abs(self.statistics(rows)).max(axis=1)


class StreamingCpaState:
    """Running Pearson-CPA state of every key guess at once.

    One :class:`CoMomentAccumulator` between the leakage-model hypothesis
    rows and the trace samples; the correlation read-out matches the
    in-memory :func:`repro.core.cpa.pearson_statistics` to floating-point
    reordering, and shard states merge exactly (Chan's formula).
    """

    def __init__(self, model, guess_space: Sequence[int]):
        self.model = model
        self.guess_space = list(guess_space)
        self._moments = CoMomentAccumulator()

    @property
    def count(self) -> int:
        return self._moments.count

    def update(self, matrix: np.ndarray,
               plaintexts: Sequence[Sequence[int]]) -> "StreamingCpaState":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[0] == 0:
            return self
        hypothesis = leakage_matrix(self.model, [list(p) for p in plaintexts],
                                    self.guess_space)
        self._moments.update(hypothesis, matrix)
        return self

    def merge(self, other: "StreamingCpaState") -> "StreamingCpaState":
        self._moments.merge(other._moments)
        return self

    def statistics(self, rows: slice = ALL_ROWS) -> np.ndarray:
        if self._moments.count == 0:
            raise DPAError("streaming CPA state has seen no traces")
        return self._moments.correlation(rows)

    def peaks(self, rows: slice = ALL_ROWS) -> np.ndarray:
        return np.abs(self.statistics(rows)).max(axis=1)


def streaming_state(kernel, guess_space: Sequence[int]):
    """The streaming counterpart of an attack kernel.

    :class:`~repro.core.cpa.DpaKernel` and :class:`~repro.core.cpa.CpaKernel`
    map to their moment-based states; custom kernels can participate by
    exposing ``stream_state(guess_space)``, whose state offers the same
    ``update``/``merge``/``statistics(rows)``/``peaks(rows)`` interface.
    Kernels that need the full trace matrix (the second-order
    centered-product family) are rejected.
    """
    maker = getattr(kernel, "stream_state", None)
    if maker is not None:
        return maker(guess_space)
    if isinstance(kernel, DpaKernel):
        return StreamingDomState(kernel.selection, guess_space)
    if isinstance(kernel, CpaKernel):
        return StreamingCpaState(kernel.model, guess_space)
    raise DPAError(
        f"attack kernel {getattr(kernel, 'name', kernel)!r} cannot run in "
        "streaming mode: second-order (centered-product) kernels need the "
        "full trace matrix — run the campaign without streaming, or add a "
        "stream_state(guess_space) implementation to the kernel"
    )


def disclosure_boundaries(total: int, *, start: int = 16,
                          step: int = 16) -> List[int]:
    """The prefix boundaries of a disclosure sweep over ``total`` traces."""
    if start < 2:
        raise DPAError("need at least 2 traces to run a DPA attack")
    return list(range(start, total + 1, step))
