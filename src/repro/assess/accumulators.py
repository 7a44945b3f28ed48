"""One-pass, mergeable streaming moment accumulators.

The leakage-assessment statistics (Welch t-test, SNR, Pearson correlation)
are all functions of first and second moments of the trace distribution —
per sample, per class, or jointly with a hypothesis variable.  This module
provides the three accumulator shapes they need, each with the same
contract:

* ``update(chunk, …)`` folds one ``(n_chunk, n_samples)`` block of traces in
  (numerically stable: every chunk is centred on its own mean before its
  second moments are taken — the Welford/Chan *parallel* update, never the
  cancellation-prone ``Σx² − n·x̄²``);
* ``merge(other)`` combines two accumulators exactly as if their traces had
  been seen by one (Chan et al.'s pairwise formula), so sharded campaigns
  can assess independently and merge;
* the statistics read out of a merged accumulator match a single full-matrix
  pass to floating-point reordering (≲ 1e-12 relative), which is what lets
  the streaming pipelines promise bounded memory without changing results.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Default row selection of the row-sliced read-outs: every row.
ALL_ROWS = slice(None)


class AccumulatorError(Exception):
    """Raised on malformed accumulator updates or merges."""


def _as_chunk(matrix: np.ndarray) -> np.ndarray:
    chunk = np.asarray(matrix, dtype=float)
    if chunk.ndim == 1:
        chunk = chunk[None, :]
    if chunk.ndim != 2:
        raise AccumulatorError(
            f"expected an (n_traces, n_samples) chunk, got shape {chunk.shape}"
        )
    return chunk


def chan_merge(count_a, mean_a, m2_a, count_b, mean_b, m2_b):
    """Combine two (count, mean, M2) moment triples exactly.

    The pairwise update of Chan, Golub & LeVeque: valid for scalars or
    broadcastable arrays, with either side allowed to be empty.  Returns the
    combined ``(count, mean, M2)``.
    """
    total = count_a + count_b
    if np.all(total == 0):
        return total, mean_a, m2_a
    delta = mean_b - mean_a
    with np.errstate(invalid="ignore", divide="ignore"):
        weight_b = np.where(total > 0, count_b / np.maximum(total, 1), 0.0)
        cross = np.where(total > 0, count_a * weight_b, 0.0)
    mean = mean_a + delta * weight_b
    m2 = m2_a + m2_b + cross * delta ** 2
    return total, mean, m2


class MomentAccumulator:
    """Streaming per-sample count / mean / M2 over trace rows.

    ``variance`` and ``std`` follow from ``M2 / (count − ddof)``; the sample
    axis is sized lazily from the first chunk.
    """

    def __init__(self, n_samples: Optional[int] = None):
        self.count: int = 0
        self.mean: Optional[np.ndarray] = None
        self.m2: Optional[np.ndarray] = None
        if n_samples is not None:
            self._allocate(n_samples)

    def _allocate(self, n_samples: int) -> None:
        self.mean = np.zeros(n_samples)
        self.m2 = np.zeros(n_samples)

    @property
    def n_samples(self) -> Optional[int]:
        return None if self.mean is None else len(self.mean)

    def _check_width(self, width: int) -> None:
        if self.mean is None:
            self._allocate(width)
        elif width != len(self.mean):
            raise AccumulatorError(
                f"chunk has {width} samples but the accumulator tracks "
                f"{len(self.mean)}"
            )

    def update(self, matrix: np.ndarray) -> "MomentAccumulator":
        """Fold an ``(n_chunk, n_samples)`` block (or one trace row) in."""
        chunk = _as_chunk(matrix)
        if chunk.shape[0] == 0:
            return self
        self._check_width(chunk.shape[1])
        chunk_mean = chunk.mean(axis=0)
        centered = chunk - chunk_mean[None, :]
        chunk_m2 = np.einsum("ij,ij->j", centered, centered)
        self.count, self.mean, self.m2 = chan_merge(
            self.count, self.mean, self.m2,
            chunk.shape[0], chunk_mean, chunk_m2,
        )
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Fold another accumulator in, exactly (shard reduction)."""
        if other.count == 0:
            return self
        self._check_width(len(other.mean))
        self.count, self.mean, self.m2 = chan_merge(
            self.count, self.mean, self.m2,
            other.count, other.mean, other.m2,
        )
        return self

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Per-sample variance (zero where fewer than ``ddof + 1`` traces)."""
        if self.mean is None:
            raise AccumulatorError("accumulator has seen no traces")
        if self.count <= ddof:
            return np.zeros_like(self.m2)
        return self.m2 / (self.count - ddof)

    def std(self, ddof: int = 1) -> np.ndarray:
        return np.sqrt(self.variance(ddof))

    def copy(self) -> "MomentAccumulator":
        duplicate = MomentAccumulator()
        duplicate.count = self.count
        duplicate.mean = None if self.mean is None else self.mean.copy()
        duplicate.m2 = None if self.m2 is None else self.m2.copy()
        return duplicate


class ClassAccumulator:
    """Per-class streaming moments: one :class:`MomentAccumulator` per label,
    vectorized over all classes.

    ``update`` takes the chunk together with one integer label per row
    (``0 … n_classes − 1``); the per-class counts, means and M2 vectors are
    maintained with the same Chan parallel update, so the SNR and specific
    t-test partitions stream chunk by chunk and merge across shards.
    """

    def __init__(self, n_classes: int, n_samples: Optional[int] = None):
        if n_classes < 2:
            raise AccumulatorError(f"need >= 2 classes, got {n_classes}")
        self.n_classes = n_classes
        self.counts = np.zeros(n_classes, dtype=np.int64)
        self.means: Optional[np.ndarray] = None
        self.m2s: Optional[np.ndarray] = None
        if n_samples is not None:
            self._allocate(n_samples)

    def _allocate(self, n_samples: int) -> None:
        self.means = np.zeros((self.n_classes, n_samples))
        self.m2s = np.zeros((self.n_classes, n_samples))

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    @property
    def n_samples(self) -> Optional[int]:
        return None if self.means is None else self.means.shape[1]

    def _check_width(self, width: int) -> None:
        if self.means is None:
            self._allocate(width)
        elif width != self.means.shape[1]:
            raise AccumulatorError(
                f"chunk has {width} samples but the accumulator tracks "
                f"{self.means.shape[1]}"
            )

    def update(self, matrix: np.ndarray, labels) -> "ClassAccumulator":
        chunk = _as_chunk(matrix)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if len(labels) != chunk.shape[0]:
            raise AccumulatorError(
                f"got {len(labels)} labels for {chunk.shape[0]} chunk rows"
            )
        if chunk.shape[0] == 0:
            return self
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise AccumulatorError(
                f"labels must lie in 0..{self.n_classes - 1}, "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        self._check_width(chunk.shape[1])

        chunk_counts = np.bincount(labels, minlength=self.n_classes)
        sums = np.zeros_like(self.means)
        np.add.at(sums, labels, chunk)
        populated = chunk_counts > 0
        chunk_means = np.zeros_like(self.means)
        chunk_means[populated] = sums[populated] / chunk_counts[populated, None]
        centered = chunk - chunk_means[labels]
        chunk_m2 = np.zeros_like(self.m2s)
        np.add.at(chunk_m2, labels, centered ** 2)

        totals = self.counts + chunk_counts
        delta = chunk_means - self.means
        with np.errstate(invalid="ignore", divide="ignore"):
            weight = np.where(totals > 0, chunk_counts / np.maximum(totals, 1), 0.0)
            cross = self.counts * weight
        self.means = self.means + delta * weight[:, None]
        self.m2s = self.m2s + chunk_m2 + cross[:, None] * delta ** 2
        self.counts = totals
        return self

    def merge(self, other: "ClassAccumulator") -> "ClassAccumulator":
        if other.n_classes != self.n_classes:
            raise AccumulatorError(
                f"cannot merge {other.n_classes}-class into "
                f"{self.n_classes}-class accumulator"
            )
        if other.means is None:
            return self
        self._check_width(other.means.shape[1])
        totals = self.counts + other.counts
        delta = other.means - self.means
        with np.errstate(invalid="ignore", divide="ignore"):
            weight = np.where(totals > 0, other.counts / np.maximum(totals, 1), 0.0)
            cross = self.counts * weight
        self.means = self.means + delta * weight[:, None]
        self.m2s = self.m2s + other.m2s + cross[:, None] * delta ** 2
        self.counts = totals
        return self

    def variances(self, ddof: int = 1) -> np.ndarray:
        """Per-class per-sample variance (zero rows where count ≤ ddof)."""
        if self.m2s is None:
            raise AccumulatorError("accumulator has seen no traces")
        variances = np.zeros_like(self.m2s)
        enough = self.counts > ddof
        variances[enough] = self.m2s[enough] / (self.counts[enough, None] - ddof)
        return variances

    def class_moments(self, label: int) -> MomentAccumulator:
        """The moments of one class, as a standalone accumulator."""
        if self.means is None:
            raise AccumulatorError("accumulator has seen no traces")
        moments = MomentAccumulator(self.means.shape[1])
        moments.count = int(self.counts[label])
        moments.mean = self.means[label].copy()
        moments.m2 = self.m2s[label].copy()
        return moments

    def grand_mean(self) -> np.ndarray:
        """Overall per-sample mean across every class."""
        if self.means is None:
            raise AccumulatorError("accumulator has seen no traces")
        total = self.count
        if total == 0:
            return np.zeros(self.means.shape[1])
        return (self.counts[:, None] * self.means).sum(axis=0) / total


class CoMomentAccumulator:
    """Streaming cross-moments between a hypothesis matrix and the traces.

    Tracks, over all traces seen, the centered cross-product matrix
    ``C[g, j] = Σ (x_g − x̄_g)(y_j − ȳ_j)`` between ``n_vars`` hypothesis
    variables (rows of the per-chunk ``(n_vars, n_chunk)`` matrix — one key
    guess each for CPA) and ``n_samples`` trace samples, together with both
    marginal M2 vectors.  :meth:`correlation` is then the full Pearson matrix
    of a one-pass streaming CPA, and :meth:`merge` the exact shard reduction.
    """

    def __init__(self, n_vars: Optional[int] = None,
                 n_samples: Optional[int] = None):
        self.count: int = 0
        self.mean_x: Optional[np.ndarray] = None
        self.mean_y: Optional[np.ndarray] = None
        self.m2_x: Optional[np.ndarray] = None
        self.m2_y: Optional[np.ndarray] = None
        self.cross: Optional[np.ndarray] = None
        if n_vars is not None and n_samples is not None:
            self._allocate(n_vars, n_samples)

    def _allocate(self, n_vars: int, n_samples: int) -> None:
        self.mean_x = np.zeros(n_vars)
        self.mean_y = np.zeros(n_samples)
        self.m2_x = np.zeros(n_vars)
        self.m2_y = np.zeros(n_samples)
        self.cross = np.zeros((n_vars, n_samples))

    def _check_shape(self, n_vars: int, n_samples: int) -> None:
        if self.cross is None:
            self._allocate(n_vars, n_samples)
        elif self.cross.shape != (n_vars, n_samples):
            raise AccumulatorError(
                f"chunk shape ({n_vars} vars, {n_samples} samples) does not "
                f"match accumulator shape {self.cross.shape}"
            )

    def update(self, hypothesis: np.ndarray, matrix: np.ndarray
               ) -> "CoMomentAccumulator":
        """Fold one chunk: ``hypothesis`` is ``(n_vars, n_chunk)``, ``matrix``
        the matching ``(n_chunk, n_samples)`` trace block."""
        x = np.asarray(hypothesis, dtype=float)
        y = _as_chunk(matrix)
        if x.ndim != 2 or x.shape[1] != y.shape[0]:
            raise AccumulatorError(
                f"hypothesis covers {x.shape} but the chunk holds "
                f"{y.shape[0]} traces"
            )
        n = y.shape[0]
        if n == 0:
            return self
        self._check_shape(x.shape[0], y.shape[1])
        chunk_mean_x = x.mean(axis=1)
        chunk_mean_y = y.mean(axis=0)
        cx = x - chunk_mean_x[:, None]
        cy = y - chunk_mean_y[None, :]
        chunk_m2_x = np.einsum("ij,ij->i", cx, cx)
        chunk_m2_y = np.einsum("ij,ij->j", cy, cy)
        chunk_cross = cx @ cy

        total = self.count + n
        delta_x = chunk_mean_x - self.mean_x
        delta_y = chunk_mean_y - self.mean_y
        factor = self.count * n / total
        self.cross += chunk_cross + factor * np.outer(delta_x, delta_y)
        self.m2_x += chunk_m2_x + factor * delta_x ** 2
        self.m2_y += chunk_m2_y + factor * delta_y ** 2
        self.mean_x += delta_x * (n / total)
        self.mean_y += delta_y * (n / total)
        self.count = total
        return self

    def merge(self, other: "CoMomentAccumulator") -> "CoMomentAccumulator":
        if other.count == 0:
            return self
        self._check_shape(*other.cross.shape)
        total = self.count + other.count
        delta_x = other.mean_x - self.mean_x
        delta_y = other.mean_y - self.mean_y
        factor = self.count * other.count / total
        self.cross += other.cross + factor * np.outer(delta_x, delta_y)
        self.m2_x += other.m2_x + factor * delta_x ** 2
        self.m2_y += other.m2_y + factor * delta_y ** 2
        self.mean_x += delta_x * (other.count / total)
        self.mean_y += delta_y * (other.count / total)
        self.count = total
        return self

    def correlation(self, rows: slice = ALL_ROWS) -> np.ndarray:
        """The Pearson matrix of everything seen, for the variables ``rows``
        (all ``n_vars`` by default) against every sample.

        Zero-variance rows or columns give 0 rather than NaN, matching
        :func:`repro.core.cpa.pearson_statistics`.  Each entry is the same
        elementwise expression whatever ``rows`` selects.
        """
        if self.cross is None:
            raise AccumulatorError("accumulator has seen no traces")
        cross = self.cross[rows]
        denominator = np.sqrt(
            np.clip(self.m2_x[rows], 0.0, None)[:, None]
            * np.clip(self.m2_y, 0.0, None)[None, :]
        )
        return np.divide(cross, denominator,
                         out=np.zeros_like(cross),
                         where=denominator > 0)
