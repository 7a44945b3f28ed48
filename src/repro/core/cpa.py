"""Correlation power analysis and higher-order variants, as attack kernels.

The DPA of Section IV (:mod:`repro.core.dpa`) ranks key guesses by the raw
difference of set means.  A real evaluator's next rungs are:

* **CPA** (Brier-style): predict the *power* of an intermediate with a
  leakage model (:mod:`repro.core.power_model`) and rank guesses by the
  Pearson correlation between prediction and measured samples.  The
  normalization by the per-sample trace variance suppresses amplitude-driven
  ghost peaks, so CPA typically discloses a key byte in a fraction of the
  traces single-bit DPA needs.
* **Second-order DPA/CPA**: combine pairs of samples into centered products
  before running a first-order statistic, defeating first-order masking
  countermeasures (the product of two shares' leakages correlates with the
  unmasked value).

Both are expressed through one *attack-kernel* protocol — ``statistics``
produces the full ``(n_guesses, n_columns)`` distinguisher matrix in one
vectorized pass, ``prefix_states`` walks growing trace prefixes incrementally
and accumulates and finalizes per-guess state only for the blocks of guesses
the rank-1 decision reads — so :func:`run_attack`,
:func:`repro.core.dpa.messages_to_disclosure` and
the :class:`repro.core.flow.AttackCampaign` orchestrator treat every attack
of the suite uniformly.  Everything is linear algebra over the trace matrix:
the correlation of all 256 guesses with all samples is two centered matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..electrical.waveform import Waveform
from .dpa import (
    BlockSums,
    DPAError,
    DPAResult,
    GuessResult,
    TraceSet,
    _bias_matrix,
    dom_prefix_states,
)
from .power_model import LeakageModel, SelectionBitModel, leakage_matrix
from .selection import SelectionFunction, selection_matrix


class AttackKernel(Protocol):
    """Protocol every attack of the suite implements.

    ``statistics`` maps the aligned ``(n_traces, n_samples)`` matrix plus the
    plaintexts to the ``(n_guesses, n_columns)`` distinguisher matrix (bias
    signals for DPA, correlation coefficients for CPA, …); ``prefix_states``
    yields, at every prefix boundary of a messages-to-disclosure sweep, a
    ``peaks_of(rows)`` read-out of the per-guess peak distinguisher over the
    running state, so the sweep finalizes only the guesses its rank-1
    decision (:func:`repro.core.dpa.ranks_first`) reads.
    """

    name: str

    def guesses(self) -> Sequence[int]:
        ...

    def statistics(self, matrix: np.ndarray,
                   plaintexts: Sequence[Sequence[int]],
                   guess_space: Sequence[int]) -> np.ndarray:
        ...

    def prefix_states(self, matrix: np.ndarray,
                      plaintexts: Sequence[Sequence[int]],
                      guess_space: Sequence[int],
                      boundaries: Sequence[int]
                      ) -> Iterator[Tuple[int, Callable[[slice], np.ndarray]]]:
        ...


# ------------------------------------------------------------ Pearson engine
def pearson_statistics(matrix: np.ndarray, hypothesis: np.ndarray) -> np.ndarray:
    """Pearson correlation of every hypothesis row with every sample column.

    ``matrix`` is the ``(n_traces, n_samples)`` measurement, ``hypothesis``
    the ``(n_guesses, n_traces)`` hypothetical power of a leakage model; the
    result is the ``(n_guesses, n_samples)`` correlation matrix, computed as
    one matmul between the centered operands.  Columns or rows with zero
    variance (a constant sample, a constant prediction) yield 0 rather than
    NaN, matching the "no information" reading of the attack.
    """
    matrix = np.asarray(matrix, dtype=float)
    hypothesis = np.asarray(hypothesis, dtype=float)
    if hypothesis.shape[1] != matrix.shape[0]:
        raise DPAError(
            f"hypothesis covers {hypothesis.shape[1]} traces but the matrix "
            f"holds {matrix.shape[0]}"
        )
    centered_traces = matrix - matrix.mean(axis=0, keepdims=True)
    centered_model = hypothesis - hypothesis.mean(axis=1, keepdims=True)
    covariance = centered_model @ centered_traces
    trace_norm = np.sqrt((centered_traces ** 2).sum(axis=0))
    model_norm = np.sqrt((centered_model ** 2).sum(axis=1))
    denominator = model_norm[:, None] * trace_norm[None, :]
    return np.divide(covariance, denominator,
                     out=np.zeros_like(covariance), where=denominator > 0)


def cpa_prefix_states(matrix: np.ndarray, hypothesis: np.ndarray,
                      boundaries: Sequence[int]
                      ) -> Iterator[Tuple[int, Callable[[slice], np.ndarray]]]:
    """The Pearson state at every prefix boundary, incrementally.

    Pearson's coefficient over a prefix only needs five running sums: trace
    sums and squares per sample, hypothesis sums and squares per guess, and
    the guess×sample cross products.  The first four are kept for every
    guess; the cross products are a :class:`repro.core.dpa.BlockSums`,
    accumulated with one small matmul per segment only for the blocks of
    guesses a caller reads.  Yields ``(count, peaks_of)`` pairs as
    :func:`repro.core.dpa.dom_prefix_states` does: ``peaks_of(rows)`` is the
    per-guess max |correlation| of the guesses ``rows``, finalized only for
    those rows and valid until the generator advances.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    hypothesis = np.asarray(hypothesis, dtype=float)
    n_guesses, n_samples = hypothesis.shape[0], matrix.shape[1]
    trace_sum = np.zeros(n_samples)
    trace_sq = np.zeros(n_samples)
    model_sum = np.zeros(n_guesses)
    model_sq = np.zeros(n_guesses)
    cross = BlockSums(hypothesis, matrix)

    def peaks_of(rows: slice, count: int) -> np.ndarray:
        covariance = (count * cross[rows]
                      - model_sum[rows, None] * trace_sum[None, :])
        trace_var = count * trace_sq - trace_sum ** 2
        model_var = count * model_sq[rows] - model_sum[rows] ** 2
        denominator = np.sqrt(
            np.clip(model_var, 0.0, None)[:, None]
            * np.clip(trace_var, 0.0, None)[None, :]
        )
        correlation = np.divide(covariance, denominator,
                                out=np.zeros_like(covariance),
                                where=denominator > 0)
        return np.abs(correlation).max(axis=1)

    previous = 0
    for count in boundaries:
        segment = slice(previous, count)
        trace_sum += matrix[segment].sum(axis=0)
        trace_sq += (matrix[segment] ** 2).sum(axis=0)
        model_sum += hypothesis[:, segment].sum(axis=1)
        model_sq += (hypothesis[:, segment] ** 2).sum(axis=1)
        cross.advance(segment)
        previous = count
        yield count, partial(peaks_of, count=count)


def cpa_prefix_peaks(matrix: np.ndarray, hypothesis: np.ndarray,
                     boundaries: Sequence[int]
                     ) -> Iterator[Tuple[int, np.ndarray]]:
    """Every guess's correlation peak at every prefix boundary (all-rows
    view of :func:`cpa_prefix_states`)."""
    for count, peaks_of in cpa_prefix_states(matrix, hypothesis, boundaries):
        yield count, peaks_of(slice(None))


# ----------------------------------------------------------------- kernels
def _memoized(kernel, key: tuple, compute):
    """One-slot memo on a frozen kernel instance.

    An attack over a trace set touches its hypothesis/bit matrix twice — once
    for the full-set ranking, once for the disclosure sweep — so kernels keep
    the last computed matrix and return it when called again with equal
    inputs (the equality check is trivially cheap next to the rebuild).  The
    sweep needs the whole matrix too: its set sizes or model sums cover every
    guess, and its :class:`repro.core.dpa.BlockSums` hold on to the matrix to
    slice the blocks of guesses it reads later.  Callers share the cached
    array and never write to it.
    """
    cached = getattr(kernel, "_memo", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    value = compute()
    object.__setattr__(kernel, "_memo", (key, value))
    return value


@dataclass(frozen=True)
class DpaKernel:
    """The Section-IV difference-of-means attack as a kernel."""

    selection: SelectionFunction

    @property
    def name(self) -> str:
        return f"dom({self.selection.name})"

    def guesses(self) -> Sequence[int]:
        return self.selection.guesses()

    def _bits(self, plaintexts, guess_space) -> np.ndarray:
        return _memoized(
            self, (plaintexts, list(guess_space)),
            lambda: selection_matrix(self.selection, plaintexts, guess_space),
        )

    def statistics(self, matrix, plaintexts, guess_space) -> np.ndarray:
        bias, _ = _bias_matrix(matrix, self._bits(plaintexts, guess_space))
        return bias

    def prefix_states(self, matrix, plaintexts, guess_space, boundaries):
        return dom_prefix_states(matrix, self._bits(plaintexts, guess_space),
                                 boundaries)


@dataclass(frozen=True)
class CpaKernel:
    """Correlation power analysis against a leakage model."""

    model: LeakageModel

    @property
    def name(self) -> str:
        return f"cpa[{self.model.name}]"

    def guesses(self) -> Sequence[int]:
        return self.model.guesses()

    def _hypothesis(self, plaintexts, guess_space) -> np.ndarray:
        return _memoized(
            self, (plaintexts, list(guess_space)),
            lambda: leakage_matrix(self.model, plaintexts, guess_space),
        )

    def statistics(self, matrix, plaintexts, guess_space) -> np.ndarray:
        return pearson_statistics(matrix,
                                  self._hypothesis(plaintexts, guess_space))

    def prefix_states(self, matrix, plaintexts, guess_space, boundaries):
        return cpa_prefix_states(matrix,
                                 self._hypothesis(plaintexts, guess_space),
                                 boundaries)


def centered_product_matrix(matrix: np.ndarray, *,
                            pairs: Optional[Sequence[Tuple[int, int]]] = None,
                            window: Optional[int] = None,
                            region: Optional[Sequence[int]] = None
                            ) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Second-order preprocessing: centered products of sample pairs.

    Column ``p`` of the result is ``(S[:, j] − mean_j) · (S[:, k] − mean_k)``
    for the ``p``-th ``(j, k)`` pair.  Pairs are either given explicitly
    (``j == k`` is allowed — the univariate squared combining) or generated
    from every ordered pair of ``region`` columns (default: all samples) at
    most ``window`` samples apart.  The column means are those of the full
    matrix, so prefix sweeps reuse one combined matrix (the standard
    full-set-centering approximation).
    """
    matrix = np.asarray(matrix, dtype=float)
    if pairs is None:
        columns = (np.arange(matrix.shape[1], dtype=np.int64)
                   if region is None else np.asarray(list(region), dtype=np.int64))
        span = int(window) if window is not None else matrix.shape[1]
        pairs = [
            (int(columns[a]), int(columns[b]))
            for a in range(len(columns))
            for b in range(a + 1, len(columns))
            if abs(int(columns[b]) - int(columns[a])) <= span
        ]
    pairs = [(int(j), int(k)) for j, k in pairs]
    if not pairs:
        raise DPAError("second-order combining produced no sample pairs; "
                       "widen the window or pass pairs explicitly")
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    first = np.asarray([j for j, _ in pairs], dtype=np.int64)
    second = np.asarray([k for _, k in pairs], dtype=np.int64)
    return centered[:, first] * centered[:, second], pairs


@dataclass(frozen=True)
class SecondOrderKernel:
    """Any first-order kernel run over centered-product combined samples.

    Wrapping :class:`DpaKernel` gives the classic second-order DPA of
    Messerges; wrapping :class:`CpaKernel` gives second-order CPA.  The
    distinguisher columns index the combined ``(j, k)`` pairs rather than
    time samples.
    """

    inner: AttackKernel
    pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    window: Optional[int] = None
    region: Optional[Tuple[int, ...]] = None

    @property
    def name(self) -> str:
        return f"o2[{self.inner.name}]"

    def guesses(self) -> Sequence[int]:
        return self.inner.guesses()

    def _combined(self, matrix: np.ndarray) -> np.ndarray:
        # Keyed by identity: TraceSet.matrix() returns its cached array, so
        # ranking and disclosure over one trace set combine samples once.
        cached = getattr(self, "_combined_memo", None)
        if cached is not None and cached[0] is matrix:
            return cached[1]
        combined, _ = centered_product_matrix(
            matrix, pairs=self.pairs, window=self.window, region=self.region
        )
        object.__setattr__(self, "_combined_memo", (matrix, combined))
        return combined

    def statistics(self, matrix, plaintexts, guess_space) -> np.ndarray:
        return self.inner.statistics(self._combined(matrix), plaintexts,
                                     guess_space)

    def prefix_states(self, matrix, plaintexts, guess_space, boundaries):
        return self.inner.prefix_states(self._combined(matrix), plaintexts,
                                        guess_space, boundaries)


def as_leakage_model(model_or_selection) -> LeakageModel:
    """Coerce a selection function into its CPA leakage model.

    Objects already exposing ``model_matrix`` pass through; a plain selection
    function is wrapped in :class:`SelectionBitModel` (correlation against
    the D bit — the normalized difference-of-means).
    """
    if hasattr(model_or_selection, "model_matrix"):
        return model_or_selection
    if hasattr(model_or_selection, "guesses"):
        return SelectionBitModel(model_or_selection)
    raise TypeError(f"{model_or_selection!r} is neither a leakage model nor "
                    "a selection function")


# ------------------------------------------------------------------ attacks
def result_from_statistic(statistic: np.ndarray, guess_space: Sequence[int],
                          name: str, trace_count: int, dt: float, t0: float,
                          *, keep_statistic: bool = False) -> DPAResult:
    """Rank key guesses from a computed ``(n_guesses, n_columns)`` statistic.

    The shared back half of every attack path: :func:`run_attack` feeds it
    the kernel's in-memory distinguisher, and the streaming states of
    :mod:`repro.assess.streaming` feed it their accumulated one — so both
    produce structurally identical :class:`DPAResult` objects.
    """
    statistic = np.asarray(statistic, dtype=float)
    if statistic.ndim != 2 or statistic.shape[0] != len(guess_space):
        raise DPAError(
            f"kernel {name!r} produced a {statistic.shape} statistic "
            f"for {len(guess_space)} guesses"
        )
    absolute = np.abs(statistic)
    peak_indices = np.argmax(absolute, axis=1)
    peaks = absolute[np.arange(len(guess_space)), peak_indices]
    rms = np.sqrt(np.mean(statistic ** 2, axis=1))

    result = DPAResult(selection_name=name, trace_count=trace_count)
    for index, guess in enumerate(guess_space):
        guess_result = GuessResult(
            guess=guess,
            peak=float(peaks[index]),
            peak_time=t0 + int(peak_indices[index]) * dt,
            rms=float(rms[index]),
        )
        if keep_statistic:
            guess_result.bias = Waveform(statistic[index].copy(), dt, t0)
        result.results.append(guess_result)
    return result


def run_attack(traces: TraceSet, kernel: AttackKernel, *,
               guesses: Optional[Sequence[int]] = None,
               keep_statistic: bool = False) -> DPAResult:
    """Run any attack kernel over a trace set and rank the key guesses.

    The generic counterpart of :func:`repro.core.dpa.dpa_attack`: the kernel
    produces its distinguisher matrix in one vectorized pass and the result
    carries the same ranking API (:class:`DPAResult`), so campaign
    orchestration and reporting are attack-agnostic.  When the kernel
    preserves the sample axis the peak time is a real trace time; kernels
    that recombine samples (second order) report the peak *column* index
    scaled by ``dt`` instead.
    """
    if len(traces) == 0:
        raise DPAError("cannot attack an empty trace set")
    matrix = traces.matrix()
    dt, t0 = traces._time_params()
    guess_space = list(guesses) if guesses is not None else list(kernel.guesses())

    statistic = np.asarray(
        kernel.statistics(matrix, traces.plaintexts(), guess_space), dtype=float
    )
    return result_from_statistic(statistic, guess_space, kernel.name,
                                 len(traces), dt, t0,
                                 keep_statistic=keep_statistic)


def cpa_attack(traces: TraceSet, model, *,
               guesses: Optional[Sequence[int]] = None,
               keep_correlation: bool = False) -> DPAResult:
    """Vectorized CPA over all key guesses in one pass.

    ``model`` is a leakage model of :mod:`repro.core.power_model`
    (:class:`HammingWeightModel`, :class:`HammingDistanceModel`, …) or a
    plain selection function, which is correlated through its D bit.  Guess
    peaks are absolute Pearson coefficients, so ``DPAResult.ranking`` orders
    by correlation strength.
    """
    return run_attack(traces, CpaKernel(as_leakage_model(model)),
                      guesses=guesses, keep_statistic=keep_correlation)


def second_order_dpa_attack(traces: TraceSet, selection: SelectionFunction, *,
                            pairs: Optional[Sequence[Tuple[int, int]]] = None,
                            window: Optional[int] = None,
                            region: Optional[Sequence[int]] = None,
                            guesses: Optional[Sequence[int]] = None,
                            keep_statistic: bool = False) -> DPAResult:
    """Second-order centered-product DPA (difference of combined-sample means).

    Sample pairs are combined with :func:`centered_product_matrix`; restrict
    them with ``pairs``/``window``/``region`` — the pair count grows
    quadratically with the region size.
    """
    kernel = SecondOrderKernel(
        DpaKernel(selection),
        pairs=tuple((int(j), int(k)) for j, k in pairs) if pairs is not None else None,
        window=window,
        region=tuple(int(c) for c in region) if region is not None else None,
    )
    return run_attack(traces, kernel, guesses=guesses,
                      keep_statistic=keep_statistic)


def second_order_cpa_attack(traces: TraceSet, model, *,
                            pairs: Optional[Sequence[Tuple[int, int]]] = None,
                            window: Optional[int] = None,
                            region: Optional[Sequence[int]] = None,
                            guesses: Optional[Sequence[int]] = None,
                            keep_statistic: bool = False) -> DPAResult:
    """Second-order CPA: Pearson correlation over centered-product samples."""
    kernel = SecondOrderKernel(
        CpaKernel(as_leakage_model(model)),
        pairs=tuple((int(j), int(k)) for j, k in pairs) if pairs is not None else None,
        window=window,
        region=tuple(int(c) for c in region) if region is not None else None,
    )
    return run_attack(traces, kernel, guesses=guesses,
                      keep_statistic=keep_statistic)
