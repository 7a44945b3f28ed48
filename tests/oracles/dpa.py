"""Per-guess DPA oracle: the literal textbook loop of equations (7)–(9).

:func:`repro.core.dpa.dpa_attack` evaluates every key guess at once with one
matmul; :func:`dpa_attack_reference` splits and averages the trace set one
guess at a time, exactly as the equations read.  The equivalence tests and
``benchmarks/bench_engine_throughput.py`` compare the batched engine against
it.  :func:`_stable_rank` ranks one guess over a full peak vector; the
exceedance decision :func:`repro.core.dpa.ranks_first` is checked against
``_stable_rank(...) == 1``.

:func:`dom_prefix_states` and :func:`cpa_prefix_states` are the eager prefix
sweeps: they accumulate the guess×sample sums of every guess at every
boundary, with one all-guess matmul per segment.  The engine's sweeps of the
same names accumulate only the blocks of guesses that are read
(:class:`repro.core.dpa.BlockSums`), and every read must be bit-identical
to these.
"""

from functools import partial
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.dpa import (
    DPAError,
    DPAResult,
    GuessResult,
    TraceSet,
    _bias_from_matrix,
    _polarized_bias,
    dom_bias,
)
from repro.core.selection import SelectionFunction
from repro.electrical.waveform import Waveform


def dpa_attack_reference(traces: TraceSet, selection: SelectionFunction, *,
                         guesses: Optional[Sequence[int]] = None,
                         keep_bias: bool = False,
                         polarity: str = "abs") -> DPAResult:
    """The literal per-guess formulation of the attack (reference path).

    Splits and averages the trace set one key guess at a time, exactly as the
    equations read.  Kept as the equivalence oracle for :func:`dpa_attack`
    and as the baseline of the engine-throughput benchmark.
    """
    if len(traces) == 0:
        raise DPAError("cannot attack an empty trace set")
    matrix = traces.matrix()
    dt, t0 = traces._time_params()
    guess_space = list(guesses) if guesses is not None else list(selection.guesses())

    result = DPAResult(selection_name=selection.name, trace_count=len(traces))
    for guess in guess_space:
        bits = np.array([selection(t.plaintext, guess) for t in traces], dtype=int)
        bias = _bias_from_matrix(matrix, bits)
        if bias is None:
            result.results.append(GuessResult(guess=guess, peak=0.0,
                                              peak_time=t0, rms=0.0, bias=None))
            continue
        abs_bias = _polarized_bias(bias, polarity)
        peak_index = int(np.argmax(abs_bias))
        guess_result = GuessResult(
            guess=guess,
            peak=float(abs_bias[peak_index]),
            peak_time=t0 + peak_index * dt,
            rms=float(np.sqrt(np.mean(bias ** 2))),
        )
        if keep_bias:
            guess_result.bias = Waveform(bias.copy(), dt, t0)
        result.results.append(guess_result)
    return result


def _stable_rank(peaks: np.ndarray, correct_index: int) -> int:
    """1-based rank of ``peaks[correct_index]`` under a stable descending sort.

    Matches :meth:`DPAResult.rank_of` exactly: guesses with a strictly larger
    peak rank first, and ties are broken by position in the guess space.
    """
    correct_peak = peaks[correct_index]
    better = int((peaks > correct_peak).sum())
    earlier_ties = int((peaks[:correct_index] == correct_peak).sum())
    return 1 + better + earlier_ties


def dom_prefix_states(matrix: np.ndarray, bit_matrix: np.ndarray,
                      boundaries: Sequence[int]
                      ) -> Iterator[Tuple[int, Callable[[slice], np.ndarray]]]:
    """The difference-of-means state at every prefix boundary, incrementally.

    Yields ``(count, peaks_of)`` pairs where ``peaks_of(rows)`` returns the
    maximum absolute bias of the guesses ``rows`` over the first ``count``
    traces; it reads the running state, so call it before advancing the
    generator.  The per-guess set sums of each prefix are the running sums
    of the previous prefix plus one small matmul over the new slice of
    traces — the whole sweep costs a single full attack, O(N·m) per guess,
    instead of re-running the attack from scratch at every prefix size
    (O(N²·m)) — and only the guesses a caller reads are finalized.
    """
    n_guesses, n_samples = bit_matrix.shape[0], matrix.shape[1]
    # Running prefix sums (equation (8) numerators and set sizes).
    sum1 = np.zeros((n_guesses, n_samples))
    sum_all = np.zeros(n_samples)
    counts1 = np.zeros(n_guesses)

    def peaks_of(rows: slice, count: int) -> np.ndarray:
        bias, _ = dom_bias(sum1[rows], sum_all, counts1[rows], count)
        return np.abs(bias).max(axis=1)

    previous = 0
    for count in boundaries:
        segment = slice(previous, count)
        sum_all += matrix[segment].sum(axis=0)
        sum1 += bit_matrix[:, segment].astype(float) @ matrix[segment]
        counts1 += bit_matrix[:, segment].sum(axis=1)
        previous = count
        yield count, partial(peaks_of, count=count)


def cpa_prefix_states(matrix: np.ndarray, hypothesis: np.ndarray,
                      boundaries: Sequence[int]
                      ) -> Iterator[Tuple[int, Callable[[slice], np.ndarray]]]:
    """The Pearson state at every prefix boundary, incrementally.

    Pearson's coefficient over a prefix only needs five running sums (trace
    sums and squares per sample, hypothesis sums and squares per guess, and
    the cross-product matrix), each updatable with one small matmul over the
    newly added slice — the whole sweep costs a single full CPA instead of
    one CPA per prefix size.  Yields ``(count, peaks_of)`` pairs as
    :func:`dom_prefix_states` does: ``peaks_of(rows)`` is the per-guess max
    |correlation| of the guesses ``rows``, finalized only for those rows and
    valid until the generator advances.
    """
    matrix = np.asarray(matrix, dtype=float)
    hypothesis = np.asarray(hypothesis, dtype=float)
    n_guesses, n_samples = hypothesis.shape[0], matrix.shape[1]
    trace_sum = np.zeros(n_samples)
    trace_sq = np.zeros(n_samples)
    model_sum = np.zeros(n_guesses)
    model_sq = np.zeros(n_guesses)
    cross = np.zeros((n_guesses, n_samples))

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
        cross += hypothesis[:, segment] @ matrix[segment]
        previous = count
        yield count, partial(peaks_of, count=count)
