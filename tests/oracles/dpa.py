"""Per-guess DPA oracle: the literal textbook loop of equations (7)–(9).

:func:`repro.core.dpa.dpa_attack` evaluates every key guess at once with one
matmul; :func:`dpa_attack_reference` splits and averages the trace set one
guess at a time, exactly as the equations read.  The equivalence tests and
``benchmarks/bench_engine_throughput.py`` compare the batched engine against
it.  :func:`_stable_rank` ranks one guess over a full peak vector; the
exceedance decision :func:`repro.core.dpa.ranks_first` is checked against
``_stable_rank(...) == 1``.
"""

from typing import Optional, Sequence

import numpy as np

from repro.core.dpa import (
    DPAError,
    DPAResult,
    GuessResult,
    TraceSet,
    _bias_from_matrix,
    _polarized_bias,
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
