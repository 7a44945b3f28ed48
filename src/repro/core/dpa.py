"""Differential Power Analysis on power-trace sets (equations (7)–(9)).

Following the formalisation of Messerges et al. recalled in Section IV of the
paper, a DPA attack:

1. collects ``N`` power traces ``S_ij`` (trace ``i``, sample ``j``) together
   with the plaintexts ``PTI_i`` that produced them;
2. for every key guess, splits the traces into two sets according to a
   selection function ``D`` (equation (7));
3. averages each set (equation (8)) and computes the bias signal
   ``T[j] = A0[j] − A1[j]`` (equation (9));
4. declares the guess whose bias shows the strongest peaks to be the key.

The whole attack is linear algebra over the ``(n_traces, n_samples)`` sample
matrix: with the selection bits of every guess stacked into a matrix ``B``
(``n_guesses × n_traces``), the per-guess set sums of equation (8) are the
single matmul ``B · S`` and the bias signals of equation (9) follow from two
row-wise divisions.  :func:`dpa_attack` therefore evaluates **all key guesses
at once**; the per-trace, per-guess formulation it replaces lives with the
tests (``tests/oracles/dpa.py``) so the batched engine can always be checked
against the literal textbook loop.

:func:`messages_to_disclosure` grows the trace prefix and asks at every
boundary only whether the correct guess ranks first.  The prefix states
(:func:`dom_prefix_states` and the kernel ``prefix_states`` protocol)
accumulate their guess×sample sums (:class:`BlockSums`) and finalize peaks
only for the guesses :func:`ranks_first` reads: the correct one, then
blocks of :data:`BLOCK` guesses until one beats it.

The classes here are agnostic of where the traces come from: the library's
own synthesized traces (XOR block, asynchronous AES) or any externally
acquired waveform set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..electrical.waveform import Waveform, _same_period, stack_aligned
from .selection import SelectionFunction, selection_matrix


class DPAError(Exception):
    """Raised on malformed trace sets or attack parameters."""


@dataclass
class PowerTrace:
    """One acquired power trace and the plaintext that produced it."""

    waveform: Waveform
    plaintext: List[int]
    metadata: Dict[str, object] = field(default_factory=dict)


class TraceSet:
    """An ordered collection of :class:`PowerTrace` with a common time base.

    The set is backed by a contiguous ``(n_traces, n_samples)`` sample matrix
    plus an ``(n_traces, block)`` plaintext matrix, both built lazily and
    cached (alignment happens exactly once; :meth:`add` invalidates the
    caches).  The per-trace :class:`PowerTrace` API — iteration, indexing,
    ``waveforms()`` — is preserved as a view over the matrix rows, so existing
    per-trace code keeps working while the attack engine stays array-first.
    """

    def __init__(self, traces: Optional[Iterable[PowerTrace]] = None):
        self._traces: List[PowerTrace] = list(traces) if traces is not None else []
        self._matrix: Optional[np.ndarray] = None
        self._dt: Optional[float] = None
        self._t0: Optional[float] = None
        self._plaintext_matrix: Optional[np.ndarray] = None

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, plaintexts: Sequence[Sequence[int]],
                    dt: float, t0: float = 0.0,
                    metadata: Optional[Sequence[Mapping[str, object]]] = None
                    ) -> "TraceSet":
        """Build a trace set directly from an aligned sample matrix.

        This is the fast path used by the batched trace generators: the matrix
        is adopted as-is (rows become the waveforms of the per-trace view), so
        no per-trace alignment or copying ever happens.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DPAError(f"expected an (n_traces, n_samples) matrix, "
                           f"got shape {matrix.shape}")
        if len(plaintexts) != matrix.shape[0]:
            raise DPAError(f"got {len(plaintexts)} plaintexts for "
                           f"{matrix.shape[0]} trace rows")
        if dt <= 0:
            raise DPAError(f"sampling period must be > 0, got {dt}")
        traces = cls()
        for index, plaintext in enumerate(plaintexts):
            extra = dict(metadata[index]) if metadata is not None else {}
            traces._traces.append(PowerTrace(
                waveform=Waveform(matrix[index], dt, t0),
                plaintext=list(plaintext), metadata=extra,
            ))
        traces._matrix = matrix
        traces._dt = dt
        traces._t0 = t0
        return traces

    def _invalidate(self) -> None:
        self._matrix = None
        self._dt = None
        self._t0 = None
        self._plaintext_matrix = None

    def add(self, waveform: Waveform, plaintext: Sequence[int], **metadata) -> None:
        self._traces.append(PowerTrace(waveform=waveform, plaintext=list(plaintext),
                                       metadata=dict(metadata)))
        self._invalidate()

    def extend(self, other: "TraceSet") -> None:
        """Append every trace of ``other`` (chunk-wise growth of a set).

        When both sets already carry an aligned sample matrix on the same
        time base, the matrices are stacked block-wise — no per-trace
        re-alignment ever happens, so growing a set chunk by chunk costs one
        ``vstack`` per chunk instead of re-aligning the whole history.  In
        every other case the caches are invalidated and the next
        :meth:`matrix` call re-aligns from scratch, which keeps the cache
        correct by construction.

        Sharing contract: the appended :class:`PowerTrace` objects are
        shared with ``other`` (they are immutable records), but the
        destination always **owns** its cached sample matrix — the
        empty-destination fast path copies ``other``'s matrix, exactly as
        the ``vstack`` of the non-empty path allocates fresh rows.  Mutating
        ``self.matrix()``'s return therefore never corrupts ``other`` (nor a
        parent set that ``other`` was zero-copy :meth:`subset` from), and
        ``other.add(...)`` after an extend invalidates only ``other``'s
        cache, never the destination's.
        """
        if len(other._traces) == 0:
            return
        appended = list(other._traces)
        reusable = (
            self._matrix is not None
            and other._matrix is not None
            and self._matrix.shape[1] == other._matrix.shape[1]
            and _same_period(self._dt, other._dt)
            and self._t0 == other._t0
        )
        if len(self._traces) == 0:
            self._traces = appended
            matrix = other._matrix
            self._matrix = None if matrix is None else matrix.copy()
            self._dt = other._dt
            self._t0 = other._t0
            self._plaintext_matrix = None
            return
        if reusable:
            self._matrix = np.vstack([self._matrix, other._matrix])
            self._plaintext_matrix = None
        else:
            self._invalidate()
        self._traces.extend(appended)

    def iter_chunks(self, chunk_size: int) -> Iterable["TraceSet"]:
        """Iterate the set as consecutive blocks of up to ``chunk_size`` traces.

        When the aligned matrix is already built every block shares its rows
        (zero-copy slices, like :meth:`subset`); otherwise each block wraps
        its slice of the per-trace list.  This is how an in-memory set feeds
        the streaming assessment pipelines of :mod:`repro.assess`.
        """
        if chunk_size < 1:
            raise DPAError(f"chunk size must be >= 1, got {chunk_size}")
        for start in range(0, len(self._traces), chunk_size):
            stop = start + chunk_size
            if self._matrix is not None:
                yield TraceSet.from_matrix(
                    self._matrix[start:stop],
                    [t.plaintext for t in self._traces[start:stop]],
                    self._dt, self._t0,
                    metadata=[t.metadata for t in self._traces[start:stop]],
                )
            else:
                yield TraceSet(self._traces[start:stop])

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self):
        return iter(self._traces)

    def __getitem__(self, index: int) -> PowerTrace:
        return self._traces[index]

    def subset(self, count: int) -> "TraceSet":
        """The first ``count`` traces (used for messages-to-disclosure sweeps).

        ``count`` must be non-negative (a negative value raises
        :class:`DPAError` instead of silently slicing from the end) and is
        clamped to the set size, so ``subset(count)`` always holds exactly
        ``min(count, len(self))`` traces.  When the sample matrix is already
        built the subset shares its rows (a zero-copy slice), so
        growing-prefix sweeps never re-align anything.
        """
        if count < 0:
            raise DPAError(f"subset count must be >= 0, got {count}")
        count = min(count, len(self._traces))
        if self._matrix is not None:
            return TraceSet.from_matrix(
                self._matrix[:count],
                [t.plaintext for t in self._traces[:count]],
                self._dt, self._t0,
                metadata=[t.metadata for t in self._traces[:count]],
            )
        return TraceSet(self._traces[:count])

    def plaintexts(self) -> List[List[int]]:
        return [t.plaintext for t in self._traces]

    def plaintext_matrix(self) -> np.ndarray:
        """All plaintexts stacked into an ``(n_traces, block)`` int matrix."""
        if self._plaintext_matrix is None:
            if not self._traces:
                raise DPAError("empty trace set has no plaintext matrix")
            lengths = {len(t.plaintext) for t in self._traces}
            if len(lengths) != 1:
                raise DPAError(f"plaintexts have mixed lengths {sorted(lengths)}; "
                               "cannot build a rectangular matrix")
            self._plaintext_matrix = np.asarray(
                [t.plaintext for t in self._traces], dtype=np.int64
            )
        return self._plaintext_matrix

    def waveforms(self) -> List[Waveform]:
        return [t.waveform for t in self._traces]

    @property
    def dt(self) -> float:
        if not self._traces:
            raise DPAError("empty trace set has no time base")
        return self._traces[0].waveform.dt

    def matrix(self) -> np.ndarray:
        """Stack all traces into an ``(n_traces, n_samples)`` matrix.

        Alignment over the set happens on the first call only; the result is
        cached until the set is mutated.
        """
        if self._matrix is None:
            if not self._traces:
                raise DPAError("cannot build a matrix from an empty trace set")
            self._matrix, self._dt, self._t0 = stack_aligned(
                [t.waveform for t in self._traces]
            )
        return self._matrix

    def time_base(self) -> Waveform:
        """The first trace on the set's common time base (cached alignment)."""
        matrix = self.matrix()
        return Waveform(matrix[0].copy(), self._dt, self._t0)

    def _time_params(self) -> Tuple[float, float]:
        """``(dt, t0)`` of the aligned matrix (building it if needed)."""
        self.matrix()
        return self._dt, self._t0


# ----------------------------------------------------------------- partition
def selection_bits(traces: TraceSet, selection: SelectionFunction,
                   key_guess: int) -> np.ndarray:
    """The D-function value for every trace of the set (0/1 vector)."""
    return selection_matrix(selection, traces.plaintexts(), [key_guess])[0]


def partition_traces(traces: TraceSet, selection: SelectionFunction,
                     key_guess: int) -> Tuple[List[Waveform], List[Waveform]]:
    """Equation (7): split traces into ``S0`` (D = 0) and ``S1`` (D = 1)."""
    bits = selection_bits(traces, selection, key_guess)
    set0 = [trace.waveform for trace, bit in zip(traces, bits) if bit == 0]
    set1 = [trace.waveform for trace, bit in zip(traces, bits) if bit == 1]
    return set0, set1


def partition_by_values(traces: TraceSet, bits: Sequence[int]
                        ) -> Tuple[List[Waveform], List[Waveform]]:
    """Split traces by externally supplied bit values (known-key assessment)."""
    if len(bits) != len(traces):
        raise DPAError(
            f"got {len(bits)} selection bits for {len(traces)} traces"
        )
    set0 = [trace.waveform for trace, bit in zip(traces, bits) if bit == 0]
    set1 = [trace.waveform for trace, bit in zip(traces, bits) if bit == 1]
    return set0, set1


def _bias_from_matrix(matrix: np.ndarray, bits: np.ndarray) -> Optional[np.ndarray]:
    mask1 = bits == 1
    mask0 = ~mask1
    if not mask0.any() or not mask1.any():
        return None
    return matrix[mask0].mean(axis=0) - matrix[mask1].mean(axis=0)


def _bias_matrix(matrix: np.ndarray, bit_matrix: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Equations (8)–(9) for every guess at once.

    ``bit_matrix`` is the ``(n_guesses, n_traces)`` selection-bit matrix;
    the result is the ``(n_guesses, n_samples)`` bias matrix together with a
    boolean validity vector (a guess whose partition is single-sided has no
    bias and gets a zero row, matching the per-guess reference).
    """
    return dom_bias(bit_matrix.astype(float) @ matrix, matrix.sum(axis=0),
                    bit_matrix.sum(axis=1), matrix.shape[0])


def dom_bias(sum1: np.ndarray, sum_all: np.ndarray, counts1: np.ndarray,
             count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Equation (9) from the set sums of equation (8), row by row.

    ``sum1``/``counts1`` are the selected-set sums and sizes of any slice of
    guesses, ``sum_all`` the all-trace sum over ``count`` traces.  Every
    entry is the same elementwise expression whatever rows are passed, so a
    slice of guesses gets bit-identical rows to the full matrix.
    """
    counts0 = count - counts1
    valid = (counts1 > 0) & (counts0 > 0)
    bias = np.zeros(sum1.shape)
    if valid.any():
        bias[valid] = ((sum_all - sum1[valid]) / counts0[valid, None]
                       - sum1[valid] / counts1[valid, None])
    return bias, valid


def dpa_bias(traces: TraceSet, selection: SelectionFunction,
             key_guess: int) -> Waveform:
    """Equations (8)–(9): the DPA bias signal ``T[j]`` for one key guess."""
    matrix = traces.matrix()
    dt, t0 = traces._time_params()
    bits = selection_bits(traces, selection, key_guess)
    bias = _bias_from_matrix(matrix, bits)
    if bias is None:
        return Waveform(np.zeros(matrix.shape[1]), dt, t0)
    return Waveform(bias, dt, t0)


# -------------------------------------------------------------------- attack
@dataclass
class GuessResult:
    """Bias signal and summary statistics for one key guess."""

    guess: int
    peak: float
    peak_time: float
    rms: float
    bias: Optional[Waveform] = None

    def __repr__(self) -> str:
        return (f"GuessResult(guess={self.guess:#x}, peak={self.peak:.3e}, "
                f"t={self.peak_time:.3e})")


@dataclass
class DPAResult:
    """Outcome of a full DPA attack (all key guesses of a selection function)."""

    selection_name: str
    trace_count: int
    results: List[GuessResult] = field(default_factory=list)

    def ranking(self) -> List[GuessResult]:
        """Guesses sorted by decreasing bias peak."""
        return sorted(self.results, key=lambda r: r.peak, reverse=True)

    @property
    def best_guess(self) -> int:
        return self.ranking()[0].guess

    @property
    def best_peak(self) -> float:
        return self.ranking()[0].peak

    def result_for(self, guess: int) -> GuessResult:
        for result in self.results:
            if result.guess == guess:
                return result
        raise DPAError(f"guess {guess:#x} was not part of the attack")

    def rank_of(self, guess: int) -> int:
        """1-based rank of a guess (1 = the attack's best candidate)."""
        ranked = self.ranking()
        for index, result in enumerate(ranked):
            if result.guess == guess:
                return index + 1
        raise DPAError(f"guess {guess:#x} was not part of the attack")

    def discrimination_ratio(self, correct_guess: int) -> float:
        """Peak of the correct guess divided by the best wrong-guess peak.

        Values above 1 mean the attack distinguishes the key; large values
        mean it does so comfortably.
        """
        correct = self.result_for(correct_guess).peak
        wrong = [r.peak for r in self.results if r.guess != correct_guess]
        if not wrong:
            return float("inf")
        best_wrong = max(wrong)
        if best_wrong == 0.0:
            return float("inf") if correct > 0 else 1.0
        return correct / best_wrong


def _polarized_bias(bias: np.ndarray, polarity: str) -> np.ndarray:
    """Apply the expected bias polarity before peak extraction.

    ``"abs"`` is the classic two-sided peak.  ``"negative"`` /
    ``"positive"`` implement the single-sided variant: when the attacker
    knows which partition consumes more charge (under the paper's model the
    ``D = 1`` traces of the correct guess draw *more* current, so
    ``T = A0 − A1`` peaks negative), only peaks of that sign count — which
    resolves the complement ambiguity of Hamming-weight selections against
    linear leakage.  Wrong-side excursions are clipped to zero, so
    :attr:`GuessResult.peak` stays non-negative under every polarity (a
    guess with no peak of the expected sign carries no evidence, exactly
    like a guess with a single-sided partition) and the ranking /
    discrimination-ratio semantics are unchanged.
    """
    if polarity == "abs":
        return np.abs(bias)
    if polarity == "negative":
        return np.maximum(-bias, 0.0)
    if polarity == "positive":
        return np.maximum(bias, 0.0)
    raise DPAError(f"unknown polarity {polarity!r}; "
                   "expected 'abs', 'positive' or 'negative'")


def dpa_attack(traces: TraceSet, selection: SelectionFunction, *,
               guesses: Optional[Sequence[int]] = None,
               keep_bias: bool = False,
               polarity: str = "abs") -> DPAResult:
    """Run the DPA attack of Section IV over a set of key guesses.

    All guesses are evaluated at once: the selection-bit matrix ``B`` of the
    whole guess space is built vectorized, the per-guess set sums of
    equation (8) come from the single matmul ``B · S``, and equation (9)'s
    bias signals follow element-wise.  Numerically equivalent to (and checked
    in the tests against) the per-guess oracle of ``tests/oracles/dpa.py``.

    Parameters
    ----------
    traces:
        The acquired traces with their plaintexts.
    selection:
        The D function; its :meth:`guesses` provides the default guess space.
    guesses:
        Optional subset of key guesses to evaluate.
    keep_bias:
        Store the full bias waveform of every guess (memory-heavier; useful
        for plotting or for inspecting secondary peaks).
    polarity:
        Peak statistic: ``"abs"`` (default, two-sided) or the single-sided
        ``"negative"`` / ``"positive"`` when the expected sign of
        ``T = A0 − A1`` at the leak is known (see :func:`_polarized_bias`).
    """
    if len(traces) == 0:
        raise DPAError("cannot attack an empty trace set")
    matrix = traces.matrix()
    dt, t0 = traces._time_params()
    guess_space = list(guesses) if guesses is not None else list(selection.guesses())

    bit_matrix = selection_matrix(selection, traces.plaintexts(), guess_space)
    bias, valid = _bias_matrix(matrix, bit_matrix)
    abs_bias = _polarized_bias(bias, polarity)
    peak_indices = np.argmax(abs_bias, axis=1)
    peaks = abs_bias[np.arange(len(guess_space)), peak_indices]
    rms = np.sqrt(np.mean(bias ** 2, axis=1))

    result = DPAResult(selection_name=selection.name, trace_count=len(traces))
    for index, guess in enumerate(guess_space):
        if not valid[index]:
            result.results.append(GuessResult(guess=guess, peak=0.0,
                                              peak_time=t0, rms=0.0, bias=None))
            continue
        guess_result = GuessResult(
            guess=guess,
            peak=float(peaks[index]),
            peak_time=t0 + int(peak_indices[index]) * dt,
            rms=float(rms[index]),
        )
        if keep_bias:
            guess_result.bias = Waveform(bias[index].copy(), dt, t0)
        result.results.append(guess_result)
    return result


#: Guesses finalized per step of :func:`ranks_first`.
BLOCK = 16


def ranks_first(peaks_of: Callable[[slice], np.ndarray], n_guesses: int,
                correct_index: int) -> bool:
    """Whether the correct guess ranks first, decided by exceedance.

    ``peaks_of(rows)`` returns the peak distinguisher of a slice of guesses.
    The correct guess's peak is read first; then the guesses are read one
    :data:`BLOCK` at a time, in guess order, until one beats it — a strictly
    larger peak, or an equal peak at an earlier index (the stable-sort tie
    rule of :meth:`DPAResult.rank_of`).  Peaks are per-row maxima of
    elementwise expressions, so each block's values are bit-identical to the
    full finalization, and the answer is exactly "rank == 1" — but a
    boundary where a wrong guess leads costs one or two blocks, not every
    guess.
    """
    correct_peak = peaks_of(slice(correct_index, correct_index + 1))[0]
    for start in range(0, n_guesses, BLOCK):
        block = peaks_of(slice(start, start + BLOCK))
        if (block > correct_peak).any():
            return False
        if (block[:max(0, correct_index - start)] == correct_peak).any():
            return False
    return True


class BlockSums:
    """Running prefix sums ``weights[:, :count] @ matrix[:count]``,
    accumulated per aligned :data:`BLOCK` of rows only when read.

    The guess×sample sums of a prefix sweep (the difference-of-means set
    sums, the Pearson cross products) are the costly part of its state, and
    :func:`ranks_first` reads one or two blocks of them at a boundary where
    a wrong guess leads.  :meth:`advance` only records the next segment of
    traces; indexing with a row slice brings every block it touches up to
    date by replaying, in order, the segment matmuls the block has not
    folded yet — all of them for a block first read at a late boundary.

    A block's sums depend only on its rows and the segments, never on what
    else was read or when.  They equal the rows of the all-guess product of
    the eager sweep bit for bit when both products run the same OpenBLAS
    kernel.  With OpenBLAS 0.3.31 on an AVX-512 host that holds at every
    size when the sample count is a multiple of 8 (the trace generator's
    5,080 samples), and at every sample count while the all-guess product
    stays under about 10⁶ multiply-adds; past that, the last
    ``n_samples % 8`` sample columns can round differently in the last bit.
    numpy sends a one-row product to gemv, which rounds differently, so a
    lone last row is multiplied together with the block before it.
    ``matrix`` must be C-ordered: with a Fortran-ordered one, the two
    products can differ even when small.
    """

    def __init__(self, weights: np.ndarray, matrix: np.ndarray):
        self.weights = weights
        self.matrix = matrix
        self.sums = np.zeros((weights.shape[0], matrix.shape[1]))
        self._segments: List[slice] = []
        self._folded = [0] * -(-weights.shape[0] // BLOCK)

    def advance(self, segment: slice) -> None:
        """Extend the prefix by the traces ``segment``."""
        self._segments.append(segment)

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(len(self.sums))
        for block in range(start // BLOCK, -(-stop // BLOCK)):
            for segment in self._segments[self._folded[block]:]:
                self._fold(block, segment)
            self._folded[block] = len(self._segments)
        return self.sums[rows]

    def _fold(self, block: int, segment: slice) -> None:
        low = block * BLOCK
        high = min(low + BLOCK, len(self.sums))
        first = low - BLOCK if high - low == 1 and low else low
        weights = np.asarray(self.weights[first:high, segment], dtype=float)
        self.sums[low:high] += (weights @ self.matrix[segment])[low - first:]


def dom_prefix_states(matrix: np.ndarray, bit_matrix: np.ndarray,
                      boundaries: Sequence[int]
                      ) -> Iterator[Tuple[int, Callable[[slice], np.ndarray]]]:
    """The difference-of-means state at every prefix boundary, incrementally.

    Yields ``(count, peaks_of)`` pairs where ``peaks_of(rows)`` returns the
    maximum absolute bias of the guesses ``rows`` over the first ``count``
    traces; it reads the running state, so call it before advancing the
    generator.  The set sizes and the all-trace sum are kept for every
    guess; the per-guess set sums are a :class:`BlockSums`, so a prefix
    costs one small matmul per segment for each block of guesses a caller
    reads, and nothing for the blocks it never reads.  A sweep that reads
    every row costs a single full attack, O(N·m) per guess, instead of one
    attack per prefix size (O(N²·m)).

    This is the difference-of-means instance of the attack-kernel
    ``prefix_states`` protocol; :mod:`repro.core.cpa` provides the Pearson
    and second-order instances.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    n_guesses, n_samples = bit_matrix.shape[0], matrix.shape[1]
    # Running prefix sums (equation (8) numerators and set sizes).
    sum1 = BlockSums(bit_matrix, matrix)
    sum_all = np.zeros(n_samples)
    counts1 = np.zeros(n_guesses)

    def peaks_of(rows: slice, count: int) -> np.ndarray:
        bias, _ = dom_bias(sum1[rows], sum_all, counts1[rows], count)
        return np.abs(bias).max(axis=1)

    previous = 0
    for count in boundaries:
        segment = slice(previous, count)
        sum_all += matrix[segment].sum(axis=0)
        sum1.advance(segment)
        counts1 += bit_matrix[:, segment].sum(axis=1)
        previous = count
        yield count, partial(peaks_of, count=count)


def dom_prefix_peaks(matrix: np.ndarray, bit_matrix: np.ndarray,
                     boundaries: Sequence[int]
                     ) -> Iterator[Tuple[int, np.ndarray]]:
    """Every guess's bias peak at every prefix boundary (all-rows view of
    :func:`dom_prefix_states`)."""
    for count, peaks_of in dom_prefix_states(matrix, bit_matrix, boundaries):
        yield count, peaks_of(slice(None))


class DisclosureTracker:
    """Messages-to-disclosure fed one prefix boundary at a time.

    The one disclosure loop, shared by :func:`messages_to_disclosure` and
    the streaming campaigns of :mod:`repro.assess.streaming`.
    ``observe(count, peaks)`` is called at every ascending prefix boundary;
    :attr:`disclosure` holds the first boundary from which the correct guess
    ranked first for ``stable_runs`` consecutive boundaries, and stays fixed
    once found.

    ``peaks`` is either the boundary's per-guess peak array or a lazy
    ``peaks_of(rows)`` read-out (a prefix state's, or a streaming state's
    bound ``peaks``), uncalled; the tracker then reads only the rows
    :func:`ranks_first` needs, and none at all once the disclosure is
    fixed.  The lazy form needs ``n_guesses``.
    """

    def __init__(self, correct_index: int, *, stable_runs: int = 1,
                 n_guesses: Optional[int] = None):
        self.correct_index = correct_index
        self.stable_runs = stable_runs
        self.n_guesses = n_guesses
        self._consecutive = 0
        self._first_success: Optional[int] = None
        self.disclosure: Optional[int] = None

    def observe(self, count: int,
                peaks: Union[np.ndarray, Callable[[slice], np.ndarray]]
                ) -> None:
        if self.disclosure is not None:
            return
        if callable(peaks):
            if self.n_guesses is None:
                raise DPAError("a lazy peaks read-out needs the tracker's "
                               "n_guesses")
            peaks_of, n_guesses = peaks, self.n_guesses
        else:
            peaks = np.asarray(peaks)
            peaks_of, n_guesses = peaks.__getitem__, len(peaks)
        if ranks_first(peaks_of, n_guesses, self.correct_index):
            if self._consecutive == 0:
                self._first_success = count
            self._consecutive += 1
            if self._consecutive >= self.stable_runs:
                self.disclosure = self._first_success
        else:
            self._consecutive = 0
            self._first_success = None


def messages_to_disclosure(traces: TraceSet, attack, correct_guess: int, *,
                           guesses: Optional[Sequence[int]] = None,
                           start: int = 16, step: int = 16,
                           stable_runs: int = 1) -> Optional[int]:
    """Smallest number of traces after which the correct key ranks first.

    The attack is evaluated on growing prefixes of the trace set; the
    returned value is the size of the first prefix for which the correct
    guess is ranked first and stays first for ``stable_runs`` consecutive
    prefix sizes.  Returns ``None`` when the full set never discloses the key.

    ``attack`` is either a plain :class:`SelectionFunction` (the historical
    difference-of-means sweep) or any attack kernel exposing the
    ``prefix_states(matrix, plaintexts, guess_space, boundaries)`` protocol —
    e.g. the CPA and second-order kernels of :mod:`repro.core.cpa` — so every
    attack of the suite shares one incremental disclosure engine, and each
    boundary is decided by :func:`ranks_first`.
    """
    if start < 2:
        raise DPAError("need at least 2 traces to run a DPA attack")
    if len(traces) == 0:
        raise DPAError("cannot attack an empty trace set")

    guess_space = list(guesses) if guesses is not None else list(attack.guesses())
    try:
        correct_index = guess_space.index(correct_guess)
    except ValueError:
        raise DPAError(f"guess {correct_guess:#x} was not part of the attack") from None

    matrix = traces.matrix()
    boundaries = range(start, len(traces) + 1, step)
    prefix_states = getattr(attack, "prefix_states", None)
    if prefix_states is not None:
        sweep = prefix_states(matrix, traces.plaintexts(), guess_space, boundaries)
    else:
        bit_matrix = selection_matrix(attack, traces.plaintexts(), guess_space)
        sweep = dom_prefix_states(matrix, bit_matrix, boundaries)

    tracker = DisclosureTracker(correct_index, stable_runs=stable_runs,
                                n_guesses=len(guess_space))
    for count, peaks_of in sweep:
        tracker.observe(count, peaks_of)
        if tracker.disclosure is not None:
            return tracker.disclosure
    return None
