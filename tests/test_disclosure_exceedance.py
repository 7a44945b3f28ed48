"""The rank-1 decision by exceedance against the full-vector rank oracle.

:func:`repro.core.dpa.ranks_first` decides "the correct guess ranks first"
by reading peaks one block of guesses at a time and stopping at the first
guess that beats the correct one.  Both disclosure engines — the in-memory
``messages_to_disclosure`` sweep and the streaming ``DisclosureTracker`` —
decide every boundary with it.  These tests pin it to the stable-sort rank
of ``tests/oracles/dpa.py`` over generated peak vectors and generated
campaigns (kernels, noise, trace counts, sweep parameters, the correct
guess at block edges, small guess spaces and constructed ties), and check
that a boundary reads no more guesses than the decision needs.
"""

from dataclasses import dataclass
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.dpa import _stable_rank, cpa_prefix_states, dom_prefix_states

from repro.assess.streaming import disclosure_boundaries, streaming_state
from repro.core.cpa import (
    CpaKernel,
    DpaKernel,
    SecondOrderKernel,
    centered_product_matrix,
)
from repro.core.dpa import (
    BLOCK,
    DPAError,
    DisclosureTracker,
    TraceSet,
    messages_to_disclosure,
    ranks_first,
)

KERNELS = ("dom", "cpa", "o2-dom", "o2-cpa")
STREAMABLE = ("dom", "cpa")


@dataclass(eq=False)
class TableSelection:
    """A selection function read from a ``(n_guesses, n_traces)`` table;
    each trace's plaintext is its own index."""

    table: np.ndarray
    name: str = "table"

    def guesses(self) -> List[int]:
        return list(range(self.table.shape[0]))

    def _rows(self, plaintexts, guesses) -> np.ndarray:
        columns = [int(p[0]) for p in plaintexts]
        return self.table[np.ix_(np.asarray(guesses, dtype=np.int64), columns)]

    def bits_matrix(self, plaintexts, guesses) -> np.ndarray:
        return self._rows(plaintexts, guesses)

    def model_matrix(self, plaintexts, guesses) -> np.ndarray:
        return self._rows(plaintexts, guesses).astype(float)

    def __call__(self, plaintext, key_guess) -> int:
        return int(self.table[key_guess, plaintext[0]])


def _kernel(kind: str, table: TableSelection):
    inner = DpaKernel(table) if kind.endswith("dom") else CpaKernel(table)
    return SecondOrderKernel(inner, window=2) if kind.startswith("o2") else inner


def _oracle_mtd(sweep, correct_index: int, stable_runs: int):
    """The disclosure loop over full peak vectors, ranked by the oracle."""
    consecutive = 0
    first_success = None
    for count, peaks in sweep:
        if _stable_rank(peaks, correct_index) == 1:
            if consecutive == 0:
                first_success = count
            consecutive += 1
            if consecutive >= stable_runs:
                return first_success
        else:
            consecutive = 0
            first_success = None
    return None


def _oracle_sweep(kind: str, table: TableSelection, matrix, boundaries):
    """Every guess's peak at every boundary, from the eager oracle sweeps."""
    if kind.startswith("o2"):
        matrix, _ = centered_product_matrix(matrix, window=2)
    if kind.endswith("dom"):
        states = dom_prefix_states(matrix, table.table, boundaries)
    else:
        states = cpa_prefix_states(matrix, table.table.astype(float),
                                   boundaries)
    for count, peaks_of in states:
        yield count, peaks_of(slice(None))


@st.composite
def campaigns(draw):
    """A table-driven attack: hypothesis rows, traces leaking the correct
    row, sweep parameters and the kernel, with block-edge correct guesses
    and constructed ties among the draws."""
    n_guesses = draw(st.sampled_from([1, 2, 5, 15, 16, 17, 31, 33, 40]))
    edges = [0, n_guesses - 1] + [i for i in (BLOCK - 1, BLOCK)
                                  if i < n_guesses]
    correct = draw(st.sampled_from(edges) | st.integers(0, n_guesses - 1))
    n_traces = draw(st.integers(8, 90))
    kind = draw(st.sampled_from(KERNELS))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)

    high = 2 if kind.endswith("dom") else draw(st.sampled_from([2, 5, 9]))
    table = rng.integers(0, high, size=(n_guesses, n_traces))
    for _ in range(draw(st.integers(0, 3))):
        # Duplicated hypothesis rows: bit-identical peaks, so the stable
        # tie rule decides between the copies.
        source, target = draw(st.tuples(st.integers(0, n_guesses - 1),
                                        st.integers(0, n_guesses - 1)))
        table[target] = table[source]
    for _ in range(draw(st.integers(0, 2))):
        # Single-sided partitions / constant predictions: peak exactly 0.
        table[draw(st.integers(0, n_guesses - 1))] = draw(st.integers(0, 1))

    n_samples = draw(st.integers(1, 5)) + (1 if kind.startswith("o2") else 0)
    if draw(st.booleans()) and draw(st.booleans()):
        matrix = np.zeros((n_traces, n_samples))
    else:
        sigma = draw(st.sampled_from([0.0, 0.1, 0.5, 2.0]))
        scale = draw(st.sampled_from([0.0, 0.3, 1.0]))
        matrix = rng.normal(0.0, 1.0, (n_traces, n_samples)) * sigma
        leak = table[correct].astype(float) * scale
        matrix[:, 0] += leak
        matrix[:, -1] += leak ** 2 if kind.startswith("o2") else 0.0

    start = draw(st.integers(2, max(2, n_traces)))
    step = draw(st.integers(1, 30))
    stable_runs = draw(st.integers(1, 3))
    return (kind, TableSelection(table), matrix, correct, start, step,
            stable_runs)


def _trace_set(matrix: np.ndarray) -> TraceSet:
    return TraceSet.from_matrix(matrix, [[i] for i in range(len(matrix))],
                                1e-9)


class TestRanksFirst:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_stable_rank_one(self, data):
        edges = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
        size = data.draw(st.sampled_from(edges) | st.integers(1, 3 * BLOCK))
        value = st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0, 4)
        peaks = np.asarray(data.draw(st.lists(value, min_size=size,
                                              max_size=size)))
        correct = data.draw(st.sampled_from([0, size - 1])
                            | st.integers(0, size - 1))
        assert ranks_first(peaks.__getitem__, len(peaks), correct) == (
            _stable_rank(peaks, correct) == 1)

    def test_tie_rule(self):
        peaks = np.zeros(2 * BLOCK + 1)
        assert ranks_first(peaks.__getitem__, len(peaks), 0)
        for correct in (1, BLOCK - 1, BLOCK, 2 * BLOCK):
            assert not ranks_first(peaks.__getitem__, len(peaks), correct)
        peaks[BLOCK] = 1.0
        assert ranks_first(peaks.__getitem__, len(peaks), BLOCK)
        peaks[2 * BLOCK] = 1.0
        assert ranks_first(peaks.__getitem__, len(peaks), BLOCK)
        assert not ranks_first(peaks.__getitem__, len(peaks), 2 * BLOCK)
        # The last guess, alone in its block, still counts.
        peaks[2 * BLOCK] = 2.0
        assert not ranks_first(peaks.__getitem__, len(peaks), BLOCK)


class TestDisclosureMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(campaigns())
    def test_in_memory_sweep(self, campaign):
        kind, table, matrix, correct, start, step, stable_runs = campaign
        boundaries = range(start, len(matrix) + 1, step)
        expected = _oracle_mtd(_oracle_sweep(kind, table, matrix, boundaries),
                               correct, stable_runs)
        got = messages_to_disclosure(
            _trace_set(matrix), _kernel(kind, table), correct,
            start=start, step=step, stable_runs=stable_runs)
        assert got == expected
        if kind == "dom":
            # A plain selection function takes the same path.
            assert messages_to_disclosure(
                _trace_set(matrix), table, correct, start=start, step=step,
                stable_runs=stable_runs) == expected

    @settings(max_examples=120, deadline=None)
    @given(campaigns().filter(lambda c: c[0] in STREAMABLE),
           st.integers(1, 40))
    def test_streaming_tracker(self, campaign, chunk):
        """The streaming tracker, lazy and eager, against the oracle rank
        of the full boundary peaks.  The streaming DoM state keeps the
        in-memory sweep's sums, so its oracle is the eager DoM sweep; the
        streaming CPA state keeps centered co-moments, so its oracle is the
        state's own all-rows read-out."""
        kind, table, matrix, correct, start, step, stable_runs = campaign
        kernel = _kernel(kind, table)
        guess_space = table.guesses()
        plaintexts = [[i] for i in range(len(matrix))]
        boundaries = disclosure_boundaries(len(matrix), start=start,
                                           step=step)
        lazy_state = streaming_state(kernel, guess_space)
        eager_state = streaming_state(kernel, guess_space)
        lazy = DisclosureTracker(correct, stable_runs=stable_runs,
                                 n_guesses=len(guess_space))
        eager = DisclosureTracker(correct, stable_runs=stable_runs)
        full_peaks = []
        previous = 0
        for boundary in boundaries:
            # Chunks never straddle a boundary, as in the campaign.
            for begin in range(previous, boundary, chunk):
                end = min(begin + chunk, boundary)
                lazy_state.update(matrix[begin:end], plaintexts[begin:end])
                eager_state.update(matrix[begin:end], plaintexts[begin:end])
            peaks = eager_state.peaks()
            full_peaks.append((boundary, peaks))
            lazy.observe(boundary, lazy_state.peaks)
            eager.observe(boundary, peaks)
            previous = boundary

        if kind == "dom":
            oracle = _oracle_sweep(kind, table, matrix, boundaries)
        else:
            oracle = iter(full_peaks)
        expected = _oracle_mtd(oracle, correct, stable_runs)
        assert lazy.disclosure == expected
        assert eager.disclosure == expected

    @pytest.mark.parametrize("kind", STREAMABLE)
    def test_last_guess_alone_in_its_block_counts(self, kind):
        table, matrix, _ = _dominated_attack(n_guesses=2 * BLOCK + 1,
                                             correct=0, leader=2 * BLOCK)
        kernel = _kernel(kind, table)
        guess_space = table.guesses()
        plaintexts = [[i] for i in range(len(matrix))]
        state = streaming_state(kernel, guess_space)
        tracker = DisclosureTracker(0, n_guesses=len(guess_space))
        previous = 0
        for boundary in disclosure_boundaries(len(matrix)):
            state.update(matrix[previous:boundary],
                         plaintexts[previous:boundary])
            assert _stable_rank(state.peaks(), 0) > 1
            tracker.observe(boundary, state.peaks)
            previous = boundary
        assert tracker.disclosure is None
        assert messages_to_disclosure(_trace_set(matrix), kernel, 0) is None

    def test_lazy_tracker_needs_guess_count(self):
        tracker = DisclosureTracker(0)
        with pytest.raises(DPAError):
            tracker.observe(16, lambda rows: np.zeros(1))


class _SpyPeaks:
    """Records the row slices a ``peaks(rows)`` read-out is asked for."""

    def __init__(self, peaks_of):
        self.peaks_of = peaks_of
        self.calls: List[slice] = []

    def __call__(self, rows: slice) -> np.ndarray:
        self.calls.append(rows)
        return self.peaks_of(rows)


def _dominated_attack(n_guesses=64, correct=40, leader=3, n_traces=160):
    """Traces where wrong guess ``leader`` leaks far harder than the
    correct guess, so it outranks the correct one at every boundary."""
    rng = np.random.default_rng(5)
    table = rng.integers(0, 2, size=(n_guesses, n_traces))
    matrix = rng.normal(0.0, 0.05, (n_traces, 3))
    matrix[:, 0] += 4.0 * table[leader] + 0.2 * table[correct]
    return TableSelection(table), matrix, correct


class TestNoWastedWork:
    def test_dominated_boundary_reads_correct_row_and_first_block(self):
        table, matrix, correct = _dominated_attack()
        state = streaming_state(DpaKernel(table), table.guesses())
        tracker = DisclosureTracker(correct, n_guesses=len(table.guesses()))
        plaintexts = [[i] for i in range(len(matrix))]
        previous = 0
        for boundary in disclosure_boundaries(len(matrix)):
            state.update(matrix[previous:boundary],
                         plaintexts[previous:boundary])
            spy = _SpyPeaks(state.peaks)
            tracker.observe(boundary, spy)
            assert spy.calls == [slice(correct, correct + 1),
                                 slice(0, BLOCK)]
            previous = boundary
        assert tracker.disclosure is None

    def test_in_memory_dominated_boundary_reads_first_block(self):
        table, matrix, correct = _dominated_attack()
        spies = []

        class SpyKernel(DpaKernel):
            def prefix_states(self, *args):
                for count, peaks_of in super().prefix_states(*args):
                    spies.append(_SpyPeaks(peaks_of))
                    yield count, spies[-1]

        assert messages_to_disclosure(_trace_set(matrix), SpyKernel(table),
                                      correct) is None
        assert len(spies) == len(matrix) // 16
        for spy in spies:
            assert spy.calls == [slice(correct, correct + 1), slice(0, BLOCK)]

    def test_tracker_reads_nothing_after_disclosure(self):
        table, matrix, _ = _dominated_attack()
        leader = 3
        state = streaming_state(DpaKernel(table), table.guesses())
        tracker = DisclosureTracker(leader, stable_runs=2,
                                    n_guesses=len(table.guesses()))
        plaintexts = [[i] for i in range(len(matrix))]
        previous = 0
        reads_after_disclosure = 0
        for boundary in disclosure_boundaries(len(matrix)):
            state.update(matrix[previous:boundary],
                         plaintexts[previous:boundary])
            fixed = tracker.disclosure is not None
            spy = _SpyPeaks(state.peaks)
            tracker.observe(boundary, spy)
            if fixed:
                reads_after_disclosure += len(spy.calls)
            previous = boundary
        assert tracker.disclosure == 16
        assert reads_after_disclosure == 0
