"""Block-lazy prefix sweeps against the eager oracle sweeps, bit for bit.

The engine's prefix sweeps (``dom_prefix_states``, ``cpa_prefix_states`` and,
through them, the second-order kernels) accumulate the guess×sample sums
only for the aligned blocks of guesses that are read
(:class:`repro.core.dpa.BlockSums`): a block first read at boundary *j*
replays its segment matmuls 1…*j*, and later reads catch it up.  The eager
oracle sweeps of ``tests/oracles/dpa.py`` accumulate every guess at every
boundary with one all-guess matmul.

These tests check, over generated guess spaces, read orders and segments,
that every read of the lazy sweep equals the same read of a lazy sweep that
reads every row at every boundary, and equals the oracle's read with
``np.array_equal`` wherever ``BlockSums`` documents the identity: the
sample count a multiple of 8 (the trace generator's 5,080 samples) or the
all-guess segment product small.  Past that, OpenBLAS's AVX-512 kernels may
round the last ``n_samples % 8`` columns of the all-guess product
differently from a block's, so the reads are only required to be close.
They also check that an undisclosed sweep replays only the blocks it reads,
and the BLAS property the identity rests on.  CI runs this file with
``OPENBLAS_NUM_THREADS`` set to 1 and to 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.dpa import cpa_prefix_states, dom_prefix_states

from repro.core.cpa import (
    CpaKernel,
    DpaKernel,
    SecondOrderKernel,
    centered_product_matrix,
)
from repro.core.dpa import BLOCK, BlockSums, TraceSet, messages_to_disclosure
from repro.core.power_model import (
    HammingWeightModel,
    SelectionBitModel,
    leakage_matrix,
)
from repro.core.selection import AesSboxSelection, selection_matrix

SELECTION = AesSboxSelection(byte_index=0, bit_index=0)
KINDS = ("dom", "cpa-bit", "cpa-hw", "o2-dom", "o2-cpa-hw")


def _model(kind: str):
    return (HammingWeightModel(SELECTION) if kind.endswith("hw")
            else SelectionBitModel(SELECTION))


def _kernel(kind: str):
    inner = (DpaKernel(SELECTION) if kind.endswith("dom")
             else CpaKernel(_model(kind)))
    return SecondOrderKernel(inner, window=2) if kind.startswith("o2") else inner


def _columns(kind: str, matrix: np.ndarray) -> np.ndarray:
    """The columns the sweep's products run over, C-ordered as the sweeps
    make them (the combined matrix comes out Fortran-ordered)."""
    if kind.startswith("o2"):
        matrix, _ = centered_product_matrix(matrix, window=2)
    return np.ascontiguousarray(matrix)


def _oracle_states(kind, matrix, plaintexts, guess_space, boundaries):
    matrix = _columns(kind, matrix)
    if kind.endswith("dom"):
        return dom_prefix_states(
            matrix, selection_matrix(SELECTION, plaintexts, guess_space),
            boundaries)
    return cpa_prefix_states(
        matrix, leakage_matrix(_model(kind), plaintexts, guess_space),
        boundaries)


def _lazy_states(kind, matrix, plaintexts, guess_space, boundaries):
    return _kernel(kind).prefix_states(matrix, plaintexts, guess_space,
                                       boundaries)


def _sweeps(kind, matrix, plaintexts, guess_space, boundaries):
    """The lazy sweep and the eager oracle sweep, in lockstep."""
    return zip(_lazy_states(kind, matrix, plaintexts, guess_space,
                            boundaries),
               _oracle_states(kind, matrix, plaintexts, guess_space,
                              boundaries))


#: All-guess segment products up to this many multiply-adds run the same
#: OpenBLAS kernel as a block's (about half the size where they part).
SMALL_PRODUCT = 500_000


def _identity_documented(kind, matrix, n_guesses, boundaries) -> bool:
    """Whether ``BlockSums`` promises bit-identity with the all-guess
    product for this sweep."""
    columns = _columns(kind, matrix).shape[1]
    widest = max(np.diff([0] + list(boundaries)))
    return (columns % 8 == 0
            or n_guesses * widest * columns <= SMALL_PRODUCT)


def _attack(rng, n_traces, n_samples, guess_space, correct, kind):
    """Traces leaking the correct guess's selection bit (and its square,
    for the second-order kernels' combined columns)."""
    plaintexts = [[int(byte)] for byte in rng.integers(0, 256, n_traces)]
    bits = selection_matrix(SELECTION, plaintexts,
                            [guess_space[correct]])[0].astype(float)
    matrix = rng.normal(0.0, 1.0, (n_traces, n_samples))
    matrix[:, 0] += bits
    if kind.startswith("o2"):
        matrix[:, -1] += bits
    return matrix, plaintexts


@st.composite
def sweep_plans(draw):
    """A guess space, traces, boundaries and, per boundary, the row slices
    to read: the correct row, aligned blocks as :func:`ranks_first` reads
    them, single rows, arbitrary slices, all rows — or nothing, so blocks
    are often first read at a late boundary."""
    kind = draw(st.sampled_from(KINDS))
    n_guesses = draw(st.sampled_from([256]) | st.integers(1, 40))
    edges = [i for i in (0, BLOCK - 1, BLOCK, n_guesses - 1) if i < n_guesses]
    correct = draw(st.sampled_from(edges) | st.integers(0, n_guesses - 1))
    if kind.startswith("o2") or draw(st.integers(0, 3)):
        n_traces = draw(st.integers(8, 160))
        n_samples = (draw(st.sampled_from([1, 2, 3, 8, 48]))
                     + (1 if kind.startswith("o2") else 0))
        step = draw(st.integers(1, 24))
    else:
        # Workload-wide traces: the generator's 5,080 samples, or a width
        # that need not be a multiple of 8.
        n_traces = draw(st.integers(8, 48))
        n_samples = draw(st.sampled_from([5080]) | st.integers(200, 1200))
        step = draw(st.integers(12, 24))
    start = draw(st.integers(2, n_traces))
    boundaries = list(range(start, n_traces + 1, step))

    row = st.integers(0, n_guesses - 1)
    read = st.one_of(
        st.just(slice(correct, correct + 1)),
        row.map(lambda r: slice(r - r % BLOCK, r - r % BLOCK + BLOCK)),
        row.map(lambda r: slice(r, r + 1)),
        st.tuples(row, row).map(lambda ab: slice(min(ab), max(ab) + 1)),
        st.just(slice(None)),
    )
    reads = [draw(st.lists(read, max_size=4)) for _ in boundaries]
    if draw(st.booleans()):
        # Nothing is read before the last boundary: every block read
        # there replays the whole sweep.
        reads = [[] for _ in boundaries[:-1]] + [reads[-1] or [slice(None)]]
    guess_space = (list(range(n_guesses)) if draw(st.booleans())
                   else [int(g) for g in np.random.default_rng(
                       draw(st.integers(0, 2**16))).permutation(256)[:n_guesses]])
    return (kind, guess_space, correct, n_traces, n_samples, boundaries,
            reads, draw(st.integers(0, 2**16)))


class TestLazyReadsEqualOracle:
    @settings(max_examples=200, deadline=None)
    @given(sweep_plans())
    def test_every_read_bit_identical(self, plan):
        """Each read equals the all-rows read of a second lazy sweep, and
        the oracle's read: bit for bit where ``BlockSums`` documents the
        identity, to 1e-9 elsewhere."""
        (kind, guess_space, correct, n_traces, n_samples, boundaries,
         reads, seed) = plan
        rng = np.random.default_rng(seed)
        matrix, plaintexts = _attack(rng, n_traces, n_samples, guess_space,
                                     correct, kind)
        exact = _identity_documented(kind, matrix, len(guess_space),
                                     boundaries)
        steps = zip(_sweeps(kind, matrix, plaintexts, guess_space,
                            boundaries),
                    _lazy_states(kind, matrix, plaintexts, guess_space,
                                 boundaries))
        for (((count, lazy), (oracle_count, oracle)), (_, every)), \
                rows_list in zip(steps, reads):
            assert count == oracle_count
            all_rows = every(slice(None))
            for rows in rows_list:
                got = lazy(rows)
                assert np.array_equal(got, all_rows[rows]), (count, rows)
                if exact:
                    assert np.array_equal(got, oracle(rows)), (count, rows)
                else:
                    np.testing.assert_allclose(got, oracle(rows), rtol=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_guesses", [17, 33, 256])
    def test_late_first_reads_and_repeated_reads(self, kind, n_guesses):
        """Blocks read at the first boundary, then again only at later
        ones, next to blocks first read at the last boundary."""
        rng = np.random.default_rng(n_guesses)
        guess_space = list(range(n_guesses))
        matrix, plaintexts = _attack(rng, 200, 40, guess_space, 0, kind)
        boundaries = list(range(20, 201, 20))
        last_block = slice((n_guesses - 1) // BLOCK * BLOCK, n_guesses)
        for index, ((count, lazy), (_, oracle)) in enumerate(
                _sweeps(kind, matrix, plaintexts, guess_space, boundaries)):
            plan = [slice(0, 1)] if index in (0, 3, 4) else []
            if count == boundaries[-1]:
                plan += [last_block, slice(0, BLOCK), slice(None)]
            for rows in plan:
                assert np.array_equal(lazy(rows), oracle(rows)), (count, rows)


class TestReplayOnlyWhatIsRead:
    @pytest.mark.parametrize("kind", ["dom", "cpa-bit"])
    def test_dominated_sweep_replays_correct_block_and_block_zero(
            self, kind, monkeypatch):
        """A wrong guess in block 0 leaks far harder than the correct one,
        so no boundary discloses: every boundary reads the correct row and
        block 0, and only those two blocks are ever accumulated — each
        segment once, in order."""
        correct, leader = 0x5A, 3
        rng = np.random.default_rng(11)
        n_traces = 320
        plaintexts = [[int(b)] for b in rng.integers(0, 256, n_traces)]
        bits = selection_matrix(SELECTION, plaintexts, [leader, correct])
        matrix = rng.normal(0.0, 0.05, (n_traces, 6))
        matrix[:, 0] += 4.0 * bits[0] + 0.2 * bits[1]

        folds, instances = [], []
        fold, init = BlockSums._fold, BlockSums.__init__

        def spy_init(self, *args):
            init(self, *args)
            instances.append(self)

        def spy_fold(self, block, segment):
            folds.append((block, segment.start, segment.stop))
            fold(self, block, segment)

        monkeypatch.setattr(BlockSums, "__init__", spy_init)
        monkeypatch.setattr(BlockSums, "_fold", spy_fold)
        traces = TraceSet.from_matrix(matrix, plaintexts, 1e-9)
        assert messages_to_disclosure(traces, _kernel(kind), correct) is None

        segments = [(previous, previous + 16)
                    for previous in range(0, n_traces, 16)]
        for block in (0, correct // BLOCK):
            assert [f[1:] for f in folds if f[0] == block] == segments
        assert {f[0] for f in folds} == {0, correct // BLOCK}
        (sums,) = instances
        touched = np.flatnonzero(np.abs(sums.sums).sum(axis=1))
        assert set(touched // BLOCK) == {0, correct // BLOCK}


class TestBlasProperty:
    @pytest.mark.parametrize("n_rows", [256, 40, 33, 17])
    @pytest.mark.parametrize("levels", [2, 9])
    @pytest.mark.parametrize("n_samples", [5080, 1000])
    def test_aligned_blocks_equal_full_product_rows(self, n_rows, levels,
                                                    n_samples):
        """Every aligned 16-row block of a k = 20 segment product equals
        those rows of the all-guess product, for sample counts that are
        multiples of 8.  numpy sends a one-row product to gemv, so a lone
        last row is multiplied together with the block before it, as
        :class:`BlockSums` does."""
        rng = np.random.default_rng(n_rows * levels)
        weights = rng.integers(0, levels, (n_rows, 600)).astype(float)
        matrix = rng.normal(0.0, 1.0, (600, n_samples))
        for begin in range(0, 600, 20):
            segment = slice(begin, begin + 20)
            full = weights[:, segment] @ matrix[segment]
            for low in range(0, n_rows, BLOCK):
                high = min(low + BLOCK, n_rows)
                first = low - BLOCK if high - low == 1 and low else low
                block = weights[first:high, segment] @ matrix[segment]
                assert np.array_equal(block[low - first:], full[low:high]), (
                    begin, low)
