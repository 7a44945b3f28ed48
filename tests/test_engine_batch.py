"""Equivalence tests of the batched trace/attack engine.

The vectorized paths (``TraceSet`` matrices, ``selection_matrix``,
multi-guess ``dpa_attack``, ``trace_batch``, incremental
``messages_to_disclosure``) must produce the same numbers as the per-trace,
per-guess reference formulation — on synthetic traces, on the XOR pipeline
and on the asynchronous-AES pipeline.
"""

import numpy as np
import pytest

from oracles.dpa import dpa_attack_reference
from repro.asyncaes import (
    AesArchitecture,
    AesNetlistGenerator,
    AesPowerTraceGenerator,
    TraceGenerationError,
    word_digits,
)
from repro.circuits import build_dual_rail_xor
from repro.core import (
    AesAddRoundKeySelection,
    AesSboxSelection,
    AttackCampaign,
    DesSboxSelection,
    DPAError,
    HammingWeightSelection,
    TraceSet,
    dpa_attack,
    messages_to_disclosure,
    selection_matrix,
)
from repro.crypto import AES, SBOX, encrypt_states_batch, random_key
from repro.crypto.keys import PlaintextGenerator, bit_of
from repro.electrical import (
    BackgroundActivityNoise,
    CompositeNoise,
    GaussianNoise,
    NoNoise,
    NoiseModel,
    Waveform,
    per_computation_currents,
    stack_aligned,
)

SECRET_KEY_BYTE = 0x3C
LEAK_SAMPLE = 25
TRACE_LENGTH = 60


def _build_trace_set(count, *, leak_delta=1e-4, noise_sigma=1e-5, seed=0,
                     bit_index=0):
    """Traces leaking the first-round SubBytes output bit of byte 0."""
    rng = np.random.default_rng(seed)
    plaintexts = PlaintextGenerator(seed=seed + 1).batch(count)
    traces = TraceSet()
    for plaintext in plaintexts:
        value = bit_of(SBOX[plaintext[0] ^ SECRET_KEY_BYTE], bit_index)
        samples = rng.normal(0.0, noise_sigma, TRACE_LENGTH)
        samples[LEAK_SAMPLE] += leak_delta * value
        traces.add(Waveform(samples, 1e-9, 0.0), plaintext)
    return traces


def _assert_attacks_equal(batched, reference):
    assert [r.guess for r in batched.results] == [r.guess for r in reference.results]
    assert np.allclose([r.peak for r in batched.results],
                       [r.peak for r in reference.results])
    assert np.allclose([r.peak_time for r in batched.results],
                       [r.peak_time for r in reference.results])
    assert np.allclose([r.rms for r in batched.results],
                       [r.rms for r in reference.results])
    assert [r.guess for r in batched.ranking()] == \
        [r.guess for r in reference.ranking()]


def _mtd_reference(traces, selection, correct, *, start, step, stable_runs=1,
                   guesses=None):
    """The old O(N^2 * m) formulation: one full re-attack per prefix size."""
    consecutive = 0
    first = None
    count = start
    while count <= len(traces):
        attack = dpa_attack_reference(traces.subset(count), selection,
                                      guesses=guesses)
        if attack.rank_of(correct) == 1:
            if consecutive == 0:
                first = count
            consecutive += 1
            if consecutive >= stable_runs:
                return first
        else:
            consecutive = 0
            first = None
        count += step
    return None


# ------------------------------------------------------------------ TraceSet
class TestTraceSetMatrix:
    def test_matrix_cached_and_invalidated_on_add(self):
        traces = _build_trace_set(8)
        first = traces.matrix()
        assert traces.matrix() is first          # aligned exactly once
        traces.add(Waveform(np.zeros(TRACE_LENGTH), 1e-9, 0.0), [0] * 16)
        rebuilt = traces.matrix()
        assert rebuilt is not first
        assert rebuilt.shape == (9, TRACE_LENGTH)

    def test_time_base_uses_cached_alignment(self):
        traces = _build_trace_set(4)
        base = traces.time_base()
        assert base.dt == pytest.approx(1e-9)
        assert np.allclose(base.samples, traces.matrix()[0])

    def test_from_matrix_roundtrip(self):
        matrix = np.arange(12, dtype=float).reshape(3, 4)
        plaintexts = [[i] * 16 for i in range(3)]
        traces = TraceSet.from_matrix(matrix, plaintexts, 1e-9)
        assert len(traces) == 3
        assert traces.matrix() is matrix
        assert traces[1].plaintext == [1] * 16
        assert np.allclose(traces[2].waveform.samples, matrix[2])
        assert traces.plaintext_matrix().shape == (3, 16)

    def test_from_matrix_validates(self):
        with pytest.raises(DPAError):
            TraceSet.from_matrix(np.zeros(4), [[0] * 16], 1e-9)
        with pytest.raises(DPAError):
            TraceSet.from_matrix(np.zeros((2, 4)), [[0] * 16], 1e-9)
        with pytest.raises(DPAError):
            TraceSet.from_matrix(np.zeros((1, 4)), [[0] * 16], 0.0)

    def test_subset_shares_matrix_rows(self):
        traces = _build_trace_set(10)
        matrix = traces.matrix()
        prefix = traces.subset(4)
        assert len(prefix) == 4
        assert np.shares_memory(prefix.matrix(), matrix)
        assert prefix.plaintexts() == traces.plaintexts()[:4]

    def test_plaintext_matrix_rejects_ragged(self):
        traces = TraceSet()
        traces.add(Waveform(np.zeros(4), 1e-9), [1, 2, 3])
        traces.add(Waveform(np.zeros(4), 1e-9), [1, 2])
        with pytest.raises(DPAError):
            traces.plaintext_matrix()

    def test_stack_aligned_matches_per_waveform_alignment(self):
        waves = [Waveform(np.ones(5), 1e-9, 0.0),
                 Waveform(2 * np.ones(3), 1e-9, 2e-9)]
        matrix, dt, t0 = stack_aligned(waves)
        assert dt == pytest.approx(1e-9)
        assert t0 == pytest.approx(0.0)
        assert np.allclose(matrix[0], [1, 1, 1, 1, 1])
        assert np.allclose(matrix[1], [0, 0, 2, 2, 2])


# ---------------------------------------------------------- selection matrix
class TestSelectionMatrix:
    PLAINTEXTS = PlaintextGenerator(seed=3).batch(40)

    def _check(self, selection, guesses):
        matrix = selection_matrix(selection, self.PLAINTEXTS, guesses)
        expected = np.array([[selection(p, g) for p in self.PLAINTEXTS]
                             for g in guesses])
        assert matrix.shape == (len(guesses), len(self.PLAINTEXTS))
        assert np.array_equal(matrix, expected)

    def test_aes_addkey(self):
        self._check(AesAddRoundKeySelection(byte_index=3, bit_index=5), range(256))

    def test_aes_sbox(self):
        self._check(AesSboxSelection(byte_index=1, bit_index=2), range(256))

    def test_des_sbox(self):
        self._check(DesSboxSelection(sbox_index=2, bit_index=1), range(64))

    def test_hamming_weight(self):
        inner = AesAddRoundKeySelection(byte_index=0, bit_index=0)
        self._check(HammingWeightSelection(inner=inner, threshold=4), range(0, 256, 8))

    def test_generic_fallback(self):
        class OddPlaintextSelection:
            name = "odd"

            def guesses(self):
                return range(2)

            def __call__(self, plaintext, key_guess):
                return (plaintext[0] ^ key_guess) & 1

        self._check(OddPlaintextSelection(), [0, 1])

    def test_hamming_weight_with_custom_inner(self):
        """A protocol-only inner (no intermediate_matrix) keeps working."""

        class WideInner:
            name = "wide"
            byte_index = 0
            bit_index = 0

            def guesses(self):
                return range(4)

            def intermediate(self, plaintext, key_guess):
                # 16-bit intermediate: exercises weights beyond one byte.
                return (plaintext[0] ^ key_guess) | (plaintext[1] << 8)

            def __call__(self, plaintext, key_guess):
                return self.intermediate(plaintext, key_guess) & 1

        self._check(HammingWeightSelection(inner=WideInner(), threshold=6),
                    [0, 1, 2, 3])


# ------------------------------------------------------------ attack engine
class TestBatchedAttackEquivalence:
    def test_synthetic_traces_full_guess_space(self):
        traces = _build_trace_set(200, noise_sigma=2e-5)
        selection = AesSboxSelection(byte_index=0, bit_index=0)
        batched = dpa_attack(traces, selection)
        reference = dpa_attack_reference(traces, selection)
        _assert_attacks_equal(batched, reference)
        assert batched.best_guess == SECRET_KEY_BYTE

    def test_bias_waveforms_match(self):
        traces = _build_trace_set(64)
        selection = AesSboxSelection(byte_index=0, bit_index=0)
        guesses = [SECRET_KEY_BYTE, 0x00, 0xFF]
        batched = dpa_attack(traces, selection, guesses=guesses, keep_bias=True)
        reference = dpa_attack_reference(traces, selection, guesses=guesses,
                                         keep_bias=True)
        for guess in guesses:
            assert np.allclose(batched.result_for(guess).bias.samples,
                               reference.result_for(guess).bias.samples)

    def test_single_sided_partition_matches_reference(self):
        """Degenerate single-class partitions give zero-peak results."""
        traces = TraceSet()
        for _ in range(6):
            traces.add(Waveform(np.ones(8), 1e-9), [0] * 16)
        selection = AesAddRoundKeySelection(byte_index=0, bit_index=0)
        batched = dpa_attack(traces, selection, guesses=range(4))
        reference = dpa_attack_reference(traces, selection, guesses=range(4))
        _assert_attacks_equal(batched, reference)
        assert all(r.peak == 0.0 and r.bias is None for r in batched.results)

    def test_xor_pipeline_equivalence(self):
        """Batched attack on the gate-level XOR current traces."""
        xor = build_dual_rail_xor("xeq")
        xor.set_level_cap(3, 1, 24.0)
        pairs = [(0, 0), (1, 1), (0, 1), (1, 0)]
        traces = TraceSet()
        for (a, b), waveform in zip(pairs, per_computation_currents(xor, pairs)):
            traces.add(waveform, [a ^ b] + [0] * 15)
        selection = AesAddRoundKeySelection(byte_index=0, bit_index=0)
        batched = dpa_attack(traces, selection, guesses=[0, 1], keep_bias=True)
        reference = dpa_attack_reference(traces, selection, guesses=[0, 1],
                                         keep_bias=True)
        _assert_attacks_equal(batched, reference)
        assert batched.result_for(0).peak > 0


# ------------------------------------------------------- AES batched tracing
@pytest.fixture(scope="module")
def unbalanced_aes():
    architecture = AesArchitecture(word_width=8, detail=0.05)
    netlist = AesNetlistGenerator(architecture, name="aes8batch").build()
    target = architecture.channel("addkey0_to_mux").rail_net(0, 1)
    netlist.set_routing_cap(target, netlist.net(target).routing_cap_ff + 40.0)
    return architecture, netlist


class TestTraceBatch:
    KEY = random_key(16, seed=3)

    def test_batch_matches_per_trace_reference(self, unbalanced_aes):
        architecture, netlist = unbalanced_aes
        generator = AesPowerTraceGenerator(netlist, self.KEY,
                                           architecture=architecture)
        plaintexts = PlaintextGenerator(seed=8).batch(12)
        reference = np.vstack([generator.trace(p).samples for p in plaintexts])
        batch = generator.trace_batch(plaintexts)
        assert np.allclose(batch.matrix(), reference)
        assert batch.dt == pytest.approx(generator.config.sample_period_s)
        assert batch.plaintexts() == [list(p) for p in plaintexts]

    def test_batch_attack_matches_reference_attack(self, unbalanced_aes):
        architecture, netlist = unbalanced_aes
        generator = AesPowerTraceGenerator(netlist, self.KEY,
                                           architecture=architecture)
        traces = generator.trace_batch(PlaintextGenerator(seed=4).batch(48))
        selection = AesAddRoundKeySelection(byte_index=3, bit_index=0)
        batched = dpa_attack(traces, selection, guesses=range(0, 256, 16))
        reference = dpa_attack_reference(traces, selection,
                                         guesses=range(0, 256, 16))
        _assert_attacks_equal(batched, reference)

    def test_empty_batch(self, unbalanced_aes):
        architecture, netlist = unbalanced_aes
        generator = AesPowerTraceGenerator(netlist, self.KEY,
                                           architecture=architecture)
        assert len(generator.trace_batch([])) == 0

    def test_batch_noise_applied_once_per_matrix(self, unbalanced_aes):
        architecture, netlist = unbalanced_aes
        noisy = AesPowerTraceGenerator(netlist, self.KEY,
                                       architecture=architecture,
                                       noise=GaussianNoise(sigma=1e-6, seed=2))
        clean = AesPowerTraceGenerator(netlist, self.KEY,
                                       architecture=architecture)
        plaintexts = PlaintextGenerator(seed=8).batch(4)
        noisy_matrix = noisy.trace_batch(plaintexts).matrix()
        clean_matrix = clean.trace_batch(plaintexts).matrix()
        assert noisy_matrix.shape == clean_matrix.shape
        assert not np.allclose(noisy_matrix, clean_matrix)
        residual = noisy_matrix - clean_matrix
        assert abs(residual.std() - 1e-6) < 2e-7


# -------------------------------------------------------------- batch cipher
class TestBatchCipher:
    def test_states_match_scalar_reference(self):
        key = random_key(16, seed=11)
        plaintexts = PlaintextGenerator(seed=12).batch(16)
        batch = encrypt_states_batch(key, plaintexts)
        cipher = AES(key)
        for index, plaintext in enumerate(plaintexts):
            reference = cipher.encrypt_with_trace(plaintext)
            for label, state in reference.states.items():
                assert batch[label][index].tolist() == state, label

    def test_rejects_malformed_batches(self):
        from repro.crypto import AESError

        with pytest.raises(AESError):
            encrypt_states_batch([0] * 16, [[0] * 15])
        with pytest.raises(AESError):
            encrypt_states_batch([0] * 16, [[300] + [0] * 15])


# -------------------------------------------------------------- radix rails
class TestChannelRadix:
    def test_word_digits_dual_rail(self):
        digits = word_digits([0b1011], width=4, radix=2)
        assert digits.tolist() == [[1, 1, 0, 1]]

    def test_word_digits_one_of_four(self):
        # 27 = 1*16 + 2*4 + 3 -> digits (LSD first) 3, 2, 1
        digits = word_digits([27], width=3, radix=4)
        assert digits.tolist() == [[3, 2, 1]]

    def test_word_digits_rejects_bad_radix(self):
        with pytest.raises(TraceGenerationError):
            word_digits([1], width=2, radix=1)

    def test_cap_matrix_honors_radix(self, unbalanced_aes):
        architecture, netlist = unbalanced_aes
        generator = AesPowerTraceGenerator(netlist, random_key(16, seed=3),
                                           architecture=architecture)
        bus = architecture.channel("addkey0_to_mux")
        caps = generator._bus_cap_matrix(bus.name, bus.width)
        assert caps.shape == (bus.width, bus.radix)
        for rail in range(bus.radix):
            assert caps[1, rail] == pytest.approx(
                generator.rail_cap_ff(bus.name, 1, rail))


# -------------------------------------------------- messages to disclosure
class TestIncrementalDisclosure:
    SELECTION = AesSboxSelection(byte_index=0, bit_index=0)
    GUESSES = list(range(0, 256, 4)) + [SECRET_KEY_BYTE]

    def test_matches_reattack_reference(self):
        traces = _build_trace_set(300, noise_sigma=2e-5)
        fast = messages_to_disclosure(traces, self.SELECTION, SECRET_KEY_BYTE,
                                      guesses=self.GUESSES, start=50, step=50)
        slow = _mtd_reference(traces, self.SELECTION, SECRET_KEY_BYTE,
                              guesses=self.GUESSES, start=50, step=50)
        assert fast == slow
        assert fast is not None

    def test_stable_runs_matches_reference(self):
        traces = _build_trace_set(300, leak_delta=6e-5, noise_sigma=4e-5, seed=9)
        for stable_runs in (1, 2, 3):
            fast = messages_to_disclosure(
                traces, self.SELECTION, SECRET_KEY_BYTE, guesses=self.GUESSES,
                start=30, step=30, stable_runs=stable_runs)
            slow = _mtd_reference(
                traces, self.SELECTION, SECRET_KEY_BYTE, guesses=self.GUESSES,
                start=30, step=30, stable_runs=stable_runs)
            assert fast == slow

    def test_stable_runs_requires_persistence(self):
        traces = _build_trace_set(200, noise_sigma=2e-5)
        single = messages_to_disclosure(traces, self.SELECTION, SECRET_KEY_BYTE,
                                        guesses=self.GUESSES, start=40, step=40,
                                        stable_runs=1)
        stable = messages_to_disclosure(traces, self.SELECTION, SECRET_KEY_BYTE,
                                        guesses=self.GUESSES, start=40, step=40,
                                        stable_runs=3)
        assert single is not None
        # A disclosure that must persist over three prefix sizes can only be
        # the same or earlier-starting-but-confirmed-later, never easier.
        assert stable is None or stable <= 200 - 2 * 40

    def test_never_disclosing_set(self):
        traces = _build_trace_set(150, leak_delta=0.0, noise_sigma=1e-5)
        assert messages_to_disclosure(traces, self.SELECTION, SECRET_KEY_BYTE,
                                      guesses=self.GUESSES,
                                      start=50, step=50) is None

    def test_degenerate_single_class_partition(self):
        """Constant plaintexts: every guess yields a one-sided partition."""
        traces = TraceSet()
        for _ in range(64):
            traces.add(Waveform(np.ones(8), 1e-9), [0] * 16)
        selection = AesAddRoundKeySelection(byte_index=0, bit_index=0)
        # All peaks are zero; the correct guess (not first in the space) can
        # never rank first, matching the re-attack reference.
        assert messages_to_disclosure(traces, selection, 5,
                                      start=16, step=16) is None
        assert _mtd_reference(traces, selection, 5, start=16, step=16) is None

    def test_invalid_arguments(self):
        traces = _build_trace_set(16)
        with pytest.raises(DPAError):
            messages_to_disclosure(traces, self.SELECTION, SECRET_KEY_BYTE,
                                   start=1)
        with pytest.raises(DPAError):
            messages_to_disclosure(traces, self.SELECTION, 0x11,
                                   guesses=[0x22, 0x33], start=8)


# -------------------------------------------------------------- batch noise
class TestBatchNoise:
    def test_no_noise_copies(self):
        matrix = np.ones((3, 5))
        out = NoNoise().apply_matrix(matrix)
        assert np.array_equal(out, matrix)
        assert out is not matrix

    def test_gaussian_statistics(self):
        out = GaussianNoise(sigma=0.5, seed=1).apply_matrix(np.zeros((200, 100)))
        assert out.shape == (200, 100)
        assert abs(out.std() - 0.5) < 0.02
        assert abs(out.mean()) < 0.01

    def test_gaussian_zero_sigma(self):
        matrix = np.ones((2, 4))
        assert np.array_equal(GaussianNoise(sigma=0.0).apply_matrix(matrix), matrix)

    def test_background_activity(self):
        out = BackgroundActivityNoise(pulse_rate_per_sample=0.5, amplitude=1.0,
                                      seed=3).apply_matrix(np.zeros((50, 40)))
        assert (out >= 0).all()
        assert out.sum() > 0

    def test_composite_chains(self):
        noise = CompositeNoise(models=(GaussianNoise(sigma=0.1, seed=0),
                                       BackgroundActivityNoise(0.1, 1.0, seed=1)))
        out = noise.apply_matrix(np.zeros((10, 20)))
        assert out.shape == (10, 20)
        assert out.std() > 0

    def test_base_class_fallback_uses_per_trace_apply(self):
        class DtScaled(NoiseModel):
            """In-place and dt-dependent: the worst case for the fallback."""

            def apply(self, waveform):
                waveform.samples += waveform.dt
                return waveform

        matrix = np.zeros((3, 4))
        out = DtScaled().apply_matrix(matrix, 2.5)
        assert np.allclose(out, 2.5)               # real dt reaches apply()
        assert np.array_equal(matrix, np.zeros((3, 4)))  # caller's matrix intact

    def test_composite_forwards_time_base(self):
        class NeedsDt(NoiseModel):
            def apply(self, waveform):
                waveform.samples += waveform.dt
                return waveform

        noise = CompositeNoise(models=(NeedsDt(), NeedsDt()))
        out = noise.apply_matrix(np.zeros((2, 3)), 1e-9)
        assert np.allclose(out, 2e-9)


# ---------------------------------------------------------------- campaign
class TestAttackCampaign:
    def test_flat_vs_balanced_comparison(self, unbalanced_aes):
        architecture, _ = unbalanced_aes
        leaky_netlist = AesNetlistGenerator(architecture, name="aes8leak").build()
        # Unbalance the S-box output channel: on the 8-bit architecture its
        # bit 0 carries the LSB of SBOX(plaintext[3] ^ key[3]), so the S-box
        # selection on byte 3 recovers the key byte (wrong guesses
        # decorrelate through the S-box).
        target = architecture.channel("bytesub0_to_sr0").rail_net(0, 1)
        leaky_netlist.set_routing_cap(
            target, leaky_netlist.net(target).routing_cap_ff + 40.0)
        balanced_netlist = AesNetlistGenerator(architecture,
                                               name="aes8bal").build()
        key = random_key(16, seed=3)
        campaign = AttackCampaign(key, architecture=architecture,
                                  mtd_start=24, mtd_step=24)
        campaign.add_design("leaky", leaky_netlist)
        campaign.add_design("balanced", balanced_netlist)
        campaign.add_selection(AesSboxSelection(byte_index=3, bit_index=0))
        result = campaign.run(trace_count=96, seed=5)

        assert len(result.rows) == 2
        leaky = result.row("leaky")
        balanced = result.row("balanced")
        assert leaky.correct_guess == key[3]
        # The unbalanced design leaks through the S-box output channel ...
        assert leaky.rank_of_correct == 1
        assert leaky.disclosure is not None
        # ... while the balanced one shows a flat bias for every guess.
        assert balanced.best_peak == pytest.approx(0.0, abs=1e-15)
        assert balanced.disclosure is None
        table = result.table()
        assert "leaky" in table and "balanced" in table

    def test_campaign_with_custom_trace_source_and_noise(self):
        def source(plaintexts, noise):
            rng = np.random.default_rng(0)
            matrix = np.zeros((len(plaintexts), 30))
            for row, plaintext in zip(matrix, plaintexts):
                bit = bit_of(SBOX[plaintext[0] ^ SECRET_KEY_BYTE], 0)
                row[:] = rng.normal(0.0, 1e-6, 30)
                row[7] += 1e-4 * bit
            if noise is not None:
                matrix = noise.apply_matrix(matrix)
            return TraceSet.from_matrix(matrix, plaintexts, 1e-9)

        campaign = AttackCampaign(mtd_start=64, mtd_step=64)
        campaign.add_design("synthetic", trace_source=source)
        campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=0),
                               correct_guess=SECRET_KEY_BYTE)
        campaign.add_noise("noiseless")
        campaign.add_noise("sigma=1e-5", lambda: GaussianNoise(1e-5, seed=4))
        result = campaign.run(trace_count=192, seed=1)

        assert len(result.rows) == 2
        clean = result.row("synthetic", noise="noiseless")
        assert clean.rank_of_correct == 1
        assert clean.disclosure is not None

    def test_campaign_validates_configuration(self):
        campaign = AttackCampaign()
        with pytest.raises(ValueError):
            campaign.run(trace_count=8)
        with pytest.raises(ValueError):
            campaign.add_design("bad")
        with pytest.raises(ValueError):
            # netlist designs need a key
            campaign.add_design("aes", AesNetlistGenerator(
                AesArchitecture(word_width=8, detail=0.05), name="aes8nk").build())
