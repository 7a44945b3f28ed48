"""Simulator-backed trace generation: cross-validation and key recovery.

Covers the three contracts of :mod:`repro.asyncaes.simtrace`:

* the XOR reference design, simulated gate by gate, leaks through its rail
  capacitances exactly as equation (12) predicts — a ``dpa_attack`` over the
  simulated traces recovers the key byte end to end;
* the AES transfer-schedule replay is sample-identical to the analytic
  charge-model generator on a placed reduced-width datapath (the
  cross-validation anchoring both trace paths);
* the campaign's trace-source grid dimension exposes both generators.
"""

import random

import numpy as np
import pytest

from oracles.dpa import dpa_attack_reference
from repro.asyncaes import (
    AesArchitecture,
    AesNetlistGenerator,
    AesPowerTraceGenerator,
    AesSimulatorTraceGenerator,
    SimTraceConfig,
    TraceGenerationError,
    xor_bank_trace_generator,
)
from repro.circuits import build_xor_bank
from repro.core import AttackCampaign
from repro.core.dpa import DPAError, dpa_attack
from repro.core.selection import (
    AesAddRoundKeySelection,
    AesSboxSelection,
    HammingWeightSelection,
)
from repro.crypto import random_key
from repro.crypto.keys import PlaintextGenerator
from repro.electrical.noise import GaussianNoise
from repro.pnr import run_flat_flow

KEY_BYTE = 0x5A


def _plaintexts(count, seed=7):
    rng = random.Random(seed)
    return [[rng.randrange(256)] + [0] * 15 for _ in range(count)]


def _unbalanced_bank(width=8, name="ref", extra_ff=24.0):
    bank = build_xor_bank(width, name)
    for block in bank.bits:
        block.set_level_cap(3, 2, extra_ff)  # rail-1 output net made heavier
    return bank


@pytest.fixture(scope="module")
def xor_traces():
    generator = xor_bank_trace_generator(_unbalanced_bank(), KEY_BYTE)
    return generator.trace_batch(_plaintexts(128))


class TestXorBankTraces:
    def test_matrix_contract(self, xor_traces):
        matrix = xor_traces.matrix()
        assert matrix.shape[0] == 128
        assert matrix.shape[1] > 1
        assert np.all(matrix >= 0)
        assert matrix.max() > 0

    def test_balanced_bank_traces_are_data_independent(self):
        """The constant-transition-count property: with equal rail caps every
        computation deposits the same charges in the same bins."""
        generator = xor_bank_trace_generator(build_xor_bank(8, "bal"), KEY_BYTE)
        matrix = generator.trace_batch(_plaintexts(12)).matrix()
        assert np.allclose(matrix, matrix[0])

    def test_unbalanced_bank_traces_depend_on_data(self, xor_traces):
        matrix = xor_traces.matrix()
        assert not np.allclose(matrix, matrix[0])

    def test_total_charge_tracks_hamming_weight(self, xor_traces):
        """The only data dependence is the rail-capacitance mismatch, so the
        per-trace energy is affine in HW(plaintext ⊕ key) (equation (12))."""
        matrix = xor_traces.matrix()
        energies = matrix.sum(axis=1)
        weights = np.array([bin(p[0] ^ KEY_BYTE).count("1")
                            for p in xor_traces.plaintexts()])
        correlation = np.corrcoef(energies, weights)[0, 1]
        assert correlation > 0.99

    def test_dpa_recovers_key_end_to_end(self, xor_traces):
        """Acceptance: a simulator-backed TraceSet flows through dpa_attack
        and recovers the key on the XOR reference design."""
        selection = HammingWeightSelection(AesAddRoundKeySelection(byte_index=0))
        attack = dpa_attack(xor_traces, selection, polarity="negative")
        assert attack.best_guess == KEY_BYTE
        assert attack.rank_of(KEY_BYTE) == 1
        assert attack.discrimination_ratio(KEY_BYTE) > 1.0

    def test_reference_attack_agrees(self, xor_traces):
        selection = HammingWeightSelection(AesAddRoundKeySelection(byte_index=0))
        fast = dpa_attack(xor_traces, selection, polarity="negative")
        slow = dpa_attack_reference(xor_traces, selection, polarity="negative",
                                    guesses=[KEY_BYTE, KEY_BYTE ^ 0xFF, 0x00])
        assert slow.result_for(KEY_BYTE).peak == pytest.approx(
            fast.result_for(KEY_BYTE).peak)
        assert slow.best_guess == KEY_BYTE

    def test_balanced_bank_shows_no_bias(self):
        generator = xor_bank_trace_generator(build_xor_bank(8, "bal"), KEY_BYTE)
        traces = generator.trace_batch(_plaintexts(64))
        selection = HammingWeightSelection(AesAddRoundKeySelection(byte_index=0))
        attack = dpa_attack(traces, selection)
        assert attack.best_peak < 1e-12

    def test_trace_chunks_match_batch(self):
        generator = xor_bank_trace_generator(_unbalanced_bank(4, "c"), KEY_BYTE,
                                             noise=GaussianNoise(sigma=1e-4, seed=3))
        plaintexts = _plaintexts(20, seed=9)
        full = generator.trace_batch(plaintexts).matrix()
        for chunk_size in (1, 7, 20, 64):
            chunks = list(generator.trace_chunks(plaintexts, chunk_size))
            stacked = np.vstack([c.matrix() for c in chunks])
            assert np.allclose(stacked, full)

    def test_consecutive_batches_share_geometry(self):
        """The first batch pins the sample count, so later batches stay
        concatenable (manual chunking via noise_start_index)."""
        generator = xor_bank_trace_generator(_unbalanced_bank(4, "g"), KEY_BYTE)
        first = generator.trace_batch(_plaintexts(5, seed=1))
        second = generator.trace_batch(_plaintexts(5, seed=2),
                                       noise_start_index=5)
        assert first.matrix().shape[1] == second.matrix().shape[1]

    def test_fixed_duration_too_short_raises(self):
        generator = xor_bank_trace_generator(
            _unbalanced_bank(2, "s"), KEY_BYTE,
            config=SimTraceConfig(duration_s=50e-12))
        with pytest.raises(TraceGenerationError):
            generator.trace_batch(_plaintexts(2))


class TestPolarityOption:
    def test_abs_matches_default(self, xor_traces):
        selection = HammingWeightSelection(AesAddRoundKeySelection(byte_index=0))
        default = dpa_attack(xor_traces, selection)
        explicit = dpa_attack(xor_traces, selection, polarity="abs")
        assert [r.peak for r in default.results] == [r.peak for r in explicit.results]

    def test_polarized_peaks_stay_non_negative(self, xor_traces):
        """Wrong-side excursions are clipped, so the non-negative peak
        contract of GuessResult (ranking, discrimination ratio) holds."""
        selection = HammingWeightSelection(AesAddRoundKeySelection(byte_index=0))
        for polarity in ("negative", "positive"):
            attack = dpa_attack(xor_traces, selection, polarity=polarity)
            assert all(r.peak >= 0.0 for r in attack.results)

    def test_unknown_polarity_rejected(self, xor_traces):
        selection = HammingWeightSelection(AesAddRoundKeySelection(byte_index=0))
        with pytest.raises(DPAError):
            dpa_attack(xor_traces, selection, polarity="sideways")


@pytest.fixture(scope="module")
def placed_reduced_aes():
    key = random_key(16, seed=21)
    architecture = AesArchitecture(word_width=8, detail=0.1)
    netlist = AesNetlistGenerator(architecture, name="aes_rw").build()
    run_flat_flow(netlist, seed=5, effort=0.3)
    return key, architecture, netlist


class TestAesReplayCrossValidation:
    def test_replay_matches_analytic_generator(self, placed_reduced_aes):
        """The committed rail transitions of the schedule replay deposit
        exactly the charges the analytic model scatters."""
        key, architecture, netlist = placed_reduced_aes
        plaintexts = PlaintextGenerator(seed=3).batch(8)
        analytic = AesPowerTraceGenerator(netlist, key, architecture=architecture)
        simulated = AesSimulatorTraceGenerator(netlist, key,
                                               architecture=architecture)
        a = analytic.trace_batch(plaintexts).matrix()
        s = simulated.trace_batch(plaintexts).matrix()
        assert a.shape == s.shape
        assert np.allclose(a, s)

    def test_replay_matches_analytic_with_noise(self, placed_reduced_aes):
        """Both generators draw the same per-trace-index noise stream."""
        key, architecture, netlist = placed_reduced_aes
        plaintexts = PlaintextGenerator(seed=5).batch(4)
        analytic = AesPowerTraceGenerator(
            netlist, key, architecture=architecture,
            noise=GaussianNoise(sigma=5e-4, seed=11))
        simulated = AesSimulatorTraceGenerator(
            netlist, key, architecture=architecture,
            noise=GaussianNoise(sigma=5e-4, seed=11))
        assert np.allclose(analytic.trace_batch(plaintexts).matrix(),
                           simulated.trace_batch(plaintexts).matrix())

    def test_replay_chunks_match_batch(self, placed_reduced_aes):
        key, architecture, netlist = placed_reduced_aes
        plaintexts = PlaintextGenerator(seed=6).batch(6)
        simulated = AesSimulatorTraceGenerator(netlist, key,
                                               architecture=architecture)
        full = simulated.trace_batch(plaintexts).matrix()
        stacked = np.vstack([c.matrix() for c in
                             simulated.trace_chunks(plaintexts, 4)])
        assert np.allclose(stacked, full)

    def test_propagation_adds_interface_churn(self, placed_reduced_aes):
        """With gate propagation the netlist's interface cells react to the
        rail events — activity the idealized model leaves out."""
        key, architecture, netlist = placed_reduced_aes
        plaintexts = PlaintextGenerator(seed=7).batch(2)
        replay = AesSimulatorTraceGenerator(netlist, key,
                                            architecture=architecture)
        full = AesSimulatorTraceGenerator(netlist, key,
                                          architecture=architecture,
                                          propagate=True,
                                          include_internal=True)
        r = replay.trace_batch(plaintexts).matrix()
        f = full.trace_batch(plaintexts).matrix()
        assert f.shape == r.shape
        assert f.sum() > r.sum()
        # Peak slots of the replayed rails stay dominant in the same bins.
        assert r.max() > 0

    def test_include_internal_needs_propagation(self, placed_reduced_aes):
        key, architecture, netlist = placed_reduced_aes
        with pytest.raises(TraceGenerationError):
            AesSimulatorTraceGenerator(netlist, key, architecture=architecture,
                                       include_internal=True)

    def test_wrong_architecture_rejected(self, placed_reduced_aes):
        key, _, netlist = placed_reduced_aes
        other = AesArchitecture(word_width=16, detail=0.1)
        with pytest.raises(TraceGenerationError):
            AesSimulatorTraceGenerator(netlist, key, architecture=other)


class TestCampaignTraceSource:
    def test_simulator_source_rows_match_analytic(self, placed_reduced_aes):
        key, architecture, netlist = placed_reduced_aes
        campaign = AttackCampaign(key, architecture=architecture)
        campaign.add_design("analytic", netlist)
        campaign.add_design("simulated", netlist, source="simulator")
        campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
        result = campaign.run(trace_count=40, seed=9, compute_disclosure=False)
        analytic_row = result.row("analytic")
        simulated_row = result.row("simulated")
        assert simulated_row.best_guess == analytic_row.best_guess
        assert simulated_row.best_peak == pytest.approx(analytic_row.best_peak)
        assert simulated_row.rank_of_correct == analytic_row.rank_of_correct

    def test_streaming_simulator_source_matches(self, placed_reduced_aes):
        key, architecture, netlist = placed_reduced_aes
        def build():
            campaign = AttackCampaign(key, architecture=architecture)
            campaign.add_design("simulated", netlist, source="simulator")
            campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
            return campaign
        in_memory = build().run(trace_count=24, seed=4, compute_disclosure=False)
        streamed = build().run(trace_count=24, seed=4, compute_disclosure=False,
                               streaming=True, chunk_size=10)
        a, b = in_memory.row("simulated"), streamed.row("simulated")
        assert a.best_guess == b.best_guess
        assert a.best_peak == pytest.approx(b.best_peak)

    def test_unknown_source_rejected(self, placed_reduced_aes):
        key, architecture, netlist = placed_reduced_aes
        campaign = AttackCampaign(key, architecture=architecture)
        with pytest.raises(ValueError):
            campaign.add_design("bad", netlist, source="spice")

    def test_source_rejected_for_custom_trace_source(self):
        campaign = AttackCampaign([0] * 16)
        with pytest.raises(ValueError):
            campaign.add_design("bad", trace_source=lambda p, n: None,
                                source="simulator")
