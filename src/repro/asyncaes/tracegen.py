"""Power-trace generation for the asynchronous AES crypto-processor.

The chip measurements promised at the end of the paper are replaced by a
synthetic trace generator that applies the paper's own current model to the
block-level data flow:

* every word transferred on an inter-block channel raises exactly one rail
  per bit (evaluation phase) and lowers it again (return-to-zero phase) —
  the constant-transition-count property of the secured QDI style;
* each rail transition contributes a current pulse whose charge and width are
  set by the rail net's extracted capacitance, so the *only* data dependence
  of the trace is the capacitance mismatch between the rails of a channel —
  precisely the residual leak equation (12) identifies;
* optional Gaussian noise and uncorrelated background activity model the
  measurement environment of a real acquisition.

Traces generated for a flat-placed netlist therefore leak more than traces
generated for a hierarchically-placed one, which is the end-to-end statement
of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.netlist import Netlist
from ..core.dpa import TraceSet
from ..crypto.aes import encrypt_states_batch
from ..crypto.keys import PlaintextGenerator
from ..electrical.noise import NoiseModel, apply_noise_matrix
from ..electrical.technology import HCMOS9_LIKE, Technology
from ..electrical.waveform import Waveform
from .architecture import AesArchitecture
from .datapath import CipherDataPath, EncryptionRun
from .keypath import ChannelTransfer, KeySchedulePath


class TraceGenerationError(Exception):
    """Raised when traces cannot be generated for a netlist."""


def fixed_vs_random_plaintexts(count: int, *, fixed: Optional[Sequence[int]] = None,
                               block_size: int = 16,
                               seed: Optional[int] = None,
                               mode: str = "alternate"
                               ) -> Tuple[List[List[int]], np.ndarray]:
    """The interleaved plaintext schedule of a non-specific TVLA acquisition.

    Returns ``(plaintexts, labels)`` where ``labels[i]`` is 0 for the fixed
    plaintext and 1 for a fresh random one.  ``mode="alternate"`` interleaves
    strictly (F, R, F, R, …, the classical schedule that cancels drift);
    ``mode="shuffled"`` assigns a seeded random balanced order.  The fixed
    block defaults to one reproducible draw from the same seed, so a whole
    campaign is pinned by a single integer.
    """
    if count < 0:
        raise TraceGenerationError(f"count must be >= 0, got {count}")
    generator = PlaintextGenerator(block_size=block_size, seed=seed)
    fixed_block = list(fixed) if fixed is not None else generator.next()
    if len(fixed_block) != block_size:
        raise TraceGenerationError(
            f"fixed plaintext has {len(fixed_block)} bytes, expected {block_size}"
        )
    if mode == "alternate":
        labels = np.arange(count, dtype=np.int64) % 2
    elif mode == "shuffled":
        labels = np.zeros(count, dtype=np.int64)
        labels[count // 2:] = 1
        rng = np.random.default_rng(seed)
        rng.shuffle(labels)
    else:
        raise TraceGenerationError(
            f"unknown schedule mode {mode!r}; expected 'alternate' or 'shuffled'"
        )
    plaintexts = [list(fixed_block) if label == 0 else generator.next()
                  for label in labels]
    return plaintexts, labels


def word_digits(words: Sequence[int], width: int, radix: int) -> np.ndarray:
    """Base-``radix`` digits of a batch of words, least significant first.

    Returns a ``(len(words), width)`` integer matrix; entry ``[k, i]`` is the
    value of digit ``i`` of word ``k``, i.e. the index of the rail that fires
    on channel bit ``i`` of a 1-of-``radix`` encoded transfer.  Digits beyond
    ``width`` are ignored, mirroring how a bus truncates a wider word.
    """
    if radix < 2:
        raise TraceGenerationError(f"channel radix must be >= 2, got {radix}")
    words = np.asarray(words, dtype=np.int64)
    if radix == 2:
        return (words[:, None] >> np.arange(width, dtype=np.int64)) & 1
    digits = np.empty((len(words), width), dtype=np.int64)
    remainder = words.copy()
    for index in range(width):
        digits[:, index] = remainder % radix
        remainder //= radix
    return digits


@dataclass
class TraceGeneratorConfig:
    """Timing and sampling parameters of the synthesized traces."""

    slot_period_s: float = 2e-9
    sample_period_s: float = 100e-12
    rtz_fraction: float = 0.5
    include_return_to_zero: bool = True
    include_key_path: bool = True
    drive_resistance_ohm: float = 5000.0


class AesPowerTraceGenerator:
    """Generates supply-current traces of the asynchronous AES.

    Parameters
    ----------
    netlist:
        The placed-and-extracted structural netlist (its per-rail load
        capacitances define the leak).
    key:
        The 16-byte secret key of the device under attack.
    architecture:
        Channel/bus structure (must match the netlist generator's).
    technology:
        Supply voltage and capacitance parameters.
    noise:
        Optional additive noise model.
    config:
        Timing and sampling parameters.
    """

    def __init__(self, netlist: Netlist, key: Sequence[int], *,
                 architecture: Optional[AesArchitecture] = None,
                 technology: Technology = HCMOS9_LIKE,
                 noise: Optional[NoiseModel] = None,
                 config: Optional[TraceGeneratorConfig] = None):
        self.netlist = netlist
        self.key = list(key)
        self.architecture = architecture if architecture is not None else AesArchitecture()
        self.technology = technology
        self.noise = noise
        self.config = config if config is not None else TraceGeneratorConfig()
        self.datapath = CipherDataPath(self.key)
        self.keypath = KeySchedulePath(self.key)
        # The key-path channel activity depends only on the key, so its
        # transfers are computed once and reused for every trace.
        self._key_transfers_cache: Optional[Tuple[List[List[int]], List[ChannelTransfer]]] = None
        self._refresh_caps()

    # -------------------------------------------------------------- set-up
    def _refresh_caps(self) -> None:
        """(Re)build every capacitance-derived cache from the netlist.

        Keyed on :attr:`~repro.circuits.netlist.Netlist.state_version`: a
        hardening pass that inserts dummy loads, rewrites routing caps or
        adds structure bumps the netlist's cap/topology version, and the next
        trace generation transparently re-collects the rail capacitances
        (and drops the cap matrices and key-path templates derived from
        them) instead of synthesizing traces of the pre-countermeasure
        design.
        """
        self._rail_caps = self._collect_rail_caps()
        self._cap_matrices: Dict[str, np.ndarray] = {}
        self._key_template_cache: Dict[tuple, np.ndarray] = {}
        self._cap_state = self.netlist.state_version

    def _ensure_caps_current(self) -> None:
        if self._cap_state != self.netlist.state_version:
            self._refresh_caps()
    def _collect_rail_caps(self) -> Dict[Tuple[str, int, int], float]:
        """Load capacitance (fF) of every channel rail, keyed by (bus, bit, rail)."""
        caps: Dict[Tuple[str, int, int], float] = {}
        for bus in self.architecture.channels:
            for bit in range(bus.width):
                for rail in range(bus.radix):
                    net_name = bus.rail_net(bit, rail)
                    if not self.netlist.has_net(net_name):
                        raise TraceGenerationError(
                            f"netlist has no net {net_name!r}; was it generated "
                            f"with the same architecture?"
                        )
                    caps[(bus.name, bit, rail)] = self.netlist.load_cap_ff(net_name)
        return caps

    def rail_cap_ff(self, bus: str, bit: int, rail: int) -> float:
        self._ensure_caps_current()
        return self._rail_caps[(bus, bit, rail)]

    # ------------------------------------------------------------ one trace
    def _transfers_for(self, plaintext: Sequence[int]) -> Tuple[EncryptionRun, List[ChannelTransfer]]:
        run = self.datapath.encrypt(plaintext)
        transfers = list(run.transfers)
        if self.config.include_key_path:
            if self._key_transfers_cache is None:
                round_words, _ = self.keypath.run(start_slot=0)
                self._key_transfers_cache = (round_words, list(self.keypath.transfers))
            round_words, key_transfers = self._key_transfers_cache
            transfers.extend(key_transfers)
            transfers.extend(self.keypath.subkey_transfers(round_words,
                                                           run.round_key_slots))
        return run, transfers

    def _bus_radix(self, bus_name: str) -> int:
        """Encoding radix of a bus (2 for dual-rail, N for 1-of-N)."""
        for bus in self.architecture.channels:
            if bus.name == bus_name:
                return bus.radix
        return 2

    def _bus_cap_matrix(self, bus_name: str, width: int) -> np.ndarray:
        """Cached ``(width, radix)`` array of rail load capacitances of one bus.

        The shape honours the bus's 1-of-N encoding radix: every rail of
        every digit contributes its extracted capacitance, instead of the
        former hard-wired dual-rail assumption that silently dropped the
        rails of wider encodings.
        """
        cached = self._cap_matrices.get(bus_name)
        if cached is not None:
            return cached
        radix = self._bus_radix(bus_name)
        if radix < 2:
            raise TraceGenerationError(
                f"bus {bus_name!r} has radix {radix}; 1-of-N channels need N >= 2"
            )
        matrix = np.zeros((width, radix))
        for bit in range(width):
            for rail in range(radix):
                matrix[bit, rail] = self._rail_caps.get((bus_name, bit, rail), 0.0)
        self._cap_matrices[bus_name] = matrix
        return matrix

    def _sample_geometry(self, total_slots: int) -> Tuple[int, float, int]:
        """``(sample_count, samples_per_slot, rtz_offset)`` of a trace."""
        cfg = self.config
        duration = (total_slots + 4) * cfg.slot_period_s
        sample_count = max(1, int(np.ceil(duration / cfg.sample_period_s)))
        samples_per_slot = cfg.slot_period_s / cfg.sample_period_s
        rtz_offset = int(round(cfg.rtz_fraction * cfg.slot_period_s / cfg.sample_period_s))
        return sample_count, samples_per_slot, rtz_offset

    def _transfer_currents(self, bus: str, width: int,
                           words: np.ndarray) -> np.ndarray:
        """Supply-current contribution of a batch of words on one bus."""
        caps = self._bus_cap_matrix(bus, width)
        digits = word_digits(words, width, caps.shape[1])
        charges = caps[np.arange(width)[None, :], digits].sum(axis=1)
        return charges * 1e-15 * self.technology.vdd / self.config.sample_period_s

    def trace(self, plaintext: Sequence[int]) -> Waveform:
        """Synthesize the supply-current trace of one encryption.

        All rails of a word switch within one slot, and the individual pulse
        widths (a few tens of picoseconds) are below the sampling period, so
        each transfer deposits its total charge into the sample bin of its
        slot — the resulting current sample is ``ΣC·Vdd / dt``, which keeps
        exactly the per-bit capacitance dependence the DPA exploits.

        This is the per-trace reference path; :meth:`trace_batch` produces
        the same samples for a whole batch of plaintexts at once.
        """
        self._ensure_caps_current()
        run, transfers = self._transfers_for(plaintext)
        cfg = self.config
        sample_count, samples_per_slot, rtz_offset = self._sample_geometry(run.total_slots)
        samples = np.zeros(sample_count)

        bus_widths = {bus.name: bus.width for bus in self.architecture.channels}
        for transfer in transfers:
            width = min(transfer.width, bus_widths.get(transfer.bus, transfer.width))
            current = float(self._transfer_currents(
                transfer.bus, width, np.array([transfer.word], dtype=np.int64))[0])
            index = int(round(transfer.slot * samples_per_slot))
            if 0 <= index < sample_count:
                samples[index] += current
            if cfg.include_return_to_zero:
                rtz_index = index + rtz_offset
                if 0 <= rtz_index < sample_count:
                    samples[rtz_index] += current

        waveform = Waveform(samples, cfg.sample_period_s, 0.0)
        if self.noise is not None:
            waveform = self.noise.apply(waveform)
        return waveform

    # ------------------------------------------------------------ trace sets
    def _key_path_template(self, sample_count: int, samples_per_slot: float,
                           rtz_offset: int, round_key_slots: Dict[int, int]
                           ) -> np.ndarray:
        """Per-trace contribution of the key path (identical for every trace).

        The key-schedule channel activity depends only on the key, so its
        scatter into the sample bins is computed once per sample geometry and
        broadcast over all rows of the trace matrix (and reused across the
        chunks of a streaming generation).
        """
        cache_key = (sample_count, rtz_offset,
                     tuple(sorted(round_key_slots.items())))
        cached = self._key_template_cache.get(cache_key)
        if cached is not None:
            return cached
        if self._key_transfers_cache is None:
            round_words, _ = self.keypath.run(start_slot=0)
            self._key_transfers_cache = (round_words, list(self.keypath.transfers))
        round_words, key_transfers = self._key_transfers_cache
        transfers = list(key_transfers)
        transfers.extend(self.keypath.subkey_transfers(round_words, round_key_slots))

        template = np.zeros(sample_count)
        bus_widths = {bus.name: bus.width for bus in self.architecture.channels}
        for transfer in transfers:
            width = min(transfer.width, bus_widths.get(transfer.bus, transfer.width))
            current = float(self._transfer_currents(
                transfer.bus, width, np.array([transfer.word], dtype=np.int64))[0])
            index = int(round(transfer.slot * samples_per_slot))
            if 0 <= index < sample_count:
                template[index] += current
            if self.config.include_return_to_zero:
                rtz_index = index + rtz_offset
                if 0 <= rtz_index < sample_count:
                    template[rtz_index] += current
        self._key_template_cache[cache_key] = template
        return template

    def _batch_transfer_words(self, run0, plaintexts: List[List[int]]
                              ) -> np.ndarray:
        """``(n_traces, n_transfers)`` words carried by the fixed schedule.

        Runs the vectorized batch cipher once and resolves every transfer's
        word from its recorded ``(state label, column)`` source.  Falls back
        to walking the architecture model per plaintext when the schedule
        carries no source annotations (custom data paths).  The first row is
        checked against the reference model run, so any drift between the
        batch cipher and the architecture walk fails loudly.
        """
        n_traces, transfer_count = len(plaintexts), len(run0.transfers)
        if len(run0.word_sources) != transfer_count:
            words = np.empty((n_traces, transfer_count), dtype=np.int64)
            words[0] = [t.word for t in run0.transfers]
            for index, plaintext in enumerate(plaintexts[1:], start=1):
                run = self.datapath.encrypt(plaintext)
                if (len(run.transfers) != transfer_count
                        or run.total_slots != run0.total_slots):
                    raise TraceGenerationError(
                        "data-path transfer schedule is not batch-invariant; "
                        "cannot vectorize trace generation"
                    )
                words[index] = [t.word for t in run.transfers]
            return words

        states = encrypt_states_batch(self.key, plaintexts)
        word_cache: Dict[str, np.ndarray] = {}

        def words_of(label: str) -> np.ndarray:
            cached = word_cache.get(label)
            if cached is None:
                blocks = (np.asarray(plaintexts, dtype=np.int64)
                          if label == "plaintext"
                          else states[label].astype(np.int64))
                cached = ((blocks[:, 0::4] << 24) | (blocks[:, 1::4] << 16)
                          | (blocks[:, 2::4] << 8) | blocks[:, 3::4])
                word_cache[label] = cached
            return cached

        words = np.empty((n_traces, transfer_count), dtype=np.int64)
        for position, (label, column) in enumerate(run0.word_sources):
            words[:, position] = words_of(label)[:, column]
        reference_words = np.asarray([t.word for t in run0.transfers],
                                     dtype=np.int64)
        if not np.array_equal(words[0], reference_words):
            raise TraceGenerationError(
                "batched cipher states diverged from the architecture model"
            )
        return words

    def trace_batch(self, plaintexts: Iterable[Sequence[int]], *,
                    noise_start_index: int = 0) -> TraceSet:
        """Synthesize the traces of a whole batch of plaintexts at once.

        The generation splits into a cheap per-plaintext step — running the
        data-flow model to obtain the transferred words — and a vectorized
        scatter: the transfer *schedule* (which bus occupies which slot) is
        data-independent, so the slot sample indices and rail-capacitance
        lookups are computed once and reused across the batch, and all
        per-transfer charges land in the ``(n_traces, n_samples)`` matrix
        through a single ``np.add.at`` per pulse phase.  Numerically
        equivalent to calling :meth:`trace` per plaintext (``np.allclose``).

        ``noise_start_index`` pins the batch's place in the noise stream:
        trace row ``i`` draws the noise of global index
        ``noise_start_index + i`` (see :mod:`repro.electrical.noise`), which
        is what makes chunked generation sample-identical to one big batch.
        """
        self._ensure_caps_current()
        plaintexts = [list(p) for p in plaintexts]
        if not plaintexts:
            return TraceSet()
        cfg = self.config
        # One walk of the architecture model fixes the (bus, slot) schedule
        # and names the cipher-state word each transfer carries; the words of
        # every other plaintext come from the vectorized batch cipher.
        run0 = self.datapath.encrypt(plaintexts[0])
        schedule = run0.transfers
        transfer_count = len(schedule)
        n_traces = len(plaintexts)
        sample_count, samples_per_slot, rtz_offset = self._sample_geometry(
            run0.total_slots)
        matrix = np.zeros((n_traces, sample_count))

        words = self._batch_transfer_words(run0, plaintexts)

        # Per-transfer currents, grouped by bus so each group resolves its
        # words against one cached capacitance matrix in a single lookup.
        bus_widths = {bus.name: bus.width for bus in self.architecture.channels}
        groups: Dict[Tuple[str, int], List[int]] = {}
        for position, transfer in enumerate(schedule):
            width = min(transfer.width, bus_widths.get(transfer.bus, transfer.width))
            groups.setdefault((transfer.bus, width), []).append(position)
        currents = np.empty((n_traces, transfer_count))
        for (bus, width), positions in groups.items():
            flat = self._transfer_currents(bus, width, words[:, positions].ravel())
            currents[:, positions] = flat.reshape(n_traces, len(positions))

        # One scatter per pulse phase (evaluation, then return-to-zero).
        sample_indices = np.array(
            [int(round(t.slot * samples_per_slot)) for t in schedule], dtype=np.int64
        )
        rows = np.arange(n_traces)[:, None]
        phases = [sample_indices]
        if cfg.include_return_to_zero:
            phases.append(sample_indices + rtz_offset)
        for indices in phases:
            in_range = (indices >= 0) & (indices < sample_count)
            if in_range.any():
                np.add.at(matrix, (rows, indices[in_range][None, :]),
                          currents[:, in_range])

        if cfg.include_key_path:
            matrix += self._key_path_template(
                sample_count, samples_per_slot, rtz_offset, run0.round_key_slots
            )[None, :]

        if self.noise is not None:
            matrix = apply_noise_matrix(self.noise, matrix, cfg.sample_period_s,
                                        0.0, noise_start_index)
        return TraceSet.from_matrix(matrix, plaintexts, cfg.sample_period_s, 0.0)

    def trace_chunks(self, plaintexts: Iterable[Sequence[int]],
                     chunk_size: int, *,
                     noise_start_index: int = 0) -> Iterable[TraceSet]:
        """Yield the batch's traces as bounded-memory :class:`TraceSet` blocks.

        The streaming entry point of the generator: each block of up to
        ``chunk_size`` plaintexts goes through the vectorized batch engine
        independently — schedule, capacitance and key-path template caches
        are shared across chunks — and is yielded before the next block is
        synthesized, so a consumer that drops each chunk (an accumulator
        pipeline) never holds more than one ``(chunk_size, n_samples)``
        matrix.  Because the per-trace currents are row-independent and the
        noise of trace ``i`` is a pure function of its global index, the
        concatenation of all chunks is *sample-identical* to
        ``trace_batch(plaintexts)`` for every chunk size.
        """
        if chunk_size < 1:
            raise TraceGenerationError(
                f"chunk size must be >= 1, got {chunk_size}")
        plaintexts = [list(p) for p in plaintexts]
        for start in range(0, len(plaintexts), chunk_size):
            yield self.trace_batch(
                plaintexts[start:start + chunk_size],
                noise_start_index=noise_start_index + start,
            )

    def trace_set(self, plaintexts: Iterable[Sequence[int]]) -> TraceSet:
        """Synthesize one trace per plaintext and bundle them for the DPA.

        Delegates to the batched engine; every existing caller of
        ``trace_set`` gets the vectorized path transparently.
        """
        return self.trace_batch(plaintexts)

    def random_trace_set(self, count: int, *, seed: Optional[int] = None) -> TraceSet:
        """Trace set over ``count`` uniformly random plaintexts."""
        generator = PlaintextGenerator(block_size=16, seed=seed)
        return self.trace_set(generator.batch(count))

    # -------------------------------------------------------------- queries
    def target_slot(self, column: int = 0) -> int:
        """Slot index at which the attacked addkey0 word crosses its channel."""
        run = self.datapath.encrypt([0] * 16)
        on_bus = run.transfers_on("addkey0_to_mux")
        if not on_bus:
            raise TraceGenerationError("no addkey0_to_mux transfers recorded")
        return sorted(t.slot for t in on_bus)[column]

    def channel_dissymmetry(self, bus: str, bit: int) -> float:
        """Dissymmetry criterion of one channel bit, from the collected caps."""
        self._ensure_caps_current()
        cap0 = self._rail_caps[(bus, bit, 0)]
        cap1 = self._rail_caps[(bus, bit, 1)]
        smallest = min(cap0, cap1)
        if smallest == 0:
            return float("inf") if max(cap0, cap1) > 0 else 0.0
        return abs(cap0 - cap1) / smallest
