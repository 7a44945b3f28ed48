"""Generated differential tests of the one grid runner (repro.store.grid).

The contract: a campaign or placement sweep produces the same result
frames — byte for byte — and the same store shards whether it runs
serially, on ``workers=2`` forked workers or through a
:class:`repro.serve.CampaignService`, with or without ``store=``, fresh,
fully resumed, or resumed after ``k`` of ``n`` shards.  Hypothesis draws
tiny grids (and, for campaigns, the streaming chunk size) so the contract
is checked on grids nobody picked by hand.
"""

import multiprocessing
import shutil
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import build_xor_bank
from repro.core import AesSboxSelection, AttackCampaign, TraceSet
from repro.crypto.aes_tables import SBOX
from repro.electrical.noise import GaussianNoise
from repro.obs import Telemetry, use
from repro.pnr import PlacementSweep
from repro.serve import CampaignService, ServiceConfig
from repro.store import CampaignFrame, StoreManifest, write_frame

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pooled and service modes need the fork start method")

_SBOX = np.asarray(SBOX, dtype=np.int64)
_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


def _leaky_source(cost):
    def source(plaintexts, noise):
        block = np.asarray([[int(byte) for byte in plaintext]
                            for plaintext in plaintexts], dtype=np.int64)
        ticks = np.arange(32, dtype=float)
        matrix = np.sin(block[:, :1] * 0.37 + ticks * 0.05 * cost)
        matrix[:, 16] += ((_SBOX[block[:, 0]] >> 3) & 1) * 0.5
        if noise is not None:
            matrix = noise.apply_matrix(matrix, 1e-9, 0.0)
        return TraceSet.from_matrix(matrix, plaintexts, 1e-9)

    return source


def _campaign(designs, noises):
    campaign = AttackCampaign([0] * 16, guesses=range(8), mtd_start=8,
                              mtd_step=8)
    for cost in range(1, designs + 1):
        campaign.add_design(f"cost-{cost}", trace_source=_leaky_source(cost))
    campaign.add_noise("noiseless")
    for index in range(noises - 1):
        campaign.add_noise(f"sigma-{index}",
                           partial(GaussianNoise, 0.2, seed=11 + index))
    campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
    campaign.add_attack("dpa")
    campaign.add_assessment("tvla")
    return campaign


def _sweep(coolings, weights):
    return PlacementSweep(
        netlist_factory=lambda: build_xor_bank(2, "w").netlist,
        flow="flat", seed=3, effort=0.2,
        cooling=(0.7, 0.8)[:coolings], moves_per_cell=(4.0,),
        security_weight=(0.0, 0.5)[:weights])


def _npz_bytes(path):
    # telemetry.npz holds span timings, the one run-dependent table.
    return {file.name: file.read_bytes() for file in sorted(path.glob("*.npz"))
            if file.name != "telemetry.npz"}


def _frame_bytes(frames, scratch):
    scratch.mkdir(parents=True, exist_ok=True)
    blobs = []
    for index, frame in enumerate(frames):
        target = scratch / f"frame-{index}.npz"
        write_frame(frame, target)
        blobs.append(target.read_bytes())
    shutil.rmtree(scratch)
    return blobs


def _crash_after(source, target, k):
    """A copy of a finished store as a crash after its first ``k`` shards
    would leave it: the later shards and the merged tables never written."""
    shutil.copytree(source, target)
    manifest = StoreManifest.load(target)
    for key in manifest.scenario_keys[k:]:
        for filename in manifest.shards.pop(key).tables.values():
            (target / filename).unlink()
    for filename in manifest.merged.values():
        (target / filename).unlink()
    manifest.merged = {}
    manifest.save(target)


def _unit_spans(root, name):
    """(attrs without timing, shard) of every unit span, in tree order."""
    return [({key: value for key, value in node.attrs.items()
              if key not in ("shard", "worker")}, node.attrs.get("shard"))
            for node in root.find(name)]


def _traced(run):
    telemetry = Telemetry()
    with use(telemetry):
        result = run()
    return result, telemetry.snapshot()


def _check_modes(target, run, frames_of, unit_span, tmp_path):
    """Run ``target`` in every mode; all frames and shards must match."""
    reference, serial_tree = _traced(run)
    expected = _frame_bytes(frames_of(reference), tmp_path / "scratch")
    fresh = tmp_path / "fresh"
    stored, stored_tree = _traced(lambda: run(store=fresh))
    shards = _npz_bytes(fresh)
    assert _frame_bytes(frames_of(stored), tmp_path / "scratch") == expected
    # Storing only adds store.* spans; the unit spans are the serial ones.
    assert _unit_spans(stored_tree, unit_span) == \
        _unit_spans(serial_tree, unit_span)

    pooled, pooled_tree = _traced(lambda: run(workers=2))
    assert _frame_bytes(frames_of(pooled), tmp_path / "scratch") == expected
    assert pooled_tree.shape() == serial_tree.shape()
    units = _unit_spans(serial_tree, unit_span)
    shard_ids = list(range(len(units))) if len(units) > 1 \
        else [None] * len(units)
    assert _unit_spans(pooled_tree, unit_span) == [
        (attrs, shard) for (attrs, _none), shard in zip(units, shard_ids)]

    keys = StoreManifest.load(fresh).scenario_keys
    service = CampaignService(ServiceConfig(workers=2))
    service.register("target", target)
    with service:
        served = run(service=service)
        assert _frame_bytes(frames_of(served),
                            tmp_path / "scratch") == expected
        served_store = tmp_path / "served"
        run(service=service, store=served_store)
        assert _npz_bytes(served_store) == shards
        for k in range(len(keys) + 1):
            resumed = tmp_path / f"served-resumed-{k}"
            _crash_after(fresh, resumed, k)
            run(service=service, store=resumed)
            assert _npz_bytes(resumed) == shards

    for workers in (1, 2):
        pooled_store = tmp_path / f"pooled-{workers}"
        run(workers=workers, store=pooled_store)
        assert _npz_bytes(pooled_store) == shards
        # Fully resumed: nothing re-runs, the merge is rewritten as is.
        again = run(workers=workers, store=pooled_store)
        assert _frame_bytes(frames_of(again), tmp_path / "scratch") == expected
        assert _npz_bytes(pooled_store) == shards
        for k in range(len(keys) + 1):
            resumed = tmp_path / f"resumed-{workers}-{k}"
            _crash_after(fresh, resumed, k)
            result = run(workers=workers, store=resumed)
            assert _npz_bytes(resumed) == shards
            assert _frame_bytes(frames_of(result),
                                tmp_path / "scratch") == expected


class TestCampaignGrid:
    @_SETTINGS
    @given(designs=st.integers(1, 2), noises=st.integers(1, 2),
           traces=st.sampled_from([16, 24]),
           chunk=st.sampled_from([None, 5, 8, 64]))
    def test_every_mode_is_byte_identical(self, tmp_path_factory, designs,
                                          noises, traces, chunk):
        tmp_path = tmp_path_factory.mktemp("campaign")
        campaign = _campaign(designs, noises)

        def run(**options):
            return campaign.run(trace_count=traces, seed=5,
                                streaming=chunk is not None,
                                chunk_size=chunk, drc="off", **options)

        _check_modes(campaign, run,
                     lambda result: [result.frame(),
                                     result.assessment_frame()],
                     "campaign.scenario", tmp_path)


class TestSweepGrid:
    @_SETTINGS
    @given(coolings=st.integers(1, 2), weights=st.integers(1, 2))
    def test_every_mode_is_byte_identical(self, tmp_path_factory, coolings,
                                          weights):
        tmp_path = tmp_path_factory.mktemp("sweep")
        sweep = _sweep(coolings, weights)
        _check_modes(sweep, sweep.run,
                     lambda result: [CampaignFrame.from_rows(result.rows,
                                                             kind="sweep")],
                     "sweep.point", tmp_path)
