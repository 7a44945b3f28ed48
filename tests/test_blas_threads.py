"""Grid runs pin OpenBLAS to one thread, whatever the ambient count.

A threaded gemm splits its sums differently from a serial one, so at the
``attack-inmem`` shape of ``perfbench`` (8-bit AES, 600 traces, DPA + CPA,
noiseless + gaussian) the ``best_peak``/``discrimination`` columns move in
their last bits between one and two BLAS threads.  Every grid run enters
:func:`repro.store.grid.single_blas_thread`, so campaign frames are byte
for byte the same with the ambient count at 1 and at 2 — serial, pooled,
streaming and through the service — and the caller's count comes back
afterwards.  Without the pin the in-memory frames differ at 2 threads;
the streaming ones (100-trace chunk products) happen not to, and are
checked so that they stay that way.  CI also runs this file with
``OPENBLAS_NUM_THREADS`` set to 1 and to 2 at process start.
"""

import logging
import multiprocessing
import shutil
from contextlib import contextmanager
from functools import partial

import pytest

from repro.asyncaes import AesArchitecture, AesNetlistGenerator
from repro.circuits import build_xor_bank
from repro.core import AesSboxSelection, AttackCampaign
from repro.crypto.keys import random_key
from repro.electrical import GaussianNoise
from repro.obs import Telemetry, use
from repro.pnr import PlacementSweep, run_flat_flow
from repro.serve import CampaignService, ServiceConfig
from repro.store import grid, write_frame
from repro.store.grid import fan_out, single_blas_thread

_CONTROLS = grid._blas_controls()

pytestmark = pytest.mark.skipif(
    not _CONTROLS, reason="no OpenBLAS thread-count symbol to drive")

_FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pooled and service modes need the fork start method")


def _threads() -> int:
    return _CONTROLS[1]()


@contextmanager
def _ambient(count):
    """Set the process's BLAS thread count for a block, then restore it."""
    previous = _threads()
    _CONTROLS[0](count)
    try:
        yield
    finally:
        _CONTROLS[0](previous)


@pytest.fixture(scope="module")
def attack_inmem_campaign():
    """The perfbench ``attack-inmem`` campaign on its flat design."""
    architecture = AesArchitecture(word_width=8, detail=0.1)
    netlist = AesNetlistGenerator(architecture, name="aes_flat").build()
    run_flat_flow(netlist, seed=5, effort=0.3)
    campaign = AttackCampaign(random_key(16, seed=7),
                              architecture=architecture, mtd_start=20,
                              mtd_step=20, stable_runs=3)
    campaign.add_design("flat", netlist)
    campaign.add_selection(AesSboxSelection(byte_index=3, bit_index=0))
    campaign.add_attack("dpa")
    campaign.add_attack("cpa")
    campaign.add_noise("noiseless", None)
    campaign.add_noise("gaussian", partial(GaussianNoise, 6e-4, seed=17))
    campaign.add_assessment("tvla", threshold=4.5)
    return campaign


def _frame_bytes(result, scratch):
    scratch.mkdir(parents=True, exist_ok=True)
    blobs = []
    for index, frame in enumerate([result.frame(),
                                   result.assessment_frame()]):
        target = scratch / f"frame-{index}.npz"
        write_frame(frame, target)
        blobs.append(target.read_bytes())
    shutil.rmtree(scratch)
    return blobs


@_FORK
@pytest.mark.parametrize("streaming", [False, True],
                         ids=["in-memory", "streaming"])
def test_frames_do_not_depend_on_the_ambient_count(attack_inmem_campaign,
                                                   streaming, tmp_path):
    campaign = attack_inmem_campaign
    options = dict(trace_count=600, seed=0, streaming=streaming,
                   chunk_size=100 if streaming else None, drc="off")
    frames = {}
    for ambient in (1, 2):
        with _ambient(ambient):
            for workers in (1, 2):
                frames[ambient, f"workers={workers}"] = _frame_bytes(
                    campaign.run(workers=workers, **options),
                    tmp_path / "scratch")
            service = CampaignService(ServiceConfig(workers=2))
            service.register("attack-inmem", campaign)
            with service:
                frames[ambient, "service"] = _frame_bytes(
                    campaign.run(service=service, **options),
                    tmp_path / "scratch")
            assert _threads() == ambient
    expected = frames[1, "workers=1"]
    assert {key for key, blobs in frames.items() if blobs != expected} == set()


def test_fan_out_restores_the_ambient_count():
    with _ambient(2):
        assert list(fan_out(lambda index: _threads(), 3, 1)) == [1, 1, 1]
        assert _threads() == 2


@_FORK
def test_forked_workers_inherit_one_thread():
    with _ambient(2):
        assert list(fan_out(lambda index: _threads(), 3, 2)) == [1, 1, 1]
        assert _threads() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_early_close_restores_the_ambient_count(workers):
    with _ambient(2):
        results = fan_out(lambda index: _threads(), 3, workers)
        assert next(results) == 1
        assert _threads() == 1
        results.close()
        assert _threads() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_a_raising_unit_restores_the_ambient_count(workers):
    def unit(index):
        if index == 1:
            raise RuntimeError("unit 1 failed")
        return index

    with _ambient(2):
        with pytest.raises(RuntimeError, match="unit 1 failed"):
            list(fan_out(unit, 3, workers))
        assert _threads() == 2


def _tiny_sweep():
    return PlacementSweep(
        netlist_factory=lambda: build_xor_bank(2, "w").netlist,
        flow="flat", seed=3, effort=0.2, cooling=(0.8,),
        moves_per_cell=(4.0,), security_weight=(0.0,))


def _span_threads(campaign):
    telemetry = Telemetry()
    with use(telemetry):
        campaign.run(trace_count=40, seed=1, drc="off")
        _tiny_sweep().run()
    root = telemetry.snapshot()
    return [node.attrs["blas_threads"]
            for name in ("campaign", "sweep") for node in root.find(name)]


def test_spans_carry_the_effective_count(attack_inmem_campaign):
    with _ambient(2):
        assert _span_threads(attack_inmem_campaign) == [1, 1]
        assert _threads() == 2


def test_missing_symbol_is_a_logged_no_op(attack_inmem_campaign,
                                          monkeypatch, caplog):
    monkeypatch.setattr(grid, "_BLAS_CONTROLS", None)
    monkeypatch.setattr(grid, "_BLAS_SYMBOLS",
                        (("no_such_set_threads", "no_such_get_threads"),))
    with _ambient(2), caplog.at_level(logging.WARNING, logger=grid.__name__):
        with single_blas_thread() as threads:
            assert threads is None
            assert _threads() == 2
        assert _span_threads(attack_inmem_campaign) == [None, None]
    warnings = [record for record in caplog.records
                if "thread-count symbol" in record.getMessage()]
    assert len(warnings) == 1
