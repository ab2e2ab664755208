"""FastPathExecutor unit behaviour: profiles, dispatch, stats accounting.

The output/cycle fidelity of the fast tier is gated by the differential
suite (`tests/nvdla/test_fastpath_differential.py`); this module covers
the machinery around it — the cycle-profile table and its key,
``calibrate``, the ``execute_bundle`` dispatch, the active/skipped
cycle partition of :class:`RunStats` and the batching of same-shape
launches into one kernel call.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baremetal import execute_bundle, generate_baremetal
from repro.core import FastPathExecutor, Soc, calibrate
from repro.core.fastpath import batch_launches, profile_key
from repro.errors import ReproError
from repro.mem import SparseMemory
from repro.nn.zoo import lenet5
from repro.nvdla import NV_SMALL
from repro.nvdla.config import Precision
from repro.nvdla.descriptors import (
    ConvDescriptor,
    EltwiseOp,
    SdpDescriptor,
    SdpSource,
    TensorDesc,
)
from repro.nvdla.mcif import Mcif
from repro.nvdla.programming import execute_descriptors
from repro.serve.cache import BundleCache
from tests.conftest import DirectDbbPort


@pytest.fixture(scope="module")
def cache():
    return BundleCache()


@pytest.fixture(scope="module")
def lenet_bundle(cache):
    return cache.bundle_for("lenet5", "nv_small")


@pytest.fixture(scope="module")
def table(cache):
    return calibrate(("lenet5",), NV_SMALL, cache=cache)


def test_calibrated_pair_unlocks_fast_mode(lenet_bundle, table):
    """A table from ``calibrate`` serves its recorded profile verbatim."""
    [(key, profile)] = table.items()
    assert key == profile_key(lenet_bundle, 32)
    executor = FastPathExecutor(NV_SMALL, calibration=table)
    result = executor.run(lenet_bundle)
    assert result.ok
    assert result.output is not None
    assert result.cycles == profile.total_cycles
    assert result.op_records == list(profile.op_records)
    assert len(table) == 1  # served from the table, nothing re-recorded


def test_estimate_is_deterministic_and_unguarded(lenet_bundle):
    executor = FastPathExecutor(NV_SMALL)  # no table on purpose: records one
    first = executor.estimate(lenet_bundle)
    assert len(executor.profiles) == 1
    assert executor.estimate(lenet_bundle) is first  # recorded once
    again = FastPathExecutor(NV_SMALL).estimate(lenet_bundle)  # recorded afresh
    assert again == first


def test_estimate_matches_engine_op_latencies(cache):
    """Per-op fast-path totals equal the cycle-accurate OpRecords, and
    fast-tier records carry the engine's (kind, sink, group) schedule."""
    for model in ("lenet5", "resnet18"):
        bundle = cache.bundle_for(model, "nv_small")
        soc = Soc(NV_SMALL)
        soc.load_bundle(bundle)
        reference = soc.run_inference(bundle)
        executor = FastPathExecutor(NV_SMALL)
        profile = executor.estimate(bundle)
        assert [r.timing.total for r in profile.op_records] == [
            r.timing.total for r in reference.op_records
        ]
        fast = executor.run(bundle)
        assert [(r.kind, r.sink, r.group) for r in fast.op_records] == [
            (r.kind, r.sink, r.group) for r in reference.op_records
        ], model


def test_wrong_config_is_refused(lenet_bundle):
    from repro.nvdla import NV_FULL

    executor = FastPathExecutor(NV_FULL)
    with pytest.raises(ReproError, match="built for"):
        executor.run(lenet_bundle)
    assert not executor.profiles  # refused before anything was recorded


def test_memory_width_is_part_of_the_profile_key(lenet_bundle, table):
    """A profile recorded at 32 bits must not price a 64-bit executor:
    DMA pacing (and therefore every op's cycles) changes with the
    width.  The 64-bit executor records its own profile, equal to a
    64-bit SoC run."""
    shared = dict(table)
    executor = FastPathExecutor(NV_SMALL, calibration=shared, memory_bus_width_bits=64)
    result = executor.run(lenet_bundle)
    assert set(shared) == {profile_key(lenet_bundle, 32), profile_key(lenet_bundle, 64)}
    soc = Soc(NV_SMALL, memory_bus_width_bits=64)
    soc.load_bundle(lenet_bundle)
    reference = soc.run_inference(lenet_bundle)
    assert result.cycles == reference.cycles
    assert result.cycles != table[profile_key(lenet_bundle, 32)].total_cycles


def test_execute_bundle_dispatches_both_tiers(lenet_bundle, rng):
    image = rng.uniform(-1, 1, size=(1, 28, 28)).astype(np.float32)
    reference = execute_bundle(lenet_bundle, "cycle_accurate", input_image=image)
    fast = execute_bundle(lenet_bundle, "fast", input_image=image)
    assert reference.ok and fast.ok
    assert np.array_equal(reference.output, fast.output)
    assert fast.stats == reference.stats
    with pytest.raises(ReproError, match="unknown execution mode"):
        execute_bundle(lenet_bundle, "warp")


def test_run_stats_active_and_skipped_partition_cycles(lenet_bundle):
    """`poll_fraction` disambiguation: the two buckets are accumulated
    independently (per-instruction vs per-fast-forward) and must tile
    the total cycle count with no gap and no overlap."""
    soc = Soc(NV_SMALL)
    soc.load_bundle(lenet_bundle)
    result = soc.run_inference(lenet_bundle)
    stats = result.stats
    assert stats.fast_forwards > 0  # the run really did skip polls
    assert stats.active_cycles > 0 and stats.skipped_cycles > 0
    assert stats.active_cycles + stats.skipped_cycles == stats.cycles
    assert stats.poll_fraction == pytest.approx(stats.skipped_cycles / stats.cycles)


def test_fast_path_timing_fidelity_has_no_output(cache):
    bundle = cache.bundle_for("lenet5", "nv_small", fidelity="timing")
    table = calibrate(("lenet5",), NV_SMALL, cache=cache)
    executor = FastPathExecutor(NV_SMALL, calibration=table)
    result = executor.run(bundle)
    assert result.ok
    assert result.output is None
    assert result.cycles > 0


def test_functional_and_timing_builds_share_one_profile(cache):
    """The profile key is what the recording loads — the program, the
    config and the bus width — so a timing build of a calibrated
    functional deployment is served the recorded profile, not a new
    recording."""
    table = calibrate(("lenet5",), NV_SMALL, cache=cache)
    [recorded] = table.values()
    timing_bundle = cache.bundle_for("lenet5", "nv_small", fidelity="timing")
    profile = FastPathExecutor(NV_SMALL, calibration=table).estimate(timing_bundle)
    assert profile is recorded
    assert len(table) == 1


def test_fast_path_repeated_runs_are_bit_identical(tiny_net, rng):
    """Worker-style reuse (same executor, same bundle) must not drift."""
    bundle = generate_baremetal(tiny_net, NV_SMALL)
    table: dict = {}
    executor = FastPathExecutor(NV_SMALL, calibration=table)
    image = rng.uniform(-1, 1, size=tiny_net.input_shape).astype(np.float32)
    first = executor.run(bundle, input_image=image)
    second = executor.run(bundle, input_image=image)
    assert np.array_equal(first.output, second.output)
    assert first.cycles == second.cycles
    # And a fresh executor agrees with the reused one.
    fresh = FastPathExecutor(NV_SMALL, calibration=table).run(bundle, input_image=image)
    assert np.array_equal(first.output, fresh.output)
    assert len(table) == 1  # the second executor reused the recording


def test_eviction_never_re_records(lenet_bundle, tiny_net):
    """Profiles outlive the resident-bundle LRU: re-warming an evicted
    bundle pays the DRAM preload again, never the SoC recording."""
    other = generate_baremetal(tiny_net, NV_SMALL)
    executor = FastPathExecutor(NV_SMALL, max_resident_bundles=1)
    first = executor.run(lenet_bundle)
    executor.run(other)  # evicts lenet_bundle's resident state
    profile = executor.profiles[profile_key(lenet_bundle, 32)]
    again = executor.run(lenet_bundle)
    assert executor.resident_stats.evictions == 2
    assert executor.profiles[profile_key(lenet_bundle, 32)] is profile
    assert len(executor.profiles) == 2
    assert again.op_records == first.op_records


def _conv_launch(index: int, input_address: int, eltwise: bool = False) -> dict:
    """A 3x3 INT8 conv + SDP launch whose surfaces and operands sit at
    ``index``-specific addresses, with its own converter values."""
    def tensor(address):
        return TensorDesc(address=address, width=6, height=6, channels=8,
                          precision=Precision.INT8)

    conv = ConvDescriptor(
        input=tensor(input_address), weight_address=0x40000 + index * 0x1000,
        kernel_k=8, kernel_c=8, kernel_r=3, kernel_s=3, stride_x=1, stride_y=1,
        pad_left=1, pad_top=1, pad_right=1, pad_bottom=1, precision=Precision.INT8,
        out_width=6, out_height=6,
    )
    sdp = SdpDescriptor(
        source=SdpSource.FLYING, output=tensor(0x80000 + index * 0x1000),
        out_precision=Precision.INT8, bias_address=0x60000 + index * 0x100,
        eltwise=EltwiseOp.ADD if eltwise else EltwiseOp.NONE,
        eltwise_input=tensor(0x70000 + index * 0x1000) if eltwise else None,
        ew_cvt_multiplier=1 + index, ew_cvt_shift=index % 3 * 4,
        relu=True, cvt_multiplier=1 + index, cvt_shift=9 + index % 3,
    )
    return {"conv": conv, "sdp": sdp}


@pytest.mark.parametrize("eltwise", [False, True], ids=["conv", "conv+eltwise"])
def test_batched_launches_write_what_single_launches_write(eltwise):
    """A run of same-shape launches executed as one kernel call leaves
    memory exactly as one call per launch does; a launch reading an
    earlier launch's output, or of another shape, starts a new run."""
    launches = [_conv_launch(i, 0x10000 + i * 0x1000, eltwise) for i in range(4)]
    assert [len(run) for run in batch_launches(launches, NV_SMALL)] == [4]
    dependent = _conv_launch(4, launches[1]["sdp"].output.address, eltwise)
    other_shape = dict(launches[0], sdp=replace(launches[0]["sdp"], relu=False))
    launches += [dependent, other_shape]
    runs = batch_launches(launches, NV_SMALL)
    assert [len(run) for run in runs] == [4, 1, 1]

    rng = np.random.default_rng(5)
    initial = bytearray(rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes())
    biases = rng.integers(-5000, 5000, size=(5, 64), dtype=np.int32).tobytes()
    initial[0x60000 : 0x60000 + len(biases)] = biases

    def final_memory(calls, weight_cache):
        memory = SparseMemory(1 << 20)
        memory.write(0, bytes(initial))
        mcif = Mcif(DirectDbbPort(memory))
        for call in calls:
            execute_descriptors(call, NV_SMALL, mcif, weight_cache=weight_cache)
        return memory.read(0, 1 << 20)

    batched = final_memory(runs, weight_cache={})
    assert batched != bytes(initial)
    assert batched == final_memory([[launch] for launch in launches], weight_cache=None)
