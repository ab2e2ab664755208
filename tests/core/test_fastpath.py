"""FastPathExecutor unit behaviour: guard, estimates, stats accounting.

The output/cycle fidelity of the fast tier is gated by the differential
suite (`tests/nvdla/test_fastpath_differential.py`); this module covers
the machinery around it — the calibration guard, table persistence,
estimate determinism, the ``execute_bundle`` dispatch and the
active/skipped cycle partition of :class:`RunStats`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baremetal import execute_bundle, generate_baremetal
from repro.core import (
    CalibrationTable,
    FastPathExecutor,
    OverheadParams,
    Soc,
    calibrate,
)
from repro.core.calibration import Observation, fit_overheads
from repro.errors import ReproError
from repro.nn.zoo import lenet5
from repro.nvdla import NV_SMALL
from repro.serve.cache import BundleCache


@pytest.fixture(scope="module")
def cache():
    return BundleCache()


@pytest.fixture(scope="module")
def lenet_bundle(cache):
    return cache.bundle_for("lenet5", "nv_small")


@pytest.fixture(scope="module")
def table(cache):
    return calibrate(("lenet5",), NV_SMALL, cache=cache)


def test_uncalibrated_fast_run_is_refused(lenet_bundle):
    executor = FastPathExecutor(NV_SMALL)
    with pytest.raises(ReproError, match="CalibrationTable"):
        executor.run(lenet_bundle)
    # A table that exists but never validated this pair refuses too.
    executor = FastPathExecutor(NV_SMALL, calibration=CalibrationTable())
    with pytest.raises(ReproError, match="never calibrated"):
        executor.run(lenet_bundle)


def test_calibrated_pair_unlocks_fast_mode(lenet_bundle, table):
    executor = FastPathExecutor(NV_SMALL, calibration=table)
    result = executor.run(lenet_bundle)
    assert result.ok
    assert result.output is not None
    assert result.cycles == table.entry("lenet5", "nv_small", "int8").estimated_cycles


def test_estimate_is_deterministic_and_unguarded(lenet_bundle):
    executor = FastPathExecutor(NV_SMALL)  # no calibration on purpose
    first = executor.estimate(lenet_bundle)
    second = executor.estimate(lenet_bundle)
    assert first.total_cycles == second.total_cycles
    assert first.op_cycles == second.op_cycles
    assert [t.total for t in first.timings] == [t.total for t in second.timings]
    assert first.csb_writes + first.polls == len(lenet_bundle.commands)
    assert first.total_cycles == first.op_cycles + first.programming_cycles


def test_estimate_matches_engine_op_latencies(cache):
    """Per-op fast-path totals equal the cycle-accurate OpRecords, and
    fast-tier records carry the engine's (kind, sink, group) schedule."""
    for model in ("lenet5", "resnet18"):
        bundle = cache.bundle_for(model, "nv_small")
        soc = Soc(NV_SMALL)
        soc.load_bundle(bundle)
        reference = soc.run_inference(bundle)
        table = CalibrationTable()
        executor = FastPathExecutor(NV_SMALL, calibration=table)
        estimate = executor.estimate(bundle)
        assert [t.total for t in estimate.timings] == [
            r.timing.total for r in reference.op_records
        ]
        table.admit(model, "nv_small", "int8", reference.cycles, estimate.total_cycles)
        fast = executor.run(bundle)
        assert [(r.kind, r.sink, r.group) for r in fast.op_records] == [
            (r.kind, r.sink, r.group) for r in reference.op_records
        ], model


def test_wrong_config_is_refused(lenet_bundle):
    from repro.nvdla import NV_FULL

    own_table = CalibrationTable()
    own_table.admit("lenet5", "nv_small", "int8", 1, 1)  # guard passes, config must not
    executor = FastPathExecutor(NV_FULL, calibration=own_table)
    with pytest.raises(ReproError, match="built for"):
        executor.run(lenet_bundle)


def test_memory_width_mismatch_is_refused(lenet_bundle, table):
    """A pair validated at 32 bits must not unlock a 64-bit executor —
    DMA pricing (and therefore the estimate) changes with the width."""
    executor = FastPathExecutor(NV_SMALL, calibration=table, memory_bus_width_bits=64)
    with pytest.raises(ReproError, match="never"):
        executor.run(lenet_bundle)


def test_calibration_merge_revalidates_under_new_params(table):
    old = CalibrationTable(OverheadParams(1e6, 1e3, 1e3))  # absurd old fit
    # Carries terms and stays in band once recomputed with table.params.
    old.admit(
        "resnet50", "nv_small", "int8", 1_000_000, 99_000_000,
        op_cycles=1_000_000, csb_writes=10, polls=2,
    )
    # Carries terms but is hopeless under any params: dropped.
    old.admit(
        "googlenet", "nv_small", "int8", 10_000_000, 10_000_000,
        op_cycles=100, csb_writes=1, polls=1,
    )
    # No terms (legacy table): cannot be re-validated, dropped.
    old.admit("alexnet", "nv_small", "int8", 1000, 1000)
    # Collides with the fresh table: the fresh entry wins.
    old.admit("lenet5", "nv_small", "int8", 5, 5, op_cycles=5)
    merged = CalibrationTable(table.params)
    for key, entry in table.entries.items():
        merged.entries[key] = entry
    merged.merge(old)
    resnet50 = merged.entry("resnet50", "nv_small", "int8")
    assert resnet50.within(0.10)  # estimate recomputed, not the stale 99M
    assert resnet50.estimated_cycles != 99_000_000
    assert not merged.has("googlenet", "nv_small", "int8")
    assert not merged.has("alexnet", "nv_small", "int8")
    assert merged.entry("lenet5", "nv_small", "int8").measured_cycles != 5


def test_calibration_table_round_trips(tmp_path, table):
    path = table.save(tmp_path / "cal.json")
    loaded = CalibrationTable.load(path)
    assert loaded.params == table.params
    assert loaded.entries == table.entries
    entry = loaded.entry("lenet5", "nv_small", "int8")
    assert entry.within(0.10)


def test_fit_overheads_reproduces_exact_linear_data():
    params = OverheadParams(
        fixed_cycles=500.0, cycles_per_csb_write=12.0, cycles_per_poll=40.0
    )
    observations = [
        Observation("a", "c", "int8", 1000, w, p, 1000 + params.programming_cycles(w, p))
        for w, p in ((100, 10), (400, 25), (900, 60), (2000, 140))
    ]
    fitted = fit_overheads(observations)
    assert fitted.fixed_cycles == pytest.approx(params.fixed_cycles, rel=1e-6)
    assert fitted.cycles_per_csb_write == pytest.approx(12.0, rel=1e-6)
    assert fitted.cycles_per_poll == pytest.approx(40.0, rel=1e-6)
    with pytest.raises(ReproError):
        fit_overheads([])


def test_execute_bundle_dispatches_both_tiers(lenet_bundle, table, rng):
    image = rng.uniform(-1, 1, size=(1, 28, 28)).astype(np.float32)
    reference = execute_bundle(lenet_bundle, "cycle_accurate", input_image=image)
    fast = execute_bundle(lenet_bundle, "fast", input_image=image, calibration=table)
    assert reference.ok and fast.ok
    assert np.array_equal(reference.output, fast.output)
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
    table = calibrate(("lenet5",), NV_SMALL, fidelity="timing", cache=cache)
    executor = FastPathExecutor(NV_SMALL, calibration=table)
    result = executor.run(bundle)
    assert result.ok
    assert result.output is None
    assert result.cycles > 0


def test_fast_path_repeated_runs_are_bit_identical(tiny_net, rng):
    """Worker-style reuse (same executor, same bundle) must not drift."""
    bundle = generate_baremetal(tiny_net, NV_SMALL)
    soc = Soc(NV_SMALL)
    soc.load_bundle(bundle)
    measured = soc.run_inference(bundle)
    table = CalibrationTable()
    executor = FastPathExecutor(NV_SMALL, calibration=table)
    estimate = executor.estimate(bundle)
    table.admit(bundle.network, "nv_small", "int8", measured.cycles, estimate.total_cycles)
    image = rng.uniform(-1, 1, size=tiny_net.input_shape).astype(np.float32)
    first = executor.run(bundle, input_image=image)
    second = executor.run(bundle, input_image=image)
    assert np.array_equal(first.output, second.output)
    assert first.cycles == second.cycles
    # And a fresh executor agrees with the reused one.
    fresh = FastPathExecutor(NV_SMALL, calibration=table).run(bundle, input_image=image)
    assert np.array_equal(first.output, fresh.output)
