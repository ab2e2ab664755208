"""SocWorker / WorkerPool: reuse must be bit-identical to fresh SoCs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baremetal import generate_baremetal
from repro.core import Soc
from repro.errors import ReproError
from repro.nvdla import NV_SMALL
from repro.serve import (
    DeploymentSpec,
    SocWorker,
    WorkerPool,
    hardware_key,
    make_input_for,
    pack_input_image,
)

SPEC = DeploymentSpec("lenet5")


def _fresh_run(bundle, image=None):
    soc = Soc(NV_SMALL)
    soc.load_bundle(bundle)
    if image is not None:
        packed = pack_input_image(bundle, image)
        soc.preload_dram(packed.load_address, packed.data)
    return soc.run_inference(bundle)


@pytest.fixture(scope="module")
def lenet_bundle():
    from repro.nn.zoo import lenet5

    return generate_baremetal(lenet5(), NV_SMALL)


@pytest.fixture(scope="module")
def tiny_bundle():
    # Module-local tiny network (the conftest fixture is function-scoped).
    from repro.nn.graph import Network
    from repro.nn.layers import PoolKind

    net = Network("tiny-serve", seed=7)
    data = net.add_input("data", (1, 8, 8))
    conv = net.add_conv("conv1", data, num_output=8, kernel_size=3)
    relu = net.add_relu("relu1", conv)
    pool = net.add_pool("pool1", relu, PoolKind.MAX, kernel_size=2, stride=2)
    net.add_fc("fc1", pool, num_output=4)
    net.validate()
    return generate_baremetal(net, NV_SMALL)


def test_worker_reuse_across_bundles_bit_identical(lenet_bundle, tiny_bundle):
    """One worker serving alternating deployments reproduces fresh-SoC
    outputs and cycle counts exactly."""
    worker = SocWorker(0, SPEC)
    sequence = [lenet_bundle, tiny_bundle, lenet_bundle]
    for bundle in sequence:
        reused = worker.run(bundle)
        fresh = _fresh_run(bundle)
        assert reused.ok and fresh.ok
        assert reused.cycles == fresh.cycles
        assert reused.output is not None
        assert np.array_equal(reused.output, fresh.output)
    assert worker.stats.runs == len(sequence)


def test_worker_alternating_zoo_models_matches_fresh_soc(lenet_bundle):
    """The CPU's decode table survives resets and is rebuilt only on a
    program load: a worker alternating lenet5 ↔ resnet18 (with a replay
    of each in between) reproduces a fresh SoC run for run — cycles,
    run statistics, op records and outputs."""
    from repro.nn.zoo import ZOO

    resnet_bundle = generate_baremetal(ZOO["resnet18"](), NV_SMALL)
    worker = SocWorker(0, SPEC)
    sequence = [lenet_bundle, lenet_bundle, resnet_bundle, resnet_bundle, lenet_bundle, resnet_bundle]
    for bundle in sequence:
        reused = worker.run(bundle)
        fresh_soc = Soc(NV_SMALL)
        fresh_soc.load_bundle(bundle)
        fresh = fresh_soc.run_inference(bundle)
        assert reused.ok and fresh.ok
        assert reused.cycles == fresh.cycles
        assert reused.stats == fresh.stats
        assert reused.op_records == fresh.op_records
        assert np.array_equal(reused.output, fresh.output)
        assert worker.soc.cpu.pipeline.stats == fresh_soc.cpu.pipeline.stats


def test_same_bundle_fast_path_bit_identical(lenet_bundle, rng):
    """Back-to-back same-bundle runs (no DRAM scrub, warm decode table,
    fresh inputs) match fresh-SoC runs input by input."""
    from repro.nn.zoo import lenet5

    worker = SocWorker(0, SPEC)
    net = lenet5()
    worker.run(lenet_bundle)  # prime the fast path
    for _ in range(3):
        image = make_input_for(net, rng)
        reused = worker.run(lenet_bundle, input_image=image)
        fresh = _fresh_run(lenet_bundle, image)
        assert reused.ok and fresh.ok
        assert reused.cycles == fresh.cycles
        assert np.array_equal(reused.output, fresh.output)


def test_explicit_input_equals_baked_preload(lenet_bundle):
    """Packing the bundle's own calibration image reproduces the run
    driven by the trace-extracted ``input.bin``."""
    worker = SocWorker(0, SPEC)
    baked = worker.run(lenet_bundle)
    repacked = worker.run(lenet_bundle, input_image=lenet_bundle.input_image)
    assert baked.ok and repacked.ok
    assert np.array_equal(baked.output, repacked.output)


def test_pack_input_rejects_wrong_shape(lenet_bundle):
    with pytest.raises(ReproError):
        pack_input_image(lenet_bundle, np.zeros((3, 2, 2), dtype=np.float32))


def test_testsystem_reuse_matches_fresh_system(lenet_bundle, tiny_bundle):
    """A reused ZCU102 TestSystem resets to power-on state per
    experiment, so repeated runs match fresh systems exactly."""
    from repro.core import TestSystem

    shared = TestSystem(Soc(NV_SMALL))
    for bundle in (lenet_bundle, tiny_bundle, lenet_bundle):
        reused = shared.run_experiment(bundle)
        fresh = TestSystem(Soc(NV_SMALL)).run_experiment(bundle)
        assert reused.ok and fresh.ok
        assert reused.cycles == fresh.cycles
        assert np.array_equal(reused.output, fresh.output)


def test_pool_shares_workers_across_models_on_same_hardware():
    pool = WorkerPool()
    lenet_worker = pool.worker_for(DeploymentSpec("lenet5"))
    resnet_worker = pool.worker_for(DeploymentSpec("resnet18"))
    assert lenet_worker is resnet_worker  # hardware key ignores the model
    assert pool.created == 1 and pool.reused == 1
    other = pool.worker_for(DeploymentSpec("lenet5", config="nv_full"))
    assert other is not lenet_worker
    assert hardware_key(DeploymentSpec("lenet5")) == hardware_key(
        DeploymentSpec("resnet18")
    )


def test_pool_round_robins_multiple_workers():
    pool = WorkerPool(workers_per_key=2)
    spec = DeploymentSpec("lenet5")
    first = pool.worker_for(spec)
    second = pool.worker_for(spec)
    assert first is not second
    assert pool.worker_for(spec) is first
    assert pool.worker_for(spec) is second
    with pytest.raises(ReproError):
        WorkerPool(workers_per_key=0)


def test_replay_keyed_by_digest_not_identity(lenet_bundle):
    """An independent rebuild of the same deployment (equal artifact
    digest, different object) still takes the replay fast path, and
    stays bit-identical to a fresh SoC."""
    from repro.nn.zoo import lenet5

    rebuilt = generate_baremetal(lenet5(), NV_SMALL)
    assert rebuilt is not lenet_bundle
    assert rebuilt.artifact_digest() == lenet_bundle.artifact_digest()

    worker = SocWorker(0, SPEC)
    worker.run(lenet_bundle)
    assert worker._is_replay(rebuilt)  # digest match, not identity
    replayed = worker.run(rebuilt)
    fresh = _fresh_run(rebuilt)
    assert np.array_equal(replayed.output, fresh.output)
    assert replayed.cycles == fresh.cycles


def test_worker_does_not_pin_evicted_bundles(tiny_bundle):
    """The worker's replay bookkeeping holds only a weakref + digest:
    dropping the last strong reference frees the bundle even though the
    worker just ran it."""
    import gc
    import weakref

    from repro.nn.graph import Network
    from repro.nn.layers import PoolKind

    net = Network("tiny-serve-evict", seed=11)
    data = net.add_input("data", (1, 8, 8))
    conv = net.add_conv("conv1", data, num_output=4, kernel_size=3)
    net.add_relu("relu1", conv)
    net.validate()
    bundle = generate_baremetal(net, NV_SMALL)

    worker = SocWorker(0, SPEC)
    worker.run(bundle)
    tracker = weakref.ref(bundle)
    del bundle
    gc.collect()
    assert tracker() is None  # the worker kept no strong reference
    # The digest survives, so the worker still knows what DRAM holds —
    # and a different bundle forces the full reload path.
    assert worker._last_bundle() is None
    assert not worker._is_replay(tiny_bundle)
    assert worker.run(tiny_bundle).ok
