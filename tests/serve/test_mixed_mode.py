"""Mixed execution tiers in one service: metrics, fairness, identity.

A production rollout runs the fast tier next to the
cycle-accurate tier (canary vs fleet).  One :class:`InferenceService`
must keep the two apart everywhere it matters: separate workers,
separate per-deployment metrics, fair batch interleaving — while the
tensors they return stay bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import calibrate
from repro.core.fastpath import profile_key
from repro.errors import ReproError
from repro.serve import (
    BundleCache,
    DeploymentSpec,
    FastPathWorker,
    InferenceService,
    SocWorker,
    hardware_key,
    make_input_for,
)

CYCLE = DeploymentSpec("lenet5")
FAST = DeploymentSpec("lenet5", execution_mode="fast")


@pytest.fixture(scope="module")
def cache():
    return BundleCache()


@pytest.fixture(scope="module")
def table(cache):
    return calibrate(("lenet5",), cache=cache)


def test_unknown_execution_mode_is_rejected():
    with pytest.raises(ReproError, match="execution mode"):
        DeploymentSpec("lenet5", execution_mode="warp")


def test_modes_do_not_share_workers(cache, table):
    assert hardware_key(CYCLE) != hardware_key(FAST)
    service = InferenceService(cache=cache, calibration=table)
    service.request(CYCLE)
    service.request(FAST)
    responses = service.run_pending()
    assert all(r.ok for r in responses)
    workers = service.pool.all_workers()
    assert sorted(type(w).__name__ for w in workers) == ["FastPathWorker", "SocWorker"]
    assert service.metrics.workers_created == 2


def test_mixed_modes_serve_identical_tensors_and_split_metrics(cache, table):
    rng = np.random.default_rng(42)
    from repro.nn.zoo import lenet5

    net = lenet5()
    service = InferenceService(cache=cache, max_batch_size=2, calibration=table)
    images = [make_input_for(net, rng) for _ in range(4)]
    cycle_ids = [service.request(CYCLE, image).request_id for image in images]
    fast_ids = [service.request(FAST, image).request_id for image in images]
    responses = {r.request_id: r for r in service.run_pending()}
    assert all(r.ok for r in responses.values())

    # Identity: per input image, the two tiers return the same tensor.
    for cycle_id, fast_id in zip(cycle_ids, fast_ids):
        assert np.array_equal(responses[cycle_id].output, responses[fast_id].output)
    # The fast tier reports the cycle-accurate run's exact cycles.
    for cycle_id, fast_id in zip(cycle_ids, fast_ids):
        assert responses[fast_id].cycles == responses[cycle_id].cycles

    # Per-deployment metrics split the traffic by tier.
    per = service.metrics.per_deployment
    assert per[CYCLE.describe()].requests == 4
    assert per[FAST.describe()].requests == 4
    assert per[CYCLE.describe()].failures == 0 and per[FAST.describe()].failures == 0
    assert service.metrics.requests == 8
    # Both tiers report the same simulated time, while the cycle-accurate tier pays far more host wall time.
    assert per[FAST.describe()].wall_seconds < per[CYCLE.describe()].wall_seconds


def test_mixed_mode_batches_interleave_fairly(cache, table):
    """Round-robin across deployments must include mode in the ring."""
    service = InferenceService(cache=cache, max_batch_size=2, calibration=table)
    for _ in range(4):
        service.request(CYCLE)
    for _ in range(4):
        service.request(FAST)
    responses = service.run_pending()
    # Dispatch order by batch: cycle, fast, cycle, fast (2 requests each).
    order = []
    for response in sorted(responses, key=lambda r: r.batch_id):
        if not order or order[-1][0] != response.batch_id:
            order.append((response.batch_id, response.deployment.execution_mode))
    assert [mode for _, mode in order] == ["cycle_accurate", "fast"] * 2


def test_fast_deployment_without_table_records_its_profile(cache):
    """No table handed to the pool: the first fast request records the
    bundle's profile into the pool's own table, and every fast worker
    of the pool shares it."""
    service = InferenceService(cache=cache, max_batch_size=1, workers_per_key=2)
    for _ in range(2):
        service.request(FAST)
    responses = service.run_pending()
    assert all(r.ok for r in responses)
    workers = service.pool.all_workers()
    assert len(workers) == 2
    assert all(w.executor.profiles is service.pool.profiles for w in workers)
    assert len(service.pool.profiles) == 1
    bundle = cache.bundle_for("lenet5", "nv_small")
    assert responses[0].cycles == service.pool.profiles[
        profile_key(bundle, 32)
    ].total_cycles


def test_worker_types_expose_shared_interface(cache, table):
    bundle = cache.bundle_for("lenet5", "nv_small")
    soc_worker = SocWorker(0, CYCLE)
    fast_worker = FastPathWorker(1, FAST, table)
    a = soc_worker.run(bundle)
    b = fast_worker.run(bundle)
    assert a.ok and b.ok
    assert np.array_equal(a.output, b.output)
    assert soc_worker.stats.runs == fast_worker.stats.runs == 1
