"""ServingPlane: the N-process plane must be indistinguishable — bit
for bit — from the single-process service, while actually streaming
arrivals through forming batches on worker processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.serve import (
    BundleCache,
    DeploymentSpec,
    InferenceRequest,
    InferenceService,
    ServingPlane,
)
from repro.store import BundleStore

LENET = DeploymentSpec("lenet5")
RESNET = DeploymentSpec("resnet18")


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One store-backed cache for the whole module: compiles happen
    once; every plane ships bundles through this store."""
    cache = BundleCache(store=BundleStore(tmp_path_factory.mktemp("plane-store")))
    cache.bundle_for("lenet5", "nv_small")
    return cache


def test_two_process_plane_bit_identical_to_service(cache):
    """The gate: same workload, synthesised inputs, mixed models —
    2 worker processes reproduce the single-process service exactly."""
    workload = [LENET, RESNET, LENET, RESNET, LENET, LENET]

    service = InferenceService(cache=cache, input_seed=7)
    for deployment in workload:
        service.request(deployment)
    single = sorted(service.run_pending(), key=lambda r: r.request_id)

    with ServingPlane(processes=2, input_seed=7, cache=cache) as plane:
        multi = plane.serve([plane.request(d) for d in workload])

    assert [r.request_id for r in multi] == list(range(len(workload)))
    for s, m in zip(single, multi):
        assert m.ok
        assert np.array_equal(s.output, m.output)
        assert s.cycles == m.cycles and s.sim_seconds == m.sim_seconds
    # Both worker processes were part of the run's accounting.
    assert set(plane.metrics.per_process) == {0, 1}
    assert sum(s["runs"] for s in plane.metrics.per_process.values()) == len(workload)


def test_explicit_input_images_served_unchanged(cache):
    rng = np.random.default_rng(3)
    bundle = cache.bundle_for("lenet5", "nv_small")
    shape = bundle.loadable.input_tensor.shape
    images = [rng.uniform(-1, 1, size=shape).astype(np.float32) for _ in range(3)]

    service = InferenceService(cache=cache, input_seed=7)
    for image in images:
        service.request(LENET, image)
    single = sorted(service.run_pending(), key=lambda r: r.request_id)

    with ServingPlane(processes=1, input_seed=7, cache=cache) as plane:
        multi = plane.serve([plane.request(LENET, image) for image in images])
    for s, m in zip(single, multi):
        assert np.array_equal(s.output, m.output) and s.cycles == m.cycles


def test_streaming_arrivals_join_the_forming_batch(cache):
    """Paced arrivals land inside the admission window and are admitted
    into the open batch instead of each forming its own."""
    with ServingPlane(
        processes=1, input_seed=7, cache=cache, admission_window_s=0.75
    ) as plane:
        requests = [plane.request(LENET) for _ in range(6)]
        responses = plane.serve(requests, gaps=[0.0] + [0.02] * 5)
    assert all(r.ok for r in responses)
    # The first arrival opened a batch; the admission window held it
    # open long enough for the rest of the stream to join.
    assert plane.scheduler.admitted_into_open >= 4
    assert plane.metrics.batches <= 2
    batch_ids = {r.batch_id for r in responses}
    assert len(batch_ids) == plane.metrics.batches


def test_worker_crash_between_serves_is_transparent(cache):
    with ServingPlane(processes=1, input_seed=7, cache=cache) as plane:
        first = plane.serve([plane.request(LENET)])
        plane.pool.handles[0].process.kill()
        plane.pool.handles[0].process.join(timeout=10)
        second = plane.serve([plane.request(LENET)])
        assert first[0].ok and second[0].ok
        assert plane.metrics.process_restarts == 1


def test_unknown_model_fails_fast_at_publish(cache):
    with ServingPlane(processes=1, input_seed=7, cache=cache) as plane:
        request = plane.request(DeploymentSpec("not-a-model"))
        with pytest.raises(ReproError, match="unknown zoo model"):
            plane.serve([request])


def test_gap_count_must_match_workload(cache):
    with ServingPlane(processes=1, cache=cache) as plane:
        with pytest.raises(ReproError, match="gaps"):
            plane.serve([plane.request(LENET)], gaps=[0.0, 0.0])


def test_worker_counters_reach_the_plane_metrics(cache):
    """A process-parallel fast run reports the workers its processes
    created and reused (each batch takes one), summed from the
    per-process lines; busy time counts each shared batch call once."""
    fast = DeploymentSpec("lenet5", execution_mode="fast")
    with ServingPlane(processes=2, input_seed=7, cache=cache, max_batch_size=2) as plane:
        responses = plane.serve([plane.request(fast) for _ in range(6)])
    assert all(r.ok for r in responses)
    metrics = plane.metrics
    per_process = list(metrics.per_process.values())
    assert metrics.workers_created >= 1
    assert metrics.workers_created == sum(s["workers_created"] for s in per_process)
    assert metrics.workers_reused == sum(s["workers_reused"] for s in per_process)
    assert metrics.workers_created + metrics.workers_reused == metrics.batches
    assert metrics.wall_seconds_total == pytest.approx(
        sum(s["busy_seconds"] for s in per_process)
    )
    text = metrics.render()
    assert f"workers: {metrics.workers_created} created" in text
    created_lines = [
        int(line.rsplit(", ", 1)[1].split()[0])
        for line in text.splitlines()
        if line.lstrip().startswith("process ")
    ]
    assert sum(created_lines) == metrics.workers_created
