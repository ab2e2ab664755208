"""InferenceService end-to-end: mixed queues, metrics, reproducibility."""

from __future__ import annotations

import numpy as np

from repro.serve import (
    BundleCache,
    DeploymentSpec,
    InferenceService,
    make_input_for,
    percentile,
    shared_cache,
)
from repro.serve.metrics import LatencySummary

LENET = DeploymentSpec("lenet5")


def test_mixed_queue_serves_every_request_once():
    service = InferenceService(max_batch_size=2)
    fast = DeploymentSpec("lenet5", execution_mode="fast")
    submitted = [service.request(LENET) for _ in range(3)]
    submitted += [service.request(fast) for _ in range(2)]
    responses = service.run_pending()
    assert sorted(r.request_id for r in responses) == sorted(
        r.request_id for r in submitted
    )
    assert all(r.ok for r in responses)
    # Both tiers serve one bundle → one flow build; 4 more served requests.
    assert service.metrics.bundle_misses == 1
    assert service.metrics.requests == 5
    assert service.metrics.failures == 0
    # Every served run carries an output, and both tiers report the
    # bundle's one cycle count.
    assert all(r.output is not None for r in responses)
    assert len({r.cycles for r in responses}) == 1


def test_shared_cache_prewarms_service():
    cache = BundleCache()
    cache.bundle_for("lenet5", "nv_small")
    service = InferenceService(cache=cache)
    service.request(LENET)
    responses = service.run_pending()
    assert responses[0].cache_hit  # built elsewhere, hit here
    assert service.metrics.bundle_hits == 1
    assert service.metrics.bundle_misses == 0


def test_synthesised_inputs_are_reproducible():
    """Two services with the same input seed produce identical outputs
    for requests that carry no input image."""
    outputs = []
    for _ in range(2):
        service = InferenceService(input_seed=99)
        service.request(LENET)
        service.request(LENET)
        responses = service.run_pending()
        outputs.append([r.output for r in responses])
    for a, b in zip(*outputs):
        assert np.array_equal(a, b)


def test_cached_bundles_share_artifact_digest():
    service = InferenceService()
    rng = np.random.default_rng(3)
    from repro.nn.zoo import lenet5

    net = lenet5()
    service.request(LENET, make_input_for(net, rng))
    service.request(LENET, make_input_for(net, rng))
    service.run_pending()
    bundle, source = service.cache.resolve(LENET)
    assert source == "memory"
    # The digest is stable across calls and covers the whole artefact set.
    assert bundle.artifact_digest() == bundle.artifact_digest()
    assert len(bundle.artifact_digest()) == 64


def test_metrics_percentiles_and_render():
    assert percentile([], 50) == 0.0
    assert percentile([5.0], 99) == 5.0
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    summary = LatencySummary.of(samples)
    assert summary.count == 100
    assert summary.max == 100.0
    empty = LatencySummary.of([])
    assert empty.count == 0 and empty.p99 == 0.0

    service = InferenceService()
    service.request(LENET)
    service.run_pending()
    text = service.metrics.render()
    assert "throughput" in text and "hit rate" in text and "p99" in text


def test_synthesised_inputs_independent_of_batch_composition():
    """The per-request seed convention: request i's synthesised input
    depends only on (input_seed, request_id), so services draining the
    same workload with different batch sizes — different interleavings
    — return bit-identical outputs per request."""
    workload = [DeploymentSpec("lenet5"), DeploymentSpec("lenet5"),
                DeploymentSpec("lenet5"), DeploymentSpec("lenet5")]
    by_batch_size = {}
    for batch_size in (1, 4):
        service = InferenceService(
            cache=shared_cache(), max_batch_size=batch_size, input_seed=7
        )
        for deployment in workload:
            service.request(deployment)
        responses = sorted(service.run_pending(), key=lambda r: r.request_id)
        by_batch_size[batch_size] = responses
    for small, big in zip(by_batch_size[1], by_batch_size[4]):
        assert np.array_equal(small.output, big.output)
        assert small.cycles == big.cycles


def test_fast_batch_is_one_call_with_busy_time_counted_once():
    """A fast-tier batch runs as one executor call: every request's
    wall time is that shared call, the busy counters add it once, the
    worker counts each request, and the outputs are those of one
    request per batch."""
    cache = shared_cache()
    fast = DeploymentSpec("lenet5", execution_mode="fast")
    batched = InferenceService(cache=cache, max_batch_size=4, input_seed=11)
    one_by_one = InferenceService(cache=cache, max_batch_size=1, input_seed=11)
    for service in (batched, one_by_one):
        for _ in range(4):
            service.request(fast)
    responses = batched.run_pending()
    reference = one_by_one.run_pending()
    for got, expected in zip(responses, reference):
        assert got.request_id == expected.request_id
        assert np.array_equal(got.output, expected.output)
        assert got.cycles == expected.cycles
    [worker] = batched.pool.all_workers()
    assert worker.stats.runs == 4
    [wall] = {r.wall_seconds for r in responses}
    assert batched.metrics.wall_seconds_total == worker.stats.busy_seconds == wall
    [slice_] = batched.metrics.per_deployment.values()
    assert slice_.wall_seconds == wall and slice_.wall_latencies == [wall] * 4
    assert batched.metrics.batches == 1 and one_by_one.metrics.batches == 4
