"""Service metrics: percentile properties, JSON export, rendering.

The `percentile()` helper implements the nearest-rank definition
(`rank = ceil(n·q/100)`, clamped to at least 1).  The property tests
check it against an independent reference implementation over random
samples, plus the edges the definition pins down: q=0 → minimum,
q=100 → maximum, single-sample series, duplicated values.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.obs.metrics import log_bucket_bounds
from repro.serve import DeploymentSpec, InferenceService, percentile
from repro.serve.metrics import LatencySummary, ServiceMetrics


def reference_percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, written independently of the helper."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Property tests.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("size", [1, 2, 3, 7, 50, 101, 500])
def test_matches_reference_on_random_samples(seed, size):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1e3, 1e3, size=size).tolist()
    for q in [0, 1, 25, 50, 75, 90, 95, 99, 99.9, 100]:
        assert percentile(samples, q) == reference_percentile(samples, q)


@pytest.mark.parametrize("seed", range(4))
def test_result_is_always_a_sample(seed):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=37).tolist()
    for q in rng.uniform(0, 100, size=25):
        assert percentile(samples, float(q)) in samples


@pytest.mark.parametrize("seed", range(4))
def test_monotone_in_q(seed):
    rng = np.random.default_rng(seed)
    samples = rng.exponential(size=64).tolist()
    values = [percentile(samples, q) for q in np.linspace(0, 100, 41)]
    assert values == sorted(values)


def test_edges():
    assert percentile([], 50) == 0.0
    assert percentile([3.5], 0) == 3.5
    assert percentile([3.5], 100) == 3.5
    samples = [5.0, 1.0, 3.0]
    assert percentile(samples, 0) == 1.0  # q=0 clamps to the minimum
    assert percentile(samples, 100) == 5.0
    # Duplicates are fine: nearest rank just indexes the sorted list.
    assert percentile([2.0, 2.0, 2.0], 99) == 2.0
    # The helper must not mutate its input.
    unsorted = [9.0, 1.0, 4.0]
    percentile(unsorted, 50)
    assert unsorted == [9.0, 1.0, 4.0]


def test_out_of_range_q_raises():
    with pytest.raises(ValueError):
        percentile([1.0], -1)
    with pytest.raises(ValueError):
        percentile([1.0], 100.1)


def test_integer_rank_boundaries():
    """Exactly on-rank quantiles of 1..100: p50 = 50, p99 = 99."""
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 1) == 1.0


# ----------------------------------------------------------------------
# JSON export (the satellite the cluster aggregator builds on).
# ----------------------------------------------------------------------


def test_latency_summary_to_dict():
    summary = LatencySummary.of([0.2, 0.1, 0.4])
    payload = summary.to_dict()
    assert payload == {
        "count": 3,
        "mean": pytest.approx(0.7 / 3),
        "p50": 0.2,
        "p99": 0.4,
        "max": 0.4,
    }
    assert LatencySummary.of([]).to_dict()["count"] == 0


def test_service_metrics_to_dict_round_trip():
    import json

    metrics = ServiceMetrics()
    metrics.record(0.010, cycles=1000, ok=True, deployment="lenet5/nv_small")
    metrics.record(0.030, cycles=3000, ok=False, deployment="lenet5/nv_small")
    metrics.bundle_hits = 1
    metrics.bundle_misses = 1
    payload = metrics.to_dict()
    json.dumps(payload)  # JSON-clean end to end
    assert payload["requests"] == 2
    assert payload["failures"] == 1
    assert payload["cache_hit_rate"] == pytest.approx(0.5)
    assert payload["wall"]["p99"] == pytest.approx(0.030)
    slice_ = payload["per_deployment"]["lenet5/nv_small"]
    assert slice_["requests"] == 2
    assert slice_["wall"]["max"] == pytest.approx(0.030)
    assert slice_["cycles"]["p50"] == pytest.approx(1000.0)


def _counters(values: dict) -> dict:
    return {name: {"type": "counter", "value": value} for name, value in values.items()}


def _histogram(buckets: dict[int, int], count, total, low, high) -> dict:
    bounds = log_bucket_bounds()
    return {
        "type": "histogram",
        "bounds": bounds,
        "counts": [buckets.get(i, 0) for i in range(len(bounds) + 1)],
        "count": count,
        "sum": total,
        "min": low,
        "max": high,
    }


_EMPTY_COUNTERS = {
    "serve.batches": 0,
    "serve.bundle.compiles": 0,
    "serve.bundle.hits": 0,
    "serve.bundle.misses": 0,
    "serve.bundle.store_hits": 0,
    "serve.busy.seconds": 0.0,
    "serve.elapsed.seconds": 0.0,
    "serve.failures": 0,
    "serve.requests": 0,
    "serve.workers.created": 0,
    "serve.workers.reused": 0,
}


def _assert_same_export(actual: dict, expected: dict) -> None:
    assert actual == expected
    # JSON spells 1 and 1.0 differently: pins int vs float counters.
    assert json.dumps(actual, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_registry_export_of_empty_metrics():
    """Eleven counters, no histograms until a request is recorded."""
    _assert_same_export(ServiceMetrics().registry.to_dict(), _counters(_EMPTY_COUNTERS))


def test_registry_export_is_pinned():
    """The ``--metrics-out`` snapshot: names, value types, histograms."""
    metrics = ServiceMetrics()
    metrics.record(0.004, cycles=402264, ok=True, deployment="lenet5/nv_small")
    metrics.record(0.25, cycles=1500, ok=False, deployment="resnet18/nv_small[fast]")
    metrics.record(0.0125, cycles=7, ok=True)
    metrics.record(3e-05, cycles=0, ok=True, deployment="lenet5/nv_small")
    for source in ("memory", "memory", "store", "compile"):
        metrics.record_resolution(source)
    metrics.batches += 2
    metrics.elapsed_seconds += 0.5
    metrics.workers_created = 1
    metrics.workers_reused = 3
    metrics.record_process(0, {"runs": 2, "busy_seconds": 0.1, "batches": 1, "restarts": 0})
    expected = {
        **_counters({
            "serve.batches": 2,
            "serve.bundle.compiles": 1,
            "serve.bundle.hits": 2,
            "serve.bundle.misses": 2,
            "serve.bundle.store_hits": 1,
            "serve.busy.seconds": 0.26653,
            "serve.elapsed.seconds": 0.5,
            "serve.failures": 1,
            "serve.requests": 4,
            "serve.workers.created": 1,
            "serve.workers.reused": 3,
        }),
        # Underflow (bucket 0) through overflow (bucket 41).
        "serve.request.cycles": _histogram(
            {0: 1, 25: 1, 36: 1, 41: 1}, 4, 403771.0, 0.0, 402264.0
        ),
        "serve.request.wall.seconds": _histogram(
            {0: 1, 9: 1, 11: 1, 17: 1}, 4, 0.26653, 3e-05, 0.25
        ),
    }
    _assert_same_export(metrics.registry.to_dict(), expected)


def test_render_per_deployment_includes_wall_p99():
    metrics = ServiceMetrics()
    for value in (0.01, 0.02, 0.90):
        metrics.record(value, cycles=500, ok=True, deployment="lenet5/nv_small")
    lines = metrics.render().splitlines()
    slice_lines = [line for line in lines if line.startswith("  lenet5")]
    assert len(slice_lines) == 1
    # Fleet-style formatting: wall p50/p99/max and cycles p50/p99.
    assert "p99 900.0 ms" in slice_lines[0]
    assert "max 900.0 ms" in slice_lines[0]
    assert "cycles p50 500" in slice_lines[0]


def test_metrics_to_dict_splits_miss_resolution():
    metrics = ServiceMetrics()
    metrics.bundle_hits = 3
    metrics.bundle_misses = 2
    metrics.bundle_store_hits = 1
    metrics.bundle_compiles = 1
    payload = metrics.to_dict()
    assert payload["bundle_store_hits"] == 1
    assert payload["bundle_compiles"] == 1
    assert "1 from store, 1 compiled" in metrics.render()


def test_service_classifies_store_hits_vs_compiles(tmp_path):
    from repro.serve import BundleCache
    from repro.store import BundleStore

    store = BundleStore(tmp_path / "store")
    spec = DeploymentSpec("lenet5")

    compiler = InferenceService(cache=BundleCache(store=store))
    compiler.request(spec)
    compiler.run_pending()
    assert compiler.metrics.bundle_compiles == 1
    assert compiler.metrics.bundle_store_hits == 0

    warmed = InferenceService(cache=BundleCache(store=store))
    warmed.request(spec)
    warmed.run_pending()
    assert warmed.metrics.bundle_store_hits == 1
    assert warmed.metrics.bundle_compiles == 0
    # The snapshot exposes both the cache's split and the store's own
    # counters when a store is attached.
    snapshot = warmed.snapshot()
    assert snapshot["cache"]["store_hits"] == 1
    assert snapshot["store"]["hits"] == 1
    assert "store" not in InferenceService().snapshot()


def test_service_outstanding_and_snapshot():
    service = InferenceService()
    assert service.outstanding == 0
    service.request(DeploymentSpec("lenet5"))
    service.request(DeploymentSpec("lenet5"))
    assert service.outstanding == 2
    snapshot = service.snapshot()
    assert snapshot["outstanding"] == 2
    assert snapshot["metrics"]["requests"] == 0
    service.run_pending()
    snapshot = service.snapshot()
    assert service.outstanding == 0
    assert snapshot["metrics"]["requests"] == 2
    assert snapshot["cache"]["misses"] == 1
    assert snapshot["workers"]["created"] == 1
