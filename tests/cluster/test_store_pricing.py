"""Store-aware artifact acquisition in the fleet simulation.

A cold replica's first touch of a deployment now pays a virtual-time
acquisition cost: a *build* (compile from scratch, then publish) when
the artifact is not in the store, a much cheaper *fetch* when it is.
These tests pin the pricing model itself, the legacy behaviour
(without a store the simulation is bit-identical to before), and the
tentpole's cluster gate — warming the store ahead of an autoscale
burst measurably lowers tail latency versus an empty store.
"""

from __future__ import annotations

from repro.baremetal.pipeline import bundle_cache_key
from repro.cluster import (
    Autoscaler,
    BurstyArrivals,
    ClusterSimulation,
    ServiceTimeModel,
    generate_workload,
    make_router,
)
from repro.nvdla import Precision
from repro.serve import BundleCache, DeploymentSpec, shared_cache
from repro.store import BundleStore

SEED = 11
LENET = DeploymentSpec("lenet5")


def _bursty_workload(n=200, seed=SEED):
    return generate_workload(BurstyArrivals(80.0, 400.0), [LENET], n, seed=seed)


def _autoscaled(store, workload):
    cache = BundleCache(store=store) if store is not None else shared_cache()
    sim = ClusterSimulation(
        make_router("least_outstanding"),
        replicas=1,
        cache=cache,
        store=store,
        autoscaler=Autoscaler(
            min_replicas=1,
            max_replicas=6,
            target_p99_s=0.06,
            evaluate_every_s=0.05,
            window_s=0.3,
            provision_delay_s=0.05,
            up_cooldown_s=0.05,
        ),
    )
    return sim.run(workload)


def test_costs_carry_no_store_terms_without_a_store():
    pricing = ServiceTimeModel(cache=shared_cache())
    cost = pricing.costs(LENET)
    assert cost.build_seconds == 0.0
    assert cost.fetch_seconds == 0.0


def test_fetch_is_much_cheaper_than_build(tmp_path):
    store = BundleStore(tmp_path / "store")
    pricing = ServiceTimeModel(cache=BundleCache(store=store), store=store)
    cost = pricing.costs(LENET)
    assert cost.build_seconds > 0.0
    assert cost.fetch_seconds > 0.0
    # ~MB artifact: 250 ms + bytes/4 MiB/s vs 2 ms + bytes/128 MiB/s.
    assert cost.build_seconds > 10 * cost.fetch_seconds
    # Pricing a store-backed deployment published it (the pricing probe
    # compiles through the cache, which writes through).
    assert len(store) == 1


def test_storeless_simulation_unchanged():
    """The legacy path is bit-identical: attaching *no* store must not
    perturb a single latency sample."""
    workload = _bursty_workload()
    cache = shared_cache()

    def run():
        sim = ClusterSimulation(
            make_router("least_outstanding"), replicas=2, cache=cache
        )
        return sim.run(workload).metrics.to_dict()

    assert run() == run()


def test_first_touch_pays_once_per_replica(tmp_path):
    store = BundleStore(tmp_path / "store")
    workload = _bursty_workload(n=80)
    sim = ClusterSimulation(
        make_router("least_outstanding"),
        replicas=2,
        cache=BundleCache(store=store),
        store=store,
    )
    result = sim.run(workload)
    assert result.metrics.completed > 0
    # Both replicas acquired the one deployment exactly once each.
    acquired = [len(replica.acquired) for replica in result.replicas]
    assert acquired == [1, 1]


def test_warm_store_beats_empty_store_on_cold_start_p99(tmp_path):
    """The cluster acceptance gate: pre-warming the store turns every
    cold replica's first touch from a build into a fetch, and the
    bursty autoscale scenario's p99 drops accordingly."""
    workload = _bursty_workload()

    empty = _autoscaled(BundleStore(tmp_path / "empty"), workload)

    warm_store = BundleStore(tmp_path / "warm")
    warm_store.put_bundle(
        bundle_cache_key("lenet5", "nv_small", Precision.INT8, "functional"),
        shared_cache().bundle_for("lenet5", "nv_small"),
    )
    warm = _autoscaled(warm_store, workload)

    empty_p99 = empty.metrics.latency_summary().p99
    warm_p99 = warm.metrics.latency_summary().p99
    assert warm_p99 < empty_p99
    # Scale-up events record how many artifacts the store could warm.
    ups = [e for e in warm.metrics.scale_events if e.warmed_bundles]
    assert ups and all(e.warmed_bundles == 1 for e in ups)
    # The empty store starts with nothing published, so the very first
    # acquisition was a build — visible as a longer max service time.
    assert empty.metrics.latency_summary().max > warm.metrics.latency_summary().max
