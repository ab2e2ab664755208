#!/usr/bin/env python3
"""Fleet-simulation walkthrough: workload → admission → router →
replicas → metrics.

One simulated SoC serves one request stream; the ROADMAP's north star
is a fleet.  `repro.cluster` scales the serve layer out FireSim-style:
N replicas (each modelling one SoC-backed `InferenceService`) behind a
routing policy, with SLO-aware admission control shedding what the
fleet cannot serve and an autoscaler resizing it under bursts.  The
fleet runs on a *virtual* clock priced from recorded cycle profiles,
so every number below reproduces bit-exactly from the seeds.

1. generate a seeded Poisson workload over a lenet5+resnet18 mix,
2. compare the three routing policies on one congested fleet,
3. stress a single replica with a bursty (MMPP) trace, then let the
   autoscaler absorb the same trace inside the rejection SLO,
4. execute a small workload for real (fast tier) and check the fleet's
   outputs are bit-identical to a single service serving the same
   requests.

Usage::

    python examples/cluster_sim.py
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cluster import (
    AdmissionController,
    Autoscaler,
    BurstyArrivals,
    ClusterSimulation,
    PoissonArrivals,
    SloPolicy,
    generate_workload,
    make_router,
    offered_rps,
)
from repro.core import calibrate
from repro.nvdla import NV_SMALL
from repro.serve import DeploymentSpec, InferenceService, shared_cache

SEED = 2026


def main() -> None:
    cache = shared_cache()
    deployments = [DeploymentSpec("lenet5"), DeploymentSpec("resnet18")]

    print("=== 1. seeded open-loop workload ===")
    workload = generate_workload(
        PoissonArrivals(120.0), deployments, 240, seed=SEED
    )
    print(
        f"{len(workload)} requests, offered {offered_rps(workload):.1f} rps, "
        f"mix {sorted({r.deployment.model for r in workload})}"
    )

    print("\n=== 2. routing policies on a congested fleet ===")
    # Residency capacity 1: each replica's DRAM holds one model's
    # artefacts, so routing decides how often warm-up is re-paid.
    for policy in ("round_robin", "least_outstanding", "cache_affinity"):
        simulation = ClusterSimulation(
            make_router(policy), replicas=2, cache=cache, resident_capacity=1
        )
        metrics = simulation.run(workload).metrics
        summary = metrics.latency_summary()
        print(
            f"  {policy:<18} goodput {metrics.goodput_rps:6.1f} rps  "
            f"p99 {summary.p99 * 1e3:7.1f} ms  "
            f"warm hit rate {metrics.resident_hit_rate * 100:3.0f}%"
        )
    print("  (cache-affinity keeps each model resident on its owner replica)")

    print("\n=== 3. autoscaling a bursty trace ===")
    bursty = generate_workload(
        BurstyArrivals(100.0, 500.0, mean_calm_s=1.5, mean_burst_s=0.8),
        [DeploymentSpec("lenet5")],
        600,
        seed=3,
    )
    slo = SloPolicy(slo_latency_s=0.10, max_rejection_rate=0.05, max_queue_depth=24)
    static = ClusterSimulation(
        make_router("least_outstanding"),
        replicas=1,
        admission=AdmissionController(slo),
        cache=cache,
    ).run(bursty).metrics
    scaled_sim = ClusterSimulation(
        make_router("least_outstanding"),
        replicas=1,
        admission=AdmissionController(slo),
        autoscaler=Autoscaler(
            min_replicas=1,
            max_replicas=8,
            target_p99_s=0.06,
            evaluate_every_s=0.05,
            window_s=0.3,
            provision_delay_s=0.05,
            up_cooldown_s=0.05,
        ),
        cache=cache,
    )
    scaled = scaled_sim.run(bursty).metrics
    print(
        f"  static (1 replica): {static.rejection_rate * 100:5.1f}% rejected "
        f"→ SLO {'met' if static.meets_rejection_slo() else 'MISSED'}"
    )
    print(
        f"  autoscaled (≤8):    {scaled.rejection_rate * 100:5.1f}% rejected "
        f"→ SLO {'met' if scaled.meets_rejection_slo() else 'MISSED'}, "
        f"peak {scaled.peak_replicas} replicas"
    )
    for event in scaled.scale_events:
        print(f"    {event.render()}")

    print("\n=== 4. fleet outputs are bit-identical to one service ===")
    # Record lenet5's cycle profile (one timing-fidelity SoC run), let
    # the fleet *execute* requests on the fast tier, then serve the same
    # request set through a plain single InferenceService and compare
    # tensors and cycles.
    table = calibrate(("lenet5",), NV_SMALL, cache=cache)
    for profile in table.values():
        print(f"  profile {profile.render()}")
    fast = [replace(d, execution_mode="fast") for d in deployments[:1]]
    executed = generate_workload(
        PoissonArrivals(100.0), fast, 8, seed=11, with_inputs=True
    )
    fleet_result = ClusterSimulation(
        make_router("cache_affinity"),
        replicas=2,
        cache=cache,
        calibration=table,
        execute=True,
    ).run(executed)
    single = InferenceService(cache=cache, calibration=table)
    for request in executed:
        single.request(request.deployment, request.input_image)
    singles = sorted(single.run_pending(), key=lambda r: r.request_id)
    for index, request in enumerate(executed):
        fleet_response = fleet_result.responses[request.request_id]
        assert np.array_equal(fleet_response.output, singles[index].output)
        assert fleet_response.cycles == singles[index].cycles
    print(
        f"  {len(executed)} requests executed across "
        f"{sum(1 for r in fleet_result.replicas if r.executed)} replica services "
        f"— outputs and cycles identical to the single-service run"
    )
    print("\n" + fleet_result.metrics.render())


if __name__ == "__main__":
    main()
