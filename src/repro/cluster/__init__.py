"""Multi-replica fleet simulation above the serve layer.

The jump from one :class:`~repro.serve.InferenceService` to a fleet:
a seeded open-loop workload generator, pluggable routing policies,
SLO-aware admission control, an autoscaler with realistic cold-start
warm-up, and fleet-wide metrics — all on a deterministic virtual
clock priced from recorded cycle profiles, with optional real
execution for bit-identity against single-service serving.

Dataflow (see README "Cluster simulation")::

    workload ──▶ admission ──▶ router ──▶ replica fleet ──▶ metrics
    (arrivals)    (shedding)   (policy)    (warm-state LRU,   (goodput,
                                            autoscaled)        p99, 429s)
"""

from repro.cluster.admission import (
    ADMITTED,
    AdmissionController,
    AdmissionDecision,
    SloPolicy,
)
from repro.cluster.autoscaler import (
    Autoscaler,
    FleetSample,
    ScaleDecision,
    ScaleEvent,
)
from repro.cluster.fleet import (
    ClusterResult,
    ClusterSimulation,
    Replica,
    RequestCost,
    ServiceTimeModel,
    fleet_latency_summary,
    residency_key,
)
from repro.cluster.metrics import (
    ClusterMetrics,
    ReplicaUsage,
    aggregate_service_metrics,
)
from repro.cluster.router import (
    POLICIES,
    CacheAffinityRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    Router,
    affinity_score,
    make_router,
)
from repro.cluster.workload import (
    ARRIVALS,
    BurstyArrivals,
    ConstantArrivals,
    PoissonArrivals,
    TimedRequest,
    generate_workload,
    load_trace,
    make_arrivals,
    offered_rps,
    save_trace,
)

__all__ = [
    "ADMITTED",
    "ARRIVALS",
    "AdmissionController",
    "AdmissionDecision",
    "Autoscaler",
    "BurstyArrivals",
    "CacheAffinityRouter",
    "ClusterMetrics",
    "ClusterResult",
    "ClusterSimulation",
    "ConstantArrivals",
    "FleetSample",
    "LeastOutstandingRouter",
    "POLICIES",
    "PoissonArrivals",
    "Replica",
    "ReplicaUsage",
    "RequestCost",
    "RoundRobinRouter",
    "Router",
    "ScaleDecision",
    "ScaleEvent",
    "ServiceTimeModel",
    "SloPolicy",
    "TimedRequest",
    "affinity_score",
    "aggregate_service_metrics",
    "fleet_latency_summary",
    "generate_workload",
    "load_trace",
    "make_arrivals",
    "make_router",
    "offered_rps",
    "residency_key",
    "save_trace",
]
