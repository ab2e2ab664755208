"""Fleet-wide metrics: goodput vs offered load, percentiles, timeline.

:class:`ClusterMetrics` accumulates per-request outcomes on the
simulation's virtual clock — completed (with latency and warm-state
hit), rejected (with the shedding reason) — plus the autoscaler's
scale-event timeline and, when the fleet executed requests for real,
an aggregate of every replica's host-side
:class:`~repro.serve.metrics.ServiceMetrics`
(via :func:`aggregate_service_metrics`, built on the serve layer's
``to_dict`` export rather than scraping rendered text).

It is a plain record — each count stored once, as a field — and the
fleet reports through :meth:`ClusterMetrics.to_dict` and
:meth:`ClusterMetrics.render`; per-reason rejections and the latency
samples are ``rejections_by_reason`` and ``latencies``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.cluster.admission import SloPolicy
from repro.cluster.autoscaler import ScaleEvent
from repro.obs.stats import LatencySummary
from repro.serve.metrics import ServiceMetrics


def aggregate_service_metrics(services: Iterable[ServiceMetrics]) -> dict:
    """Roll per-replica ServiceMetrics up into one fleet-wide view.

    Counters sum; latency percentiles are recomputed over the pooled
    samples (a mean of p99s is not a p99).  Returns JSON-ready data in
    the same shape as :meth:`ServiceMetrics.to_dict`.
    """
    services = list(services)
    wall: list[float] = []
    cycles: list[float] = []
    totals = {
        "replicas": len(services),
        "requests": 0,
        "failures": 0,
        "bundle_hits": 0,
        "bundle_misses": 0,
        "wall_seconds_total": 0.0,
    }
    for metrics in services:
        summary = metrics.to_dict()
        totals["requests"] += summary["requests"]
        totals["failures"] += summary["failures"]
        totals["bundle_hits"] += summary["bundle_hits"]
        totals["bundle_misses"] += summary["bundle_misses"]
        totals["wall_seconds_total"] += summary["wall_seconds_total"]
        wall.extend(metrics.wall_latencies)
        cycles.extend(metrics.cycle_latencies)
    totals["wall"] = LatencySummary.of(wall).to_dict()
    totals["cycles"] = LatencySummary.of(cycles).to_dict()
    return totals


@dataclass
class ReplicaUsage:
    """One replica's share of the run, for the per-replica table."""

    replica_id: int
    requests: int
    resident_hits: int
    resident_misses: int
    busy_seconds: float
    came_up_at: float
    retired_at: float | None

    def to_dict(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "requests": self.requests,
            "resident_hits": self.resident_hits,
            "resident_misses": self.resident_misses,
            "busy_seconds": self.busy_seconds,
            "came_up_at": self.came_up_at,
            "retired_at": self.retired_at,
        }


@dataclass
class ClusterMetrics:
    """Counters accumulated across one fleet-simulation run.

    A plain record: ``slo`` and ``policy_name`` are set at construction,
    ``arrival_name`` and the rest are assigned or accumulated afterwards.
    """

    slo: SloPolicy = field(default_factory=SloPolicy)
    policy_name: str = ""
    arrival_name: str = field(default="", init=False)
    arrivals: int = field(default=0, init=False)
    completed: int = field(default=0, init=False)
    # executed responses that came back not-ok
    failures: int = field(default=0, init=False)
    rejected: int = field(default=0, init=False)
    rejections_by_reason: dict[str, int] = field(default_factory=dict, init=False)
    resident_hits: int = field(default=0, init=False)
    resident_misses: int = field(default=0, init=False)
    slo_met: int = field(default=0, init=False)
    latencies: list[float] = field(default_factory=list, init=False)
    first_arrival_s: float | None = field(default=None, init=False)
    last_arrival_s: float = field(default=0.0, init=False)
    last_completion_s: float = field(default=0.0, init=False)
    peak_replicas: int = field(default=0, init=False)
    scale_events: list[ScaleEvent] = field(default_factory=list, init=False)
    replica_usage: list[ReplicaUsage] = field(default_factory=list, init=False)
    service_aggregate: dict | None = field(default=None, init=False)

    # ------------------------------------------------------------------
    # Accumulation (driven by the simulation loop).
    # ------------------------------------------------------------------

    def arrival(self, now: float) -> None:
        self.arrivals += 1
        if self.first_arrival_s is None:
            self.first_arrival_s = now
        self.last_arrival_s = now

    def reject(self, now: float, reason: str) -> None:
        self.rejected += 1
        self.rejections_by_reason[reason] = self.rejections_by_reason.get(reason, 0) + 1

    def complete(
        self, now: float, latency_s: float, resident_hit: bool, ok: bool = True
    ) -> None:
        self.completed += 1
        if not ok:
            self.failures += 1
        if resident_hit:
            self.resident_hits += 1
        else:
            self.resident_misses += 1
        if latency_s <= self.slo.slo_latency_s:
            self.slo_met += 1
        self.latencies.append(latency_s)
        self.last_completion_s = max(self.last_completion_s, now + latency_s)

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Virtual span from the first arrival to the last completion."""
        start = self.first_arrival_s or 0.0
        end = max(self.last_completion_s, self.last_arrival_s)
        return max(0.0, end - start)

    @property
    def arrival_span_s(self) -> float:
        """Virtual span of the arrival process alone."""
        start = self.first_arrival_s or 0.0
        return max(0.0, self.last_arrival_s - start)

    @property
    def offered_rps(self) -> float:
        """Arrival rate over the arrival span — a *workload* property,
        identical across policies serving the same request set (the
        makespan-based :attr:`goodput_rps` is where policies differ).
        Same gaps-based estimator as
        :func:`repro.cluster.workload.offered_rps`: n arrivals span
        n−1 inter-arrival gaps."""
        span = self.arrival_span_s
        return (self.arrivals - 1) / span if span and self.arrivals > 1 else 0.0

    @property
    def goodput_rps(self) -> float:
        """Completions inside the latency SLO, per virtual second."""
        return self.slo_met / self.duration_s if self.duration_s else 0.0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.arrivals if self.arrivals else 0.0

    @property
    def resident_hit_rate(self) -> float:
        total = self.resident_hits + self.resident_misses
        return self.resident_hits / total if total else 0.0

    def latency_summary(self) -> LatencySummary:
        return LatencySummary.of(self.latencies)

    def meets_rejection_slo(self) -> bool:
        return self.rejection_rate <= self.slo.max_rejection_rate

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "policy": self.policy_name,
            "arrival": self.arrival_name,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "failures": self.failures,
            "rejected": self.rejected,
            "rejections_by_reason": dict(sorted(self.rejections_by_reason.items())),
            "rejection_rate": self.rejection_rate,
            "meets_rejection_slo": self.meets_rejection_slo(),
            "resident_hits": self.resident_hits,
            "resident_misses": self.resident_misses,
            "resident_hit_rate": self.resident_hit_rate,
            "duration_s": self.duration_s,
            "offered_rps": self.offered_rps,
            "goodput_rps": self.goodput_rps,
            "slo_latency_s": self.slo.slo_latency_s,
            "max_rejection_rate": self.slo.max_rejection_rate,
            "latency": self.latency_summary().to_dict(),
            "peak_replicas": self.peak_replicas,
            "scale_events": [event.to_dict() for event in self.scale_events],
            "per_replica": [usage.to_dict() for usage in self.replica_usage],
            "service_aggregate": self.service_aggregate,
        }

    def render(self) -> str:
        latency = self.latency_summary()
        reasons = ", ".join(
            f"{reason} {count}"
            for reason, count in sorted(self.rejections_by_reason.items())
        )
        lines = [
            f"cluster[{self.policy_name or 'unrouted'}"
            + (f", {self.arrival_name}" if self.arrival_name else "")
            + f"]: {self.arrivals} arrivals over {self.duration_s:.2f} s",
            f"offered {self.offered_rps:.1f} rps → goodput {self.goodput_rps:.1f} rps "
            f"(SLO {self.slo.slo_latency_s * 1e3:.0f} ms)",
            f"completed {self.completed} ({self.failures} failed)  "
            f"rejected {self.rejected} "
            f"({self.rejection_rate * 100:.1f}%"
            + (f": {reasons}" if reasons else "")
            + f"; SLO ≤ {self.slo.max_rejection_rate * 100:.0f}% "
            + ("met" if self.meets_rejection_slo() else "MISSED")
            + ")",
            f"virtual latency: p50 {latency.p50 * 1e3:.1f} ms  "
            f"p99 {latency.p99 * 1e3:.1f} ms  max {latency.max * 1e3:.1f} ms",
            f"resident bundles: {self.resident_hits} hits / "
            f"{self.resident_misses} misses "
            f"({self.resident_hit_rate * 100:.0f}% hit rate)",
        ]
        if self.replica_usage:
            peak = self.peak_replicas or len(self.replica_usage)
            lines.append(f"replicas (peak {peak}):")
            for usage in self.replica_usage:
                state = (
                    f"retired t={usage.retired_at:.2f}s"
                    if usage.retired_at is not None
                    else "live"
                )
                lines.append(
                    f"  r{usage.replica_id}: {usage.requests} requests  "
                    f"{usage.resident_hits}h/{usage.resident_misses}m  "
                    f"busy {usage.busy_seconds:.2f} s  "
                    f"up t={usage.came_up_at:.2f}s  {state}"
                )
        if self.scale_events:
            lines.append("scale timeline:")
            lines.extend(f"  {event.render()}" for event in self.scale_events)
        if self.service_aggregate:
            wall = self.service_aggregate["wall"]
            lines.append(
                f"host execution: {self.service_aggregate['requests']} requests "
                f"across {self.service_aggregate['replicas']} replica services  "
                f"wall p50 {wall['p50'] * 1e3:.1f} ms  p99 {wall['p99'] * 1e3:.1f} ms"
            )
        return "\n".join(lines)
