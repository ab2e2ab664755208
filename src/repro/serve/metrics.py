"""Service-level metrics: throughput, latency percentiles, hit rates.

Latency is tracked on both timescales: *wall* seconds (host time to
serve a request, the number the cache is trying to shrink) and
*simulated* cycles (what the modelled SoC would take, the number the
paper reports).

Counters live in a :class:`repro.obs.metrics.MetricsRegistry`
(``metrics.registry``) so they merge across processes and export
through ``repro metrics``; the attribute surface below
(``metrics.requests += 1`` etc.) is a facade over registry counters
and is unchanged from the pre-registry dataclass, as is the
:meth:`ServiceMetrics.to_dict` snapshot shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry
from ..obs.stats import LatencySummary, percentile

__all__ = [
    "DeploymentMetrics",
    "LatencySummary",
    "ServiceMetrics",
    "percentile",
]


@dataclass
class DeploymentMetrics:
    """Per-deployment slice of the service counters.

    Keyed by :meth:`DeploymentSpec.describe`, so mixed-mode services
    (fast and cycle-accurate tiers side by side) report each tier's
    traffic and latency separately — the two tiers serve identical
    tensors but live on different wall-clock scales.
    """

    requests: int = 0
    failures: int = 0
    wall_seconds: float = 0.0
    wall_latencies: list[float] = field(default_factory=list)
    cycle_latencies: list[float] = field(default_factory=list)

    def wall_summary(self) -> LatencySummary:
        return LatencySummary.of(self.wall_latencies)

    def cycle_summary(self) -> LatencySummary:
        return LatencySummary.of(self.cycle_latencies)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "failures": self.failures,
            "wall_seconds": self.wall_seconds,
            "wall": self.wall_summary().to_dict(),
            "cycles": self.cycle_summary().to_dict(),
        }


def _int_counter(metric: str, doc: str | None = None) -> property:
    """Registry-backed int attribute: ``metrics.requests += 1`` works."""

    def fget(self) -> int:
        return int(self.registry.counter(metric).value)

    def fset(self, value) -> None:
        self.registry.counter(metric).value = int(value)

    return property(fget, fset, doc=doc)


def _float_counter(metric: str, doc: str | None = None) -> property:
    def fget(self) -> float:
        return self.registry.counter(metric).value

    def fset(self, value) -> None:
        self.registry.counter(metric).value = float(value)

    return property(fget, fset, doc=doc)


class ServiceMetrics:
    """Counters accumulated across a service lifetime."""

    requests = _int_counter("serve.requests")
    failures = _int_counter("serve.failures")
    batches = _int_counter("serve.batches")
    # served from the in-memory cache
    bundle_hits = _int_counter("serve.bundle.hits")
    # = bundle_store_hits + bundle_compiles
    bundle_misses = _int_counter("serve.bundle.misses")
    # misses satisfied by the persistent store
    bundle_store_hits = _int_counter("serve.bundle.store_hits")
    # misses that paid the full offline flow
    bundle_compiles = _int_counter("serve.bundle.compiles")
    workers_created = _int_counter("serve.workers.created")
    workers_reused = _int_counter("serve.workers.reused")
    # busy time inside workers
    wall_seconds_total = _float_counter("serve.busy.seconds")
    # end-to-end serve() time
    elapsed_seconds = _float_counter("serve.elapsed.seconds")

    def __init__(
        self,
        requests: int = 0,
        failures: int = 0,
        batches: int = 0,
        bundle_hits: int = 0,
        bundle_misses: int = 0,
        bundle_store_hits: int = 0,
        bundle_compiles: int = 0,
        workers_created: int = 0,
        workers_reused: int = 0,
        wall_seconds_total: float = 0.0,
        elapsed_seconds: float = 0.0,
        wall_latencies: list[float] | None = None,
        cycle_latencies: list[float] | None = None,
        per_deployment: dict[str, DeploymentMetrics] | None = None,
        per_process: dict[int, dict] | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.requests = requests
        self.failures = failures
        self.batches = batches
        self.bundle_hits = bundle_hits
        self.bundle_misses = bundle_misses
        self.bundle_store_hits = bundle_store_hits
        self.bundle_compiles = bundle_compiles
        self.workers_created = workers_created
        self.workers_reused = workers_reused
        self.wall_seconds_total = wall_seconds_total
        self.elapsed_seconds = elapsed_seconds
        # Exact samples kept alongside the registry histograms: the
        # summaries below report true nearest-rank percentiles, the
        # histograms are what merges across processes.
        self.wall_latencies = wall_latencies if wall_latencies is not None else []
        self.cycle_latencies = cycle_latencies if cycle_latencies is not None else []
        self.per_deployment = per_deployment if per_deployment is not None else {}
        # Worker-process slot → its counters (runs, busy_seconds,
        # batches, restarts), aggregated by the serving plane after each
        # drain.  The single-process service leaves this empty.
        self.per_process = per_process if per_process is not None else {}

    def record(
        self, wall_seconds: float, cycles: int, ok: bool, deployment: str | None = None
    ) -> None:
        self.requests += 1
        if not ok:
            self.failures += 1
        self.wall_latencies.append(wall_seconds)
        self.cycle_latencies.append(float(cycles))
        self.wall_seconds_total += wall_seconds
        self.registry.histogram("serve.request.wall.seconds").observe(wall_seconds)
        self.registry.histogram("serve.request.cycles").observe(float(cycles))
        if deployment is not None:
            slice_ = self.per_deployment.setdefault(deployment, DeploymentMetrics())
            slice_.requests += 1
            if not ok:
                slice_.failures += 1
            slice_.wall_seconds += wall_seconds
            slice_.wall_latencies.append(wall_seconds)
            slice_.cycle_latencies.append(float(cycles))

    def record_resolution(self, source: str) -> None:
        """Count one bundle resolution by its :meth:`BundleCache.resolve` source."""
        if source == "memory":
            self.bundle_hits += 1
            return
        self.bundle_misses += 1
        if source == "store":
            self.bundle_store_hits += 1
        else:
            self.bundle_compiles += 1

    def record_process(self, slot: int, stats: dict) -> None:
        """Fold one worker process's counters into the aggregate view."""
        self.per_process[slot] = dict(stats)

    @property
    def process_restarts(self) -> int:
        return sum(s.get("restarts", 0) for s in self.per_process.values())

    @property
    def cache_hit_rate(self) -> float:
        total = self.bundle_hits + self.bundle_misses
        return self.bundle_hits / total if total else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second of serving."""
        elapsed = self.elapsed_seconds or self.wall_seconds_total
        return self.requests / elapsed if elapsed else 0.0

    def wall_summary(self) -> LatencySummary:
        return LatencySummary.of(self.wall_latencies)

    def cycle_summary(self) -> LatencySummary:
        return LatencySummary.of(self.cycle_latencies)

    def to_dict(self) -> dict:
        """The whole counter surface as JSON-ready data.

        Benchmarks and the cluster aggregator consume this instead of
        scraping :meth:`render` text.
        """
        return {
            "requests": self.requests,
            "failures": self.failures,
            "batches": self.batches,
            "bundle_hits": self.bundle_hits,
            "bundle_misses": self.bundle_misses,
            "bundle_store_hits": self.bundle_store_hits,
            "bundle_compiles": self.bundle_compiles,
            "cache_hit_rate": self.cache_hit_rate,
            "workers_created": self.workers_created,
            "workers_reused": self.workers_reused,
            "wall_seconds_total": self.wall_seconds_total,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_rps": self.throughput_rps,
            "wall": self.wall_summary().to_dict(),
            "cycles": self.cycle_summary().to_dict(),
            "per_deployment": {
                name: slice_.to_dict()
                for name, slice_ in sorted(self.per_deployment.items())
            },
            "per_process": {
                str(slot): dict(stats)
                for slot, stats in sorted(self.per_process.items())
            },
        }

    def render(self) -> str:
        wall = self.wall_summary()
        cyc = self.cycle_summary()
        lines = [
            f"requests: {self.requests} ({self.failures} failed) "
            f"in {self.batches} batches",
            f"throughput: {self.throughput_rps:.2f} req/s "
            f"(elapsed {self.elapsed_seconds:.2f} s)",
            f"bundle cache: {self.bundle_hits} hits / {self.bundle_misses} misses "
            f"({self.cache_hit_rate * 100:.0f}% hit rate; "
            f"{self.bundle_store_hits} from store, "
            f"{self.bundle_compiles} compiled)",
            f"workers: {self.workers_created} created, {self.workers_reused} reuses",
            f"wall latency: p50 {wall.p50 * 1e3:.1f} ms  p99 {wall.p99 * 1e3:.1f} ms  "
            f"max {wall.max * 1e3:.1f} ms",
            f"SoC latency: p50 {cyc.p50:,.0f} cycles  p99 {cyc.p99:,.0f} cycles",
        ]
        for name in sorted(self.per_deployment):
            slice_ = self.per_deployment[name]
            wall_slice = slice_.wall_summary()
            cyc_slice = slice_.cycle_summary()
            lines.append(
                f"  {name}: {slice_.requests} requests "
                f"({slice_.failures} failed)  "
                f"wall p50 {wall_slice.p50 * 1e3:.1f} ms  "
                f"p99 {wall_slice.p99 * 1e3:.1f} ms  "
                f"max {wall_slice.max * 1e3:.1f} ms  "
                f"cycles p50 {cyc_slice.p50:,.0f}  p99 {cyc_slice.p99:,.0f}"
            )
        for slot in sorted(self.per_process):
            stats = self.per_process[slot]
            lines.append(
                f"  process {slot}: {stats.get('runs', 0)} runs in "
                f"{stats.get('batches', 0)} batches, "
                f"busy {stats.get('busy_seconds', 0.0):.2f} s, "
                f"{stats.get('restarts', 0)} restarts"
            )
        return "\n".join(lines)
