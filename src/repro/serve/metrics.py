"""Service-level metrics: throughput, latency percentiles, hit rates.

Latency is tracked on both timescales: *wall* seconds (host time to
serve a request, the number the cache is trying to shrink) and
*simulated* cycles (what the modelled SoC would take, the number the
paper reports).

:class:`ServiceMetrics` is a plain record: each counter and each
latency sample is stored once, as a field (``metrics.requests += 1``).
:meth:`ServiceMetrics.to_dict` is the JSON snapshot benchmarks and the
cluster aggregator read; ``metrics.registry`` builds a
:class:`repro.obs.metrics.MetricsRegistry` from the fields at export
time, the format ``--metrics-out`` writes and ``repro metrics`` merges.
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
    wall_seconds: float = 0.0  # busy time: each worker call once
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


@dataclass
class ServiceMetrics:
    """Counters accumulated across a service lifetime.

    Every number is stored once, as a plain field; :attr:`registry`
    builds the mergeable export from these fields on demand.
    """

    requests: int = field(default=0, init=False)
    failures: int = field(default=0, init=False)
    batches: int = field(default=0, init=False)
    # served from the in-memory cache
    bundle_hits: int = field(default=0, init=False)
    # = bundle_store_hits + bundle_compiles
    bundle_misses: int = field(default=0, init=False)
    # misses satisfied by the persistent store
    bundle_store_hits: int = field(default=0, init=False)
    # misses that paid the full offline flow
    bundle_compiles: int = field(default=0, init=False)
    workers_created: int = field(default=0, init=False)
    workers_reused: int = field(default=0, init=False)
    # busy time inside workers, each worker call once
    wall_seconds_total: float = field(default=0.0, init=False)
    # end-to-end serve() time
    elapsed_seconds: float = field(default=0.0, init=False)
    # Exact samples: the summaries report true nearest-rank
    # percentiles, and the exported histograms are built from them.
    wall_latencies: list[float] = field(default_factory=list, init=False)
    cycle_latencies: list[float] = field(default_factory=list, init=False)
    per_deployment: dict[str, DeploymentMetrics] = field(default_factory=dict, init=False)
    # Worker-process slot → its counters (runs, busy_seconds, batches,
    # restarts, workers_created, workers_reused), aggregated by the
    # serving plane after each drain.  The
    # single-process service leaves this empty.
    per_process: dict[int, dict] = field(default_factory=dict, init=False)

    @property
    def registry(self) -> MetricsRegistry:
        """The counters and latency histograms as a mergeable export.

        Built fresh from the fields on each call (``repro serve
        --metrics-out`` writes it, ``repro metrics`` merges snapshots);
        the two histograms appear once a request has been recorded.
        """
        registry = MetricsRegistry()
        for name, value in (
            ("serve.requests", self.requests),
            ("serve.failures", self.failures),
            ("serve.batches", self.batches),
            ("serve.bundle.hits", self.bundle_hits),
            ("serve.bundle.misses", self.bundle_misses),
            ("serve.bundle.store_hits", self.bundle_store_hits),
            ("serve.bundle.compiles", self.bundle_compiles),
            ("serve.workers.created", self.workers_created),
            ("serve.workers.reused", self.workers_reused),
            ("serve.busy.seconds", self.wall_seconds_total),
            ("serve.elapsed.seconds", self.elapsed_seconds),
        ):
            registry.counter(name).value = value
        for name, samples in (
            ("serve.request.wall.seconds", self.wall_latencies),
            ("serve.request.cycles", self.cycle_latencies),
        ):
            if samples:
                hist = registry.histogram(name)
                for value in samples:
                    hist.observe(value)
        return registry

    def record(
        self,
        wall_seconds: float,
        cycles: int,
        ok: bool,
        deployment: str | None = None,
        busy_seconds: float | None = None,
    ) -> None:
        """Count one served request.

        ``wall_seconds`` is the request's latency sample: the host time
        of the worker call that served it.  ``busy_seconds`` (default:
        ``wall_seconds``) is its share of worker busy time, which the
        busy totals add up; a call that served a whole batch is charged
        once (see :mod:`repro.serve.executor`).
        """
        busy = wall_seconds if busy_seconds is None else busy_seconds
        self.requests += 1
        if not ok:
            self.failures += 1
        self.wall_latencies.append(wall_seconds)
        self.cycle_latencies.append(float(cycles))
        self.wall_seconds_total += busy
        if deployment is not None:
            slice_ = self.per_deployment.setdefault(deployment, DeploymentMetrics())
            slice_.requests += 1
            if not ok:
                slice_.failures += 1
            slice_.wall_seconds += busy
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
                f"{stats.get('restarts', 0)} restarts, "
                f"{stats.get('workers_created', 0)} workers created"
            )
        return "\n".join(lines)
