"""The fleet: replicas, deterministic pricing, and the simulation loop.

The cluster scales the serve layer the way FireSim scaled one
NVDLA+RISC-V SoC model out to many simulated instances: N *replicas*
(each one :class:`~repro.serve.InferenceService` when executing) stand
behind a router, an admission controller sheds what the fleet cannot
serve inside its SLOs, and an autoscaler resizes the fleet from
rolling p99/utilisation.

Two clocks, deliberately decoupled:

- **virtual time** — the fleet's clock.  Request service time is
  priced *deterministically* from the bundle's recorded cycle
  profile (:class:`ServiceTimeModel`), plus a warm-up charge whenever
  the bundle is not resident in the replica's warm-state LRU (the
  same LRU discipline — and, when executing, literally the same LRU —
  as :class:`~repro.core.fastpath.FastPathExecutor`).  Every queueing
  number (p99, goodput, rejection rate) is bit-reproducible from the
  workload seed, independent of host speed.
- **host time** — with ``execute=True`` each admitted request also
  runs for real on its replica's service, so outputs are bit-identical
  to a single-service run of the same request set; host-side
  ``ServiceMetrics`` are aggregated into the fleet report.

The discrete-event loop needs no event queue: arrivals are processed
in time order, each replica tracks its backlog horizon (``free_at``)
and the completion times of in-flight requests, and autoscaler ticks
interleave with arrivals on the same clock.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.admission import AdmissionController, SloPolicy
from repro.cluster.autoscaler import Autoscaler, FleetSample, ScaleEvent
from repro.cluster.metrics import (
    ClusterMetrics,
    ReplicaUsage,
    aggregate_service_metrics,
)
from repro.cluster.router import Router
from repro.cluster.workload import TimedRequest
from repro.baremetal.pipeline import bundle_cache_key
from repro.core.fastpath import FastPathExecutor, ProfileTable
from repro.errors import ReproError
from repro.nvdla.config import get_config
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.cache import BundleCache
from repro.serve.metrics import LatencySummary, percentile
from repro.serve.request import DeploymentSpec
from repro.serve.service import InferenceService
from repro.serve.workers import hardware_key

if TYPE_CHECKING:
    from repro.store import BundleStore


@dataclass(frozen=True)
class RequestCost:
    """Deterministic virtual-time price of one request on a replica.

    ``build_seconds``/``fetch_seconds`` price *acquiring* the deployment's
    artefacts the first time a replica ever touches them: compiling from
    scratch versus fetching a verified bundle from the persistent
    :class:`~repro.store.BundleStore`.  Both are zero when the fleet has
    no store attached, which keeps legacy runs bit-identical.
    """

    run_seconds: float  # warm service time (bundle resident)
    warmup_seconds: float  # extra charge when the bundle is cold
    build_seconds: float = 0.0  # first-touch charge: full offline compile
    fetch_seconds: float = 0.0  # first-touch charge: store fetch instead

    @property
    def cold_seconds(self) -> float:
        return self.run_seconds + self.warmup_seconds


def residency_key(spec: DeploymentSpec) -> tuple:
    """The bundle identity a replica's warm-state LRU is keyed on."""
    return (spec.model, spec.config, spec.precision.value)


#: Provisioning link a cold replica loads preload images over.
WARMUP_BANDWIDTH_BYTES_PER_S = 32 * 1024 * 1024
#: Fixed setup charge of every warm-up, on top of the bytes.
WARMUP_FIXED_S = 0.010
#: Fixed charge of a full offline build (compile, VP, bare-metal flow).
BUILD_FIXED_S = 0.250
#: Serialized-container bytes a full build produces per second.
BUILD_BYTES_PER_S = 4 * 1024 * 1024
#: Fixed charge of a verified fetch from the persistent store.
FETCH_FIXED_S = 0.002
#: Serialized-container bytes a store fetch reads per second.
FETCH_BYTES_PER_S = 128 * 1024 * 1024


class ServiceTimeModel:
    """Prices requests from the bundle's recorded cycle profile.

    - *run* — the bundle's whole-run cycles at the deployment's clock.
      The profile *is* a cycle-accurate SoC run, so the price is exact
      and one price serves both execution tiers.
    - *warm-up* — loading the bundle's preload images (program,
      weights, input) onto a replica that does not hold them resident,
      priced as bytes over a provisioning link plus a fixed setup
      charge (``WARMUP_*``).  This is what cache-affinity routing saves
      and what a freshly scaled-up replica pays.
    - *acquisition* (only with a ``store`` attached) — the first time a
      replica ever touches a deployment it must *acquire* the compiled
      artefacts: a full offline build when no one has published them
      yet (``BUILD_*``), or a (much cheaper) verified fetch from the
      persistent store (``FETCH_*``).  Both are priced from the
      serialized container size, so the numbers stay bit-reproducible
      from the seed.
    """

    def __init__(
        self,
        cache: BundleCache | None = None,
        calibration: ProfileTable | None = None,
        store: "BundleStore | None" = None,
    ) -> None:
        # NOT `cache or ...`: an empty BundleCache is falsy (__len__).
        self.cache = cache if cache is not None else BundleCache(store=store)
        self.profiles: ProfileTable = calibration if calibration is not None else {}
        self.store = store
        self._estimators: dict[tuple, FastPathExecutor] = {}
        self._costs: dict[tuple, RequestCost] = {}

    def _estimator(self, spec: DeploymentSpec) -> FastPathExecutor:
        key = (spec.config, spec.memory_bus_width_bits, spec.frequency_hz)
        estimator = self._estimators.get(key)
        if estimator is None:
            estimator = self._estimators[key] = FastPathExecutor(
                get_config(spec.config),
                frequency_hz=spec.frequency_hz,
                calibration=self.profiles,
                memory_bus_width_bits=spec.memory_bus_width_bits,
            )
        return estimator

    def costs(self, spec: DeploymentSpec) -> RequestCost:
        key = residency_key(spec) + (spec.memory_bus_width_bits, spec.frequency_hz)
        cost = self._costs.get(key)
        if cost is None:
            bundle, _ = self.cache.resolve(spec)
            profile = self._estimator(spec).estimate(bundle)
            preload_bytes = sum(len(image.data) for image in bundle.images.preload)
            build_seconds = fetch_seconds = 0.0
            if self.store is not None:
                from repro.store import serialize_bundle

                artifact_bytes = len(serialize_bundle(bundle))
                build_seconds = BUILD_FIXED_S + artifact_bytes / BUILD_BYTES_PER_S
                fetch_seconds = FETCH_FIXED_S + artifact_bytes / FETCH_BYTES_PER_S
            cost = self._costs[key] = RequestCost(
                run_seconds=profile.total_cycles / spec.frequency_hz,
                warmup_seconds=WARMUP_FIXED_S
                + preload_bytes / WARMUP_BANDWIDTH_BYTES_PER_S,
                build_seconds=build_seconds,
                fetch_seconds=fetch_seconds,
            )
        return cost


class Replica:
    """One simulated serving instance: queue horizon + warm-state LRUs.

    The mirror keeps one LRU per *hardware lane* — the worker-sharing
    key of :func:`repro.serve.workers.hardware_key` — because that is
    exactly how an executing replica holds state: its pool builds one
    :class:`~repro.core.fastpath.FastPathExecutor` (with one
    resident-bundle LRU) per hardware point.  Same capacity, same
    move-to-end / evict-oldest policy, so the executors'
    :class:`~repro.core.fastpath.ResidentStats` and this mirror
    advance in lockstep — ``tests/cluster`` pins them equal, including
    across mixed hardware lanes.
    """

    def __init__(
        self,
        replica_id: int,
        resident_capacity: int = 8,
        came_up_at: float = 0.0,
        service_factory=None,
    ) -> None:
        if resident_capacity <= 0:
            raise ReproError("replica needs at least one resident bundle slot")
        self.replica_id = replica_id
        self.resident_capacity = resident_capacity
        self.came_up_at = came_up_at
        self.retired_at: float | None = None
        self.free_at = came_up_at
        self.requests = 0
        self.busy_seconds = 0.0
        self.resident_hits = 0
        self.resident_misses = 0
        # Deployments whose artefacts this replica has ever acquired
        # (compiled or fetched from the store); unlike the resident
        # LRU, acquisition is paid at most once per deployment.
        self.acquired: set[tuple] = set()
        self._resident: dict[tuple, OrderedDict] = {}  # lane → bundle LRU
        self._completions: deque[float] = deque()
        self._service_factory = service_factory
        self._service: InferenceService | None = None

    @property
    def live(self) -> bool:
        return self.retired_at is None

    @property
    def service(self) -> InferenceService:
        """The backing InferenceService (built lazily when executing)."""
        if self._service is None:
            if self._service_factory is None:
                raise ReproError("replica has no service factory (execute=False)")
            self._service = self._service_factory()
        return self._service

    @property
    def executed(self) -> bool:
        return self._service is not None

    def outstanding(self, now: float) -> int:
        """Requests assigned but not yet (virtually) completed."""
        while self._completions and self._completions[0] <= now:
            self._completions.popleft()
        return len(self._completions)

    def backlog_seconds(self, now: float) -> float:
        """Virtual seconds of queued work ahead of a new arrival."""
        return max(0.0, self.free_at - now)

    def touch_resident(self, lane: tuple, key: tuple) -> bool:
        """LRU-touch a bundle in its hardware lane; True when warm."""
        lru = self._resident.setdefault(lane, OrderedDict())
        hit = key in lru
        if hit:
            self.resident_hits += 1
            lru.move_to_end(key)
        else:
            self.resident_misses += 1
            lru[key] = None
            while len(lru) > self.resident_capacity:
                lru.popitem(last=False)
        return hit

    def assign(self, now: float, service_seconds: float) -> tuple[float, float]:
        """Queue one request; returns its (start, completion) instants."""
        start = max(now, self.free_at)
        completion = start + service_seconds
        self.free_at = completion
        self._completions.append(completion)
        self.requests += 1
        self.busy_seconds += service_seconds
        return start, completion

    def usage(self) -> ReplicaUsage:
        return ReplicaUsage(
            replica_id=self.replica_id,
            requests=self.requests,
            resident_hits=self.resident_hits,
            resident_misses=self.resident_misses,
            busy_seconds=self.busy_seconds,
            came_up_at=self.came_up_at,
            retired_at=self.retired_at,
        )


@dataclass
class ClusterResult:
    """Everything one simulation run produced."""

    metrics: ClusterMetrics
    replicas: list[Replica]
    responses: dict[int, object] = field(default_factory=dict)

    def outputs(self) -> dict[int, object]:
        """request_id → output tensor (execute=True runs only)."""
        return {rid: response.output for rid, response in self.responses.items()}


class ClusterSimulation:
    """Workload → admission → router → replicas → metrics."""

    def __init__(
        self,
        router: Router,
        replicas: int = 2,
        slo: SloPolicy | None = None,
        admission: AdmissionController | None = None,
        autoscaler: Autoscaler | None = None,
        pricing: ServiceTimeModel | None = None,
        cache: BundleCache | None = None,
        calibration: ProfileTable | None = None,
        resident_capacity: int = 8,
        execute: bool = False,
        input_seed: int = 7,
        store: "BundleStore | None" = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if replicas <= 0:
            raise ReproError("fleet needs at least one replica")
        self.router = router
        self.tracer = tracer
        self.initial_replicas = replicas
        self.slo = slo or (admission.policy if admission else SloPolicy())
        self.admission = admission
        self.autoscaler = autoscaler
        # NOT `cache or ...`: an empty BundleCache is falsy (__len__).
        self.cache = cache if cache is not None else BundleCache(store=store)
        self.pricing = pricing or ServiceTimeModel(
            cache=self.cache, calibration=calibration, store=store
        )
        # Replicas share the pricing model's profiles unless handed
        # their own: a bundle priced once is not re-recorded when a
        # replica executes it.
        self.profiles = calibration if calibration is not None else self.pricing.profiles
        self.store = store if store is not None else self.pricing.store
        self.resident_capacity = resident_capacity
        self.execute = execute
        self.input_seed = input_seed
        self._next_replica_id = 0
        self._published: set[tuple] = set()

    # ------------------------------------------------------------------
    # Fleet plumbing.
    # ------------------------------------------------------------------

    def _service_factory(self):
        def build() -> InferenceService:
            return InferenceService(
                cache=self.cache,
                calibration=self.profiles,
                input_seed=self.input_seed,
                max_resident_bundles=self.resident_capacity,
            )

        return build

    def _new_replica(self, came_up_at: float) -> Replica:
        replica = Replica(
            self._next_replica_id,
            resident_capacity=self.resident_capacity,
            came_up_at=came_up_at,
            service_factory=self._service_factory() if self.execute else None,
        )
        self._next_replica_id += 1
        return replica

    @staticmethod
    def _live(fleet: list[Replica]) -> list[Replica]:
        return [replica for replica in fleet if replica.live]

    # ------------------------------------------------------------------
    # Artefact acquisition (store-aware pricing).
    # ------------------------------------------------------------------

    def _prime_published(self, workload: list[TimedRequest]) -> None:
        """Seed the published set from the attached persistent store.

        A deployment already verified on disk means every replica —
        including the very first — warms by *fetching* instead of
        compiling; this is the pre-warmed-store scenario the `repro
        warmup` CLI sets up.
        """
        self._published = set()
        if self.store is None:
            return
        for spec in {request.deployment for request in workload}:
            key = bundle_cache_key(spec.model, spec.config, spec.precision)
            if self.store.contains(key):
                self._published.add(residency_key(spec))

    def _acquisition_seconds(
        self, replica: Replica, spec: DeploymentSpec, cost: RequestCost
    ) -> float:
        """First-ever touch of a deployment on this replica.

        Unpublished artefacts pay the full offline build (and are
        published for everyone after); published ones pay the much
        cheaper store fetch.  Zero without a store — legacy pricing is
        bit-identical.
        """
        if self.store is None:
            return 0.0
        key = residency_key(spec)
        if key in replica.acquired:
            return 0.0
        replica.acquired.add(key)
        if key in self._published:
            return cost.fetch_seconds
        self._published.add(key)
        return cost.build_seconds

    # ------------------------------------------------------------------
    # Autoscaling.
    # ------------------------------------------------------------------

    def _fleet_sample(
        self, now: float, fleet: list[Replica], window: deque
    ) -> FleetSample:
        scaler = self.autoscaler
        horizon = now - scaler.window_s
        while window and window[0][0] < horizon:
            window.popleft()
        live = self._live(fleet)
        latencies = [latency for _, latency, _ in window]
        assigned_seconds = sum(service for _, _, service in window)
        capacity = max(1, len(live)) * scaler.window_s
        return FleetSample(
            now=now,
            live_replicas=len(live),
            p99_latency_s=percentile(latencies, 99),
            utilization=assigned_seconds / capacity,
            max_backlog_s=max((r.backlog_seconds(now) for r in live), default=0.0),
        )

    def _autoscale(
        self, now: float, fleet: list[Replica], window: deque, metrics: ClusterMetrics
    ) -> None:
        sample = self._fleet_sample(now, fleet, window)
        decision = self.autoscaler.decide(sample)
        if decision is None:
            return
        live = self._live(fleet)
        if decision.desired > len(live):
            for _ in range(decision.desired - len(live)):
                fleet.append(self._new_replica(now + self.autoscaler.provision_delay_s))
        elif decision.desired < len(live):
            # Retire the emptiest (newest on ties): in-flight work still
            # completes, but the router stops seeing the replica.
            for _ in range(len(live) - decision.desired):
                victim = min(
                    self._live(fleet),
                    key=lambda r: (r.backlog_seconds(now), -r.replica_id),
                )
                victim.retired_at = now
        else:
            return
        metrics.scale_events.append(
            ScaleEvent(
                at_s=now,
                from_replicas=len(live),
                to_replicas=decision.desired,
                reason=decision.reason,
                p99_latency_s=sample.p99_latency_s,
                utilization=sample.utilization,
                # What a scaled-up replica can fetch instead of build.
                warmed_bundles=(
                    len(self._published) if decision.desired > len(live) else 0
                ),
            )
        )

    # ------------------------------------------------------------------
    # The run loop.
    # ------------------------------------------------------------------

    def run(self, workload: list[TimedRequest]) -> ClusterResult:
        if not workload:
            raise ReproError("cannot simulate an empty workload")
        ordered = sorted(workload, key=lambda r: (r.arrival_s, r.request_id))
        self.router.reset()
        self._prime_published(ordered)
        if self.autoscaler:
            self.autoscaler.reset()
        self._next_replica_id = 0
        metrics = ClusterMetrics(
            slo=self.slo,
            policy_name=self.router.name,
        )
        fleet = [self._new_replica(0.0) for _ in range(self.initial_replicas)]
        metrics.peak_replicas = len(fleet)
        window: deque[tuple[float, float, float]] = deque()
        responses: dict[int, object] = {}
        next_tick = (
            self.autoscaler.evaluate_every_s if self.autoscaler is not None else None
        )

        for request in ordered:
            now = request.arrival_s
            while next_tick is not None and next_tick <= now:
                self._autoscale(next_tick, fleet, window, metrics)
                metrics.peak_replicas = max(
                    metrics.peak_replicas, len(self._live(fleet))
                )
                step = self.autoscaler.evaluate_every_s
                next_tick += step
                # Fast-forward across idle stretches: with the rolling
                # window drained and the fleet at the scaler's floor,
                # every further tick before the next arrival is a
                # no-op — a sparse trace must not replay them all.
                if (
                    next_tick <= now
                    and not window
                    and len(self._live(fleet)) == self.autoscaler.min_replicas
                ):
                    skipped = int((now - next_tick) // step) + 1
                    next_tick += skipped * step
            metrics.arrival(now)
            live = self._live(fleet)
            cost = self.pricing.costs(request.deployment)
            if self.admission is not None:
                decision = self.admission.admit(request, live, now, cost.run_seconds)
                if not decision.admitted:
                    metrics.reject(now, decision.reason)
                    self._trace_rejection(request, now, decision.reason)
                    continue
            elif not live:
                metrics.reject(now, "no_replicas")
                self._trace_rejection(request, now, "no_replicas")
                continue
            replica = self.router.route(request, live, now)
            acquisition = self._acquisition_seconds(replica, request.deployment, cost)
            warm = replica.touch_resident(
                hardware_key(request.deployment), residency_key(request.deployment)
            )
            service_seconds = (
                cost.run_seconds
                + (0.0 if warm else cost.warmup_seconds)
                + acquisition
            )
            started, completion = replica.assign(now, service_seconds)
            latency = completion - now
            window.append((now, latency, service_seconds))
            ok = True
            if self.execute:
                response = self._execute(replica, request)
                responses[request.request_id] = response
                ok = response.ok
            metrics.complete(now, latency, warm, ok=ok)
            if self.tracer.enabled:
                self._trace_request(
                    request, replica.replica_id, now, started, completion,
                    cost, acquisition, warm, ok,
                )

        metrics.replica_usage = [replica.usage() for replica in fleet]
        metrics.peak_replicas = max(metrics.peak_replicas, len(self._live(fleet)))
        if self.execute:
            metrics.service_aggregate = aggregate_service_metrics(
                replica.service.metrics for replica in fleet if replica.executed
            )
        return ClusterResult(metrics=metrics, replicas=fleet, responses=responses)

    def _execute(self, replica: Replica, request: TimedRequest):
        """Serve the request for real on the replica's service."""
        service = replica.service
        service.request(request.deployment, request.input_image)
        batch = service.run_pending()
        return batch[-1]

    # ------------------------------------------------------------------
    # Virtual-clock tracing: the simulated timeline in the same span
    # format (and exporters) as the live serving plane — one Perfetto
    # lane per replica.
    # ------------------------------------------------------------------

    def _trace_rejection(self, request: TimedRequest, now: float,
                         reason: str) -> None:
        if not self.tracer.enabled:
            return
        self.tracer.add(
            "request", now, now,
            trace_id=f"{self.router.name}:req-{request.request_id}",
            process=-1,
            request_id=request.request_id,
            deployment=request.deployment.describe(),
            rejected=reason,
        )

    def _trace_request(
        self, request: TimedRequest, replica_id: int, now: float,
        started: float, completion: float, cost: "RequestCost",
        acquisition: float, warm: bool, ok: bool,
    ) -> None:
        trace_id = f"{self.router.name}:req-{request.request_id}"
        root = self.tracer.add(
            "request", now, completion, trace_id=trace_id, process=replica_id,
            request_id=request.request_id,
            deployment=request.deployment.describe(),
            replica=replica_id, warm=warm, ok=ok,
        )
        if started > now:
            self.tracer.add("queue.wait", now, started, parent=root,
                            process=replica_id)
        at = started
        if acquisition > 0:
            self.tracer.add("acquire", at, at + acquisition, parent=root,
                            process=replica_id)
            at += acquisition
        if not warm:
            self.tracer.add("warmup", at, at + cost.warmup_seconds,
                            parent=root, process=replica_id)
            at += cost.warmup_seconds
        self.tracer.add("run", at, completion, parent=root,
                        process=replica_id, run_seconds=cost.run_seconds)


def fleet_latency_summary(results: list[ClusterResult]) -> LatencySummary:
    """Pooled virtual-latency summary across several runs."""
    samples: list[float] = []
    for result in results:
        samples.extend(result.metrics.latencies)
    return LatencySummary.of(samples)
