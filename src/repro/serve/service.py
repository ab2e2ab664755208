"""The inference service: cache + scheduler + worker pool + metrics.

One synchronous facade over the serving pipeline::

    service = InferenceService()
    service.submit(InferenceRequest(0, DeploymentSpec("lenet5"), image))
    responses = service.run_pending()
    print(service.metrics.render())

Each unique deployment pays the offline flow (compile → VP trace →
codegen) once, on first touch; every later request replays the cached
artefacts on a pooled SoC worker, which is orders of magnitude cheaper.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.fastpath import ProfileTable
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.cache import BundleCache
from repro.serve.executor import execute_batch
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import DeploymentSpec, InferenceRequest, InferenceResponse
from repro.serve.scheduler import Batch, RequestScheduler
from repro.serve.workers import WorkerPool


class InferenceService:
    """Serves batched inference requests across models and configs."""

    def __init__(
        self,
        cache: BundleCache | None = None,
        max_batch_size: int = 8,
        workers_per_key: int = 1,
        input_seed: int = 7,
        calibration: ProfileTable | None = None,
        max_resident_bundles: int | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        # NOT `cache or BundleCache()`: an empty cache is falsy (__len__)
        # and would be silently swapped for one without its store.
        self.cache = cache if cache is not None else BundleCache()
        self.scheduler = RequestScheduler(max_batch_size=max_batch_size)
        self.pool = WorkerPool(
            workers_per_key=workers_per_key,
            calibration=calibration,
            max_resident_bundles=max_resident_bundles,
        )
        self.metrics = ServiceMetrics()
        self.tracer = tracer
        # Inputs the service synthesises are drawn per request from
        # request_rng(input_seed, request_id) (see execute_batch), so
        # the tensor request i receives does not depend on batch
        # interleaving or worker count.
        self.input_seed = input_seed
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Intake.
    # ------------------------------------------------------------------

    def submit(self, request: InferenceRequest) -> None:
        self.scheduler.submit(request)

    def request(
        self, deployment: DeploymentSpec, input_image: np.ndarray | None = None
    ) -> InferenceRequest:
        """Build, submit and return a request with a fresh id."""
        request = InferenceRequest(self._next_request_id, deployment, input_image)
        self._next_request_id += 1
        self.submit(request)
        return request

    # ------------------------------------------------------------------
    # Fleet hooks: queue depth and state snapshots for routers /
    # autoscalers sitting above a pool of services (repro.cluster).
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests accepted but not yet served."""
        return self.scheduler.pending()

    def snapshot(self) -> dict:
        """JSON-ready state: queue depth, metrics, cache and pool."""
        snapshot = {
            "outstanding": self.outstanding,
            "metrics": self.metrics.to_dict(),
            "cache": {"entries": len(self.cache), **self.cache.stats.to_dict()},
            "workers": {
                "created": self.pool.created,
                "reused": self.pool.reused,
            },
        }
        if self.cache.store is not None:
            snapshot["store"] = self.cache.store.stats.to_dict()
        return snapshot

    # ------------------------------------------------------------------
    # Serving.
    # ------------------------------------------------------------------

    def _serve_batch(self, batch: Batch) -> list[InferenceResponse]:
        deployment = batch.deployment
        tracer = self.tracer

        def request_span(request: InferenceRequest):
            return tracer.start(
                "request", trace_id=f"req-{request.request_id}",
                request_id=request.request_id,
                deployment=deployment.describe(),
                batch_id=batch.batch_id,
            )

        executed = execute_batch(
            self.cache, self.pool, deployment, batch.requests, self.input_seed,
            batch.batch_id, request_span, tracer,
        )
        self.metrics.record_resolution(executed.source)
        cache_hit = executed.source == "memory"
        responses: list[InferenceResponse] = []
        for request, (result, wall) in zip(batch.requests, executed.runs):
            self.metrics.record(
                wall, result.cycles, result.ok, deployment=deployment.describe()
            )
            responses.append(
                InferenceResponse(
                    request_id=request.request_id,
                    deployment=deployment,
                    ok=result.ok,
                    output=result.output,
                    cycles=result.cycles,
                    sim_seconds=result.seconds,
                    wall_seconds=wall,
                    cache_hit=cache_hit,
                    worker_id=executed.worker.worker_id,
                    batch_id=batch.batch_id,
                )
            )
            cache_hit = True  # later requests of the batch reuse the bundle
        self.metrics.batches += 1
        return responses

    def run_pending(self) -> list[InferenceResponse]:
        """Drain the queue fairly; returns responses in dispatch order."""
        began = time.perf_counter()
        responses: list[InferenceResponse] = []
        while (batch := self.scheduler.next_batch()) is not None:
            responses.extend(self._serve_batch(batch))
        self.metrics.elapsed_seconds += time.perf_counter() - began
        self.metrics.workers_created = self.pool.created
        self.metrics.workers_reused = self.pool.reused
        return responses
