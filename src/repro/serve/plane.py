"""Process-parallel serving plane: asyncio intake over worker processes.

:class:`ServingPlane` is the multi-core sibling of the synchronous
:class:`~repro.serve.service.InferenceService`::

    requests ──► asyncio request plane ──► forming batches ──► worker
    (paced       (admits arrivals into     (sealed at          processes
    arrivals)    the open batch)           dispatch)           (1 per core)

The request plane accepts *streaming* arrivals (optionally paced by
inter-arrival gaps) and does continuous batching: a popped
under-capacity batch is held **open** — same-deployment arrivals are
admitted straight into it while the dispatcher waits for a free worker
process (plus an optional admission window) — and is sealed only at
dispatch, the admission cutoff.

Batches execute on a :class:`~repro.serve.procpool.ProcessWorkerPool`.
Bundles never cross the process boundary: the parent compiles each
deployment once, publishes it to the shared
:class:`~repro.store.BundleStore`, and ships requests carrying only the
deployment's ``bundle_cache_key`` — workers rehydrate from the store.

Each worker process serves its batches with
:func:`~repro.serve.executor.execute_batch`, the executor the
single-process service uses, so synthesised inputs (drawn from
:func:`~repro.serve.request.request_rng` ``(input_seed, request_id)``),
outputs, cycles and span shapes match it; an N-process plane is
bit-identical to the service — ``tests/serve/test_plane.py`` runs the
differential.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.baremetal.pipeline import bundle_cache_key
from repro.core.fastpath import ProfileTable
from repro.errors import ReproError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.cache import BundleCache
from repro.serve.metrics import ServiceMetrics
from repro.serve.procpool import FastPathRunRequest, FastPathRunResult, ProcessWorkerPool
from repro.serve.request import DeploymentSpec, InferenceRequest, InferenceResponse
from repro.serve.scheduler import Batch, RequestScheduler
from repro.store import BundleStore


class ServingPlane:
    """Serve batched inference across N worker processes."""

    def __init__(
        self,
        processes: int = 2,
        max_batch_size: int = 8,
        input_seed: int = 7,
        calibration: ProfileTable | None = None,
        cache: BundleCache | None = None,
        store_root: str | Path | None = None,
        admission_window_s: float = 0.0,
        batch_timeout_s: float | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if admission_window_s < 0:
            raise ReproError("admission window must be >= 0")
        self.input_seed = input_seed
        self.admission_window_s = admission_window_s
        self.scheduler = RequestScheduler(max_batch_size=max_batch_size)
        self.metrics = ServiceMetrics()
        self.tracer = tracer
        # Open per-request spans, keyed by request id: root covers
        # submit → response, queue covers submit → batch seal.
        self._root_spans: dict[int, object] = {}
        self._queue_spans: dict[int, object] = {}
        # The plane *requires* a persistent store — it is the bundle
        # transport to the worker processes.  Wire one up from, in
        # order: the caller's cache, an explicit root, a private
        # tempdir (cleaned up by close()).
        self._own_store_root: str | None = None
        self._attached_store = False
        self.cache = cache if cache is not None else BundleCache()
        if self.cache.store is None:
            if store_root is None:
                store_root = tempfile.mkdtemp(prefix="repro-plane-store-")
                self._own_store_root = store_root
            self.cache.store = BundleStore(store_root)
            self._attached_store = True
        self.pool = ProcessWorkerPool(
            processes=processes,
            store_root=self.cache.store.root,
            calibration=calibration,
            batch_timeout_s=batch_timeout_s,
            trace_enabled=tracer.enabled,
        )
        self._published: set[DeploymentSpec] = set()
        self._first_miss: set[DeploymentSpec] = set()
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker processes (idempotent; serve() calls it)."""
        self.pool.start()

    def close(self) -> None:
        self.pool.close()
        if self._attached_store:
            # The store was ours, not the caller's cache's — detach it
            # so a shared cache never points at a vanished directory.
            self.cache.store = None
            self._attached_store = False
        if self._own_store_root is not None:
            shutil.rmtree(self._own_store_root, ignore_errors=True)
            self._own_store_root = None

    def __enter__(self) -> "ServingPlane":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Intake helpers.
    # ------------------------------------------------------------------

    def request(
        self, deployment: DeploymentSpec, input_image=None
    ) -> InferenceRequest:
        """Build a request with a fresh id (NOT submitted — serve() is
        the intake; this mirrors the service's id allocation)."""
        request = InferenceRequest(self._next_request_id, deployment, input_image)
        self._next_request_id += 1
        return request

    def warm(self, deployments: list[DeploymentSpec]) -> None:
        """Compile + publish each deployment before serving starts, so
        arrival pacing is not distorted by first-touch compiles."""
        for deployment in deployments:
            self._publish(deployment)

    def _publish(self, deployment: DeploymentSpec) -> None:
        """Parent-side compile-once: make sure the deployment's bundle
        is in the store the worker processes rehydrate from."""
        if deployment in self._published:
            return
        _, source = self.cache.resolve(deployment)
        self.metrics.record_resolution(source)
        if source != "memory":
            self._first_miss.add(deployment)
        self._published.add(deployment)

    def _run_request(self, request: InferenceRequest) -> FastPathRunRequest:
        """The picklable wire form: inputs by seed, bundles by key."""
        spec = request.deployment
        trace_ctx = None
        if self.tracer.enabled:
            root = self._root_spans.get(request.request_id)
            if root is not None:
                trace_ctx = Tracer.context(root)
        return FastPathRunRequest(
            request_id=request.request_id,
            deployment=spec,
            bundle_key=bundle_cache_key(spec.model, spec.config, spec.precision),
            input_image=request.input_image,
            input_seed=self.input_seed,
            trace_ctx=trace_ctx,
        )

    def _response(
        self, batch: Batch, request: InferenceRequest, result: FastPathRunResult, slot: int
    ) -> InferenceResponse:
        deployment = batch.deployment
        cache_hit = True
        if deployment in self._first_miss:
            self._first_miss.discard(deployment)
            cache_hit = False
        self.metrics.record(
            result.wall_seconds,
            result.cycles,
            result.ok,
            deployment=deployment.describe(),
            busy_seconds=result.busy_seconds,
        )
        if self.tracer.enabled:
            self.tracer.ingest(result.spans)
            root = self._root_spans.pop(request.request_id, None)
            if root is not None:
                self.tracer.end(root, ok=result.ok, cycles=result.cycles,
                                process=slot, batch_id=batch.batch_id)
        return InferenceResponse(
            request_id=request.request_id,
            deployment=deployment,
            ok=result.ok,
            output=result.output,
            cycles=result.cycles,
            sim_seconds=result.sim_seconds,
            wall_seconds=result.wall_seconds,
            cache_hit=cache_hit,
            worker_id=result.worker_id,
            batch_id=batch.batch_id,
            notes={"process": slot},
        )

    # ------------------------------------------------------------------
    # Serving.
    # ------------------------------------------------------------------

    def serve(
        self,
        workload: list[InferenceRequest],
        gaps: list[float] | None = None,
    ) -> list[InferenceResponse]:
        """Serve a workload; returns responses ordered by request id.

        ``gaps[i]`` is the inter-arrival delay (seconds) awaited before
        request *i* is submitted — the streaming-arrival path.  With no
        gaps the whole workload arrives at once (offered-load mode).
        """
        if gaps is not None and len(gaps) != len(workload):
            raise ReproError(
                f"{len(gaps)} gaps for {len(workload)} requests"
            )
        self.start()
        began = time.perf_counter()
        responses = asyncio.run(self._serve_async(workload, gaps))
        self.metrics.elapsed_seconds += time.perf_counter() - began
        for slot, stats in self.pool.stats().items():
            self.metrics.record_process(slot, stats.to_dict())
        self.metrics.workers_created = sum(
            stats["workers_created"] for stats in self.metrics.per_process.values()
        )
        self.metrics.workers_reused = sum(
            stats["workers_reused"] for stats in self.metrics.per_process.values()
        )
        return sorted(responses, key=lambda r: r.request_id)

    async def _serve_async(
        self,
        workload: list[InferenceRequest],
        gaps: list[float] | None,
    ) -> list[InferenceResponse]:
        loop = asyncio.get_running_loop()
        free: asyncio.Queue = asyncio.Queue()
        for handle in self.pool.handles:
            free.put_nowait(handle)
        futures: dict[int, asyncio.Future] = {}
        tasks: list[asyncio.Task] = []

        async def run_batch(batch: Batch) -> None:
            # Waiting for a worker (and the optional admission window)
            # happens while the batch is still open: arrivals keep
            # joining until the seal right before dispatch.
            handle = await free.get()
            try:
                if not batch.sealed:
                    if self.admission_window_s > 0:
                        await asyncio.sleep(self.admission_window_s)
                    self.scheduler.seal(batch)
                if self.tracer.enabled:
                    for request in batch.requests:
                        queued = self._queue_spans.pop(request.request_id, None)
                        if queued is not None:
                            self.tracer.end(queued, batch_id=batch.batch_id,
                                            batch_size=len(batch.requests))
                runs = [self._run_request(r) for r in batch.requests]
                results = await loop.run_in_executor(
                    executor, self.pool.run_batch, handle, runs, batch.batch_id
                )
            except Exception as exc:
                self.scheduler.seal(batch)
                for request in batch.requests:
                    self._root_spans.pop(request.request_id, None)
                    self._queue_spans.pop(request.request_id, None)
                    future = futures[request.request_id]
                    if not future.done():
                        future.set_exception(exc)
                return
            finally:
                free.put_nowait(handle)
            for request, result in zip(batch.requests, results):
                futures[request.request_id].set_result(
                    self._response(batch, request, result, handle.slot)
                )
            self.metrics.batches += 1

        def pump() -> None:
            while (batch := self.scheduler.next_batch(keep_open=True)) is not None:
                tasks.append(asyncio.create_task(run_batch(batch)))

        with ThreadPoolExecutor(max_workers=len(self.pool.handles)) as executor:
            for index, request in enumerate(workload):
                if gaps is not None and gaps[index] > 0:
                    await asyncio.sleep(gaps[index])
                self._publish(request.deployment)
                futures[request.request_id] = loop.create_future()
                if self.tracer.enabled:
                    root = self.tracer.start(
                        "request", trace_id=f"req-{request.request_id}",
                        request_id=request.request_id,
                        deployment=request.deployment.describe(),
                    )
                    self._root_spans[request.request_id] = root
                    self._queue_spans[request.request_id] = self.tracer.start(
                        "queue", parent=root
                    )
                self.scheduler.submit(request)
                pump()
            pump()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            return [await futures[request.request_id] for request in workload]
