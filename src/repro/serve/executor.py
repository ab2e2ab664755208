"""The one batch executor behind both serving modes.

:class:`~repro.serve.service.InferenceService` (in process) and each
worker process of the :class:`~repro.serve.plane.ServingPlane` serve
their batches with :func:`execute_batch`: the bundle is resolved once
per batch (:meth:`~repro.serve.cache.BundleCache.resolve` names its
source), missing inputs are drawn from
:func:`~repro.serve.request.request_rng` ``(input_seed, request_id)``,
and each request runs on the pool's worker.  The spans are the same in
both modes: a ``batch`` trace holding ``bundle.resolve``, and below each
request's serving span ``input.synthesize`` then ``execute`` with its
``unit.*`` children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.soc import SocRunResult
from repro.errors import ReproError
from repro.obs.trace import NULL_TRACER, Span, Tracer, record_unit_spans
from repro.serve.cache import BundleCache
from repro.serve.request import DeploymentSpec, make_input, request_rng
from repro.serve.workers import FastPathWorker, SocWorker, WorkerPool


@dataclass
class ExecutedBatch:
    """What one batch produced."""

    source: str  # how the bundle was resolved: memory | store | compile
    worker: SocWorker | FastPathWorker
    # Per request, in order: the run's result and the host seconds
    # spent inside worker.run.
    runs: list[tuple[SocRunResult, float]]


def execute_batch(
    cache: BundleCache,
    pool: WorkerPool,
    deployment: DeploymentSpec,
    requests: Sequence,
    input_seed: int | None,
    batch_id: int,
    serve_span: Callable[[object], Span],
    tracer: Tracer = NULL_TRACER,
) -> ExecutedBatch:
    """Serve ``requests`` (each with ``request_id`` and ``input_image``,
    ``None`` asking for a synthesised input) of one deployment.

    ``serve_span(request)`` opens the caller's span for one request;
    this function records that request's spans under it and closes it.
    """
    batch_span = tracer.start(
        "batch", trace_id=f"batch-{batch_id}", batch_id=batch_id,
        size=len(requests), deployment=deployment.describe(),
    )
    resolve_span = tracer.start("bundle.resolve", parent=batch_span)
    bundle, source = cache.resolve(deployment)
    tracer.end(resolve_span, source=source)
    worker = pool.worker_for(deployment)
    runs: list[tuple[SocRunResult, float]] = []
    for request in requests:
        span = serve_span(request)
        image = request.input_image
        if image is None:
            if input_seed is None:
                raise ReproError(
                    f"request {request.request_id} has neither an input image "
                    f"nor an input seed"
                )
            with tracer.span("input.synthesize", parent=span):
                image = make_input(
                    bundle.loadable.input_tensor.shape,
                    request_rng(input_seed, request.request_id),
                )
        execute_span = tracer.start("execute", parent=span,
                                    mode=deployment.execution_mode)
        began = time.perf_counter()
        result = worker.run(bundle, input_image=image)
        wall = time.perf_counter() - began
        worker.stats.busy_seconds += wall
        if tracer.enabled:
            tracer.end(execute_span, cycles=result.cycles,
                       sim_seconds=result.seconds, worker_id=worker.worker_id)
            record_unit_spans(tracer, execute_span,
                              getattr(result, "op_records", ()), result.cycles)
            tracer.end(span, ok=result.ok, cycles=result.cycles)
        runs.append((result, wall))
    tracer.end(batch_span)
    return ExecutedBatch(source, worker, runs)
