"""The one batch executor behind both serving modes.

:class:`~repro.serve.service.InferenceService` (in process) and each
worker process of the :class:`~repro.serve.plane.ServingPlane` serve
their batches with :func:`execute_batch`: the bundle is resolved once
per batch (:meth:`~repro.serve.cache.BundleCache.resolve` names its
source), missing inputs are drawn from
:func:`~repro.serve.request.request_rng` ``(input_seed, request_id)``,
and the batch runs on the pool's worker — on the fast tier as one call
for the whole batch (every kernel launch runs once for all requests,
each on its own DRAM image), on the cycle-accurate tier one SoC run per
request.  The spans are the same in both modes: a ``batch`` trace
holding ``bundle.resolve``, and below each request's serving span
``input.synthesize`` then ``execute`` with its ``unit.*`` children; on
the fast tier every request's ``execute`` span brackets the shared call.

What the host seconds mean: a request's ``wall_seconds`` is the wall
time of the worker call that produced its output — on the fast tier
the whole batch's shared call, so it is the request's execution
latency, not its share of the work.  Busy time counts each worker call
once: ``WorkerStats.busy_seconds`` adds every call, and
:attr:`ExecutedBatch.runs` charges a shared call to the batch's first
request and ``0.0`` to the others, so the totals built from
per-request shares (``serve.busy.seconds``,
``ProcessStats.busy_seconds``) equal the worker's busy time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.core.soc import SocRunResult
from repro.errors import ReproError
from repro.obs.trace import NULL_TRACER, Span, Tracer, record_unit_spans
from repro.serve.cache import BundleCache
from repro.serve.request import DeploymentSpec, make_input, request_rng
from repro.serve.workers import FastPathWorker, SocWorker, WorkerPool


@dataclass(frozen=True)
class RequestRun:
    """One request's outcome inside a batch."""

    result: SocRunResult
    wall_seconds: float  # host time of the worker call that served it
    busy_seconds: float  # its share of the worker's busy time (see module doc)


@dataclass
class ExecutedBatch:
    """What one batch produced."""

    source: str  # how the bundle was resolved: memory | store | compile
    worker: SocWorker | FastPathWorker
    runs: list[RequestRun]  # per request, in order


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
    spans, images = [], []
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
        spans.append(span)
        images.append(image)

    def begin(span):
        return tracer.start("execute", parent=span, mode=deployment.execution_mode)

    def finish(span, execute_span, result: SocRunResult) -> None:
        if tracer.enabled:
            tracer.end(execute_span, cycles=result.cycles,
                       sim_seconds=result.seconds, worker_id=worker.worker_id)
            record_unit_spans(tracer, execute_span,
                              getattr(result, "op_records", ()), result.cycles)
            tracer.end(span, ok=result.ok, cycles=result.cycles)

    runs: list[RequestRun] = []
    if isinstance(worker, FastPathWorker):
        # One call serves the batch; every request's execute span brackets it.
        execute_spans = [begin(span) for span in spans]
        began = time.perf_counter()
        batch = worker.run(bundle, input_image=np.stack(images))
        wall = time.perf_counter() - began
        worker.stats.busy_seconds += wall
        for index, (span, execute_span, output) in enumerate(
            zip(spans, execute_spans, batch.output)
        ):
            result = replace(batch, output=output)
            finish(span, execute_span, result)
            runs.append(RequestRun(result, wall, wall if index == 0 else 0.0))
    else:
        for span, image in zip(spans, images):
            execute_span = begin(span)
            began = time.perf_counter()
            result = worker.run(bundle, input_image=image)
            wall = time.perf_counter() - began
            worker.stats.busy_seconds += wall
            finish(span, execute_span, result)
            runs.append(RequestRun(result, wall, wall))
    tracer.end(batch_span)
    return ExecutedBatch(source, worker, runs)
