"""Process-parallel serving workers.

The in-process :class:`~repro.serve.workers.WorkerPool` is bounded by
one Python core; this module runs one *whole worker pool per OS
process* so the numpy kernels of N requests really execute on N cores.

Spawn-safe by construction:

- worker processes are started with the ``spawn`` method (no forked
  locks, works identically on every platform and under pytest);
- nothing heavier than a :class:`FastPathRunRequest` crosses the
  process boundary — bundles travel as their deployment cache key and
  are rehydrated on the far side from the shared
  :class:`~repro.store.BundleStore` (memory → store → deterministic
  recompile, the same miss path every replica uses);
- each process starts from a copy of the cycle-profile table it was
  spawned with, records the profiles it misses locally, and owns its
  executors and bundle cache for its whole lifetime.

Each shipped batch is served by
:func:`~repro.serve.executor.execute_batch`, the executor the
in-process service uses too, so both modes resolve, synthesise,
execute and trace alike.

A worker process that dies mid-batch is detected by the dispatcher,
respawned, and the batch re-dispatched once — a second death on the
same batch raises (poison batch).  ``tests/serve/test_procpool.py``
kills workers on purpose to pin this down.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.baremetal.pipeline import bundle_cache_key
from repro.core.fastpath import ProfileTable
from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.serve.executor import execute_batch
from repro.serve.request import DeploymentSpec

_SPAWN = multiprocessing.get_context("spawn")


class WorkerProcessDied(ReproError):
    """Internal signal: the worker process exited before replying."""


@dataclass(frozen=True)
class FastPathRunRequest:
    """Spawn-safe description of one inference run.

    No bundle crosses the process boundary: ``bundle_key`` (see
    :func:`repro.baremetal.pipeline.bundle_cache_key`) is checked
    against ``deployment`` on arrival, and the worker rehydrates the
    bundle from the shared store or recompiles it deterministically.
    A missing ``input_image`` is drawn from
    ``request_rng(input_seed, request_id)`` in the worker.
    """

    request_id: int
    deployment: DeploymentSpec
    bundle_key: tuple | None = None
    input_image: np.ndarray | None = None
    input_seed: int | None = None  # the serving plane's input seed
    # Tracing context (trace_id, parent span_id) from Tracer.context():
    # the worker process parents its spans under the plane's request
    # span so the trace stitches across the process boundary.
    trace_ctx: tuple[str, str] | None = None


@dataclass(frozen=True)
class FastPathRunResult:
    """Picklable outcome of one :class:`FastPathRunRequest`."""

    request_id: int
    ok: bool
    output: np.ndarray | None
    cycles: int
    sim_seconds: float
    wall_seconds: float  # host time of the worker call that served it
    busy_seconds: float  # its share of busy time (repro.serve.executor)
    worker_id: int = 0  # in-process worker id within its process
    # Finished span dicts the worker process recorded for the whole
    # batch ride on its last result (empty when tracing is off); the
    # plane ingests them.
    spans: tuple = ()


# ----------------------------------------------------------------------
# Code that runs inside the worker process.
# ----------------------------------------------------------------------


def _serve_span(tracer: Tracer, request: FastPathRunRequest):
    """``worker.serve``, parented under the plane's request span: the
    shipped (trace_id, span_id) is all the context stitching needs."""
    if tracer.enabled and request.trace_ctx is not None:
        trace_id, parent_id = request.trace_ctx
        return tracer.start(
            "worker.serve", trace_id=trace_id, parent=parent_id,
            request_id=request.request_id, model=request.deployment.model,
        )
    return tracer.start("worker.serve", request_id=request.request_id)


def _execute_shipped(
    cache, pool, batch_id: int, requests: list[FastPathRunRequest], tracer: Tracer
) -> list[FastPathRunResult]:
    """Check a shipped batch's wire form, then run it through the executor."""
    if not requests:
        return []
    deployment, input_seed = requests[0].deployment, requests[0].input_seed
    expected = bundle_cache_key(deployment.model, deployment.config, deployment.precision)
    for request in requests:
        if (request.deployment, request.input_seed) != (deployment, input_seed):
            raise ReproError(
                f"request {request.request_id}: one shipped batch serves one "
                f"deployment with one input seed"
            )
        if request.bundle_key is not None and tuple(request.bundle_key) != expected:
            raise ReproError(
                f"request {request.request_id}: shipped bundle key "
                f"{request.bundle_key!r} does not name this deployment "
                f"(expected {expected!r})"
            )
    executed = execute_batch(
        cache, pool, deployment, requests, input_seed, batch_id,
        lambda request: _serve_span(tracer, request), tracer,
    )
    results = [
        FastPathRunResult(
            request_id=request.request_id,
            ok=run.result.ok,
            output=run.result.output,
            cycles=run.result.cycles,
            sim_seconds=run.result.seconds,
            wall_seconds=run.wall_seconds,
            busy_seconds=run.busy_seconds,
            worker_id=executed.worker.worker_id,
        )
        for request, run in zip(requests, executed.runs)
    ]
    if tracer.enabled:
        results[-1] = replace(results[-1], spans=tuple(tracer.drain()))
    return results


def _worker_main(
    worker_id: int,
    store_root: str | None,
    profiles: ProfileTable | None,
    inbox,
    outbox,
    trace_enabled: bool = False,
) -> None:
    """Entry point of one worker process (top level: spawn-picklable)."""
    from repro.serve.cache import BundleCache
    from repro.serve.workers import WorkerPool
    from repro.store import BundleStore

    store = BundleStore(store_root) if store_root is not None else None
    cache = BundleCache(store=store)
    pool = WorkerPool(calibration=profiles)
    tracer = Tracer(enabled=trace_enabled, process=worker_id)
    outbox.put(("ready", worker_id, None))
    while True:
        message = inbox.get()
        if message is None:
            return
        dispatch, batch_id, requests = message
        created, reused = pool.created, pool.reused
        try:
            results = _execute_shipped(cache, pool, batch_id, requests, tracer)
        except Exception as exc:  # ship the failure, keep serving
            tracer.drain()  # half-built spans of a failed batch
            outbox.put(("error", dispatch, f"{type(exc).__name__}: {exc}"))
        else:
            # The batch's worker-pool activity rides along with its results.
            outbox.put(
                ("done", dispatch, (results, pool.created - created, pool.reused - reused))
            )


# ----------------------------------------------------------------------
# Parent-side pool.
# ----------------------------------------------------------------------


@dataclass
class ProcessStats:
    """Parent-side accounting for one worker process slot."""

    runs: int = 0
    busy_seconds: float = 0.0  # each worker call once
    batches: int = 0
    restarts: int = 0
    # The process's WorkerPool.created / .reused, summed over its lives.
    workers_created: int = 0
    workers_reused: int = 0

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "busy_seconds": self.busy_seconds,
            "batches": self.batches,
            "restarts": self.restarts,
            "workers_created": self.workers_created,
            "workers_reused": self.workers_reused,
        }


class _WorkerHandle:
    """One worker process plus its private message queues."""

    def __init__(self, pool: "ProcessWorkerPool", slot: int) -> None:
        self.pool = pool
        self.slot = slot
        self.process = None
        self.inbox = None
        self.outbox = None
        self.stats = ProcessStats()

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def spawn(self) -> None:
        """Fresh queues + process; stale pre-crash messages cannot leak."""
        self.inbox = _SPAWN.Queue()
        self.outbox = _SPAWN.Queue()
        self.process = _SPAWN.Process(
            target=_worker_main,
            args=(
                self.slot,
                self.pool.store_root,
                self.pool.profiles,
                self.inbox,
                self.outbox,
                self.pool.trace_enabled,
            ),
            daemon=True,
        )
        self.process.start()

    def wait_ready(self, timeout_s: float) -> None:
        reply = self._next_reply(timeout_s)
        if reply[0] != "ready":  # pragma: no cover - protocol violation
            raise ReproError(f"worker {self.slot} sent {reply[0]!r} before ready")

    def _next_reply(self, timeout_s: float | None):
        """Next message from this worker, or raise WorkerProcessDied."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            try:
                return self.outbox.get(timeout=0.2)
            except queue_module.Empty:
                if not self.alive():
                    raise WorkerProcessDied(
                        f"worker process {self.slot} exited "
                        f"(exitcode {self.process.exitcode})"
                    ) from None
                if deadline is not None and time.monotonic() > deadline:
                    self.terminate()
                    raise ReproError(
                        f"worker process {self.slot} hung past "
                        f"{timeout_s:.0f} s; killed"
                    ) from None

    def terminate(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)

    def stop(self, timeout_s: float = 10.0) -> None:
        if self.process is None:
            return
        if self.process.is_alive():
            try:
                self.inbox.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
            self.process.join(timeout=timeout_s)
        self.terminate()
        for q in (self.inbox, self.outbox):
            if q is not None:
                q.close()
                q.cancel_join_thread()


class ProcessWorkerPool:
    """A fixed set of worker processes, one serving pool each.

    The parent dispatches whole batches: ``run_batch(handle, requests)``
    blocks until that worker finishes, so callers drive parallelism by
    dispatching to several handles concurrently (the asyncio plane
    keeps a free-handle queue).  Bundles are shipped by cache key and
    rehydrated from ``store_root`` inside each process.
    """

    def __init__(
        self,
        processes: int = 2,
        store_root: str | Path | None = None,
        calibration: ProfileTable | None = None,
        start_timeout_s: float = 120.0,
        batch_timeout_s: float | None = None,
        trace_enabled: bool = False,
    ) -> None:
        if processes <= 0:
            raise ReproError("pool needs at least one worker process")
        self.processes = processes
        self.store_root = str(store_root) if store_root is not None else None
        # Pickled into each worker at spawn, so a respawned worker
        # starts from every profile the parent has recorded since.
        self.profiles = calibration
        self.start_timeout_s = start_timeout_s
        self.batch_timeout_s = batch_timeout_s
        self.trace_enabled = trace_enabled
        self.handles: list[_WorkerHandle] = []
        self.restarts = 0
        # Numbers every dispatch (a re-dispatch too) so a reply can be
        # matched to it; spans carry the caller's batch id instead.
        self._next_dispatch = 0
        self._started = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn every worker (concurrently) and wait for readiness."""
        if self._started:
            return
        self.handles = [_WorkerHandle(self, slot) for slot in range(self.processes)]
        for handle in self.handles:
            handle.spawn()
        for handle in self.handles:
            handle.wait_ready(self.start_timeout_s)
        self._started = True

    def close(self) -> None:
        for handle in self.handles:
            handle.stop()
        self.handles = []
        self._started = False

    def __enter__(self) -> "ProcessWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------

    def _restart(self, handle: _WorkerHandle) -> None:
        handle.terminate()
        handle.spawn()
        handle.wait_ready(self.start_timeout_s)
        handle.stats.restarts += 1
        self.restarts += 1

    def run_batch(
        self,
        handle: _WorkerHandle,
        requests: list[FastPathRunRequest],
        batch_id: int = 0,
        timeout_s: float | None = None,
    ) -> list[FastPathRunResult]:
        """Execute one batch on one worker process (blocking).

        ``batch_id`` is the caller's (the scheduler's) batch number;
        the worker labels the batch's spans with it.  A dead worker is
        respawned and the batch re-dispatched once; thread-safe per
        handle (the plane dedicates one dispatch slot per handle).
        """
        self.start()
        if timeout_s is None:
            timeout_s = self.batch_timeout_s
        last_death: WorkerProcessDied | None = None
        for _attempt in range(2):
            if not handle.alive():
                self._restart(handle)
            dispatch = self._next_dispatch
            self._next_dispatch += 1
            try:
                handle.inbox.put((dispatch, batch_id, list(requests)))
                while True:
                    reply = handle._next_reply(timeout_s)
                    kind, got_dispatch, payload = reply
                    if kind == "ready" or got_dispatch != dispatch:
                        continue  # stale chatter from a pre-crash life
                    if kind == "error":
                        raise ReproError(
                            f"worker process {handle.slot} failed a batch: {payload}"
                        )
                    results, created, reused = payload
                    handle.stats.batches += 1
                    handle.stats.runs += len(results)
                    handle.stats.busy_seconds += sum(r.busy_seconds for r in results)
                    handle.stats.workers_created += created
                    handle.stats.workers_reused += reused
                    return results
            except WorkerProcessDied as died:
                last_death = died
        raise ReproError(
            f"worker process {handle.slot} died twice running one batch "
            f"(poison batch?): {last_death}"
        )

    # -- reporting -----------------------------------------------------

    def stats(self) -> dict[int, ProcessStats]:
        return {handle.slot: handle.stats for handle in self.handles}
