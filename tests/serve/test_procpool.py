"""ProcessWorkerPool: spawn-safe dispatch, store rehydration, crash
recovery.  These tests start real worker processes (spawn), so they
share one module-scoped store with lenet5 prepublished — workers warm
up by fetching, not recompiling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.serve import BundleCache, DeploymentSpec
from repro.serve.procpool import FastPathRunRequest, ProcessWorkerPool
from repro.store import BundleStore


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("procpool-store")
    cache = BundleCache(store=BundleStore(root))
    cache.bundle_for("lenet5", "nv_small")  # publish for the workers
    return root


def _run_request(request_id: int) -> FastPathRunRequest:
    return FastPathRunRequest(
        request_id=request_id, deployment=DeploymentSpec("lenet5"), input_seed=7
    )


def test_batches_execute_and_replay_bit_identical(store_root):
    """One worker process serves batches rehydrated from the store;
    re-running the same requests reproduces outputs exactly."""
    with ProcessWorkerPool(processes=1, store_root=store_root) as pool:
        handle = pool.handles[0]
        first = pool.run_batch(handle, [_run_request(0), _run_request(1)])
        again = pool.run_batch(handle, [_run_request(0), _run_request(1)])
    assert [r.request_id for r in first] == [0, 1]
    assert all(r.ok for r in first)
    for a, b in zip(first, again):
        assert np.array_equal(a.output, b.output)
        assert a.cycles == b.cycles
    assert handle.stats.batches == 2 and handle.stats.runs == 4
    assert handle.stats.busy_seconds > 0


def test_dead_worker_respawns_and_batch_retries(store_root):
    with ProcessWorkerPool(processes=1, store_root=store_root) as pool:
        handle = pool.handles[0]
        before = pool.run_batch(handle, [_run_request(0)])
        handle.process.kill()
        handle.process.join(timeout=10)
        after = pool.run_batch(handle, [_run_request(0)])
        assert np.array_equal(before[0].output, after[0].output)
        assert handle.stats.restarts == 1 and pool.restarts == 1
        assert handle.alive()


def test_worker_side_failure_reports_without_killing_worker(store_root):
    with ProcessWorkerPool(processes=1, store_root=store_root) as pool:
        handle = pool.handles[0]
        bad = FastPathRunRequest(
            request_id=0, deployment=DeploymentSpec("not-a-model")
        )
        with pytest.raises(ReproError, match="failed a batch"):
            pool.run_batch(handle, [bad])
        # The process survived the failure and keeps serving.
        assert handle.alive() and handle.stats.restarts == 0
        assert pool.run_batch(handle, [_run_request(1)])[0].ok


def test_shipped_bundle_key_is_checked(store_root):
    with ProcessWorkerPool(processes=1, store_root=store_root) as pool:
        handle = pool.handles[0]
        forged = FastPathRunRequest(
            request_id=0,
            deployment=DeploymentSpec("lenet5"),
            bundle_key=("bogus",),
            input_seed=7,
        )
        with pytest.raises(ReproError, match="does not name this deployment"):
            pool.run_batch(handle, [forged])


def test_pool_rejects_bad_process_count():
    with pytest.raises(ReproError):
        ProcessWorkerPool(processes=0)
