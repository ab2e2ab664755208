"""End-to-end tracing through the serving layers.

Single-process: every request becomes one single-rooted tree with
execute + per-unit attribution; bundle resolution is classified
compile/store/memory.  Cross-process: the 2-process plane's worker
spans ship back over the pickle boundary and stitch under the plane's
roots with no orphans — the tentpole acceptance criterion.
"""

from __future__ import annotations

import pytest

from repro.obs import Tracer, build_trees, to_chrome_trace
from repro.serve import (
    BundleCache,
    DeploymentSpec,
    InferenceService,
    ServingPlane,
)
from repro.serve.procpool import FastPathRunRequest
from repro.store import BundleStore

LENET = DeploymentSpec("lenet5")


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """Store-backed cache shared by the module: compile once, and give
    the plane's workers a store to rehydrate from."""
    cache = BundleCache(store=BundleStore(tmp_path_factory.mktemp("trace-store")))
    cache.bundle_for("lenet5", "nv_small")
    return cache


def _request_trees(spans):
    return [t for t in build_trees(spans) if t.trace_id.startswith("req-")]


def test_service_traces_every_request_as_one_tree(cache):
    tracer = Tracer(enabled=True, process=-1)
    service = InferenceService(cache=cache, max_batch_size=2, tracer=tracer)
    for _ in range(3):
        service.request(LENET)
    responses = service.run_pending()
    assert all(r.ok for r in responses)

    trees = _request_trees(tracer.finished)
    assert len(trees) == 3
    for tree in trees:
        assert len(tree.roots) == 1 and tree.orphans == []
        names = [node.name for _, node in tree.roots[0].walk()]
        assert names[0] == "request"
        assert "execute" in names
        assert any(name.startswith("unit.") for name in names)
    # The execute span carries the simulated-cycle annotation, and the
    # request root records the request's identity.
    root = trees[0].roots[0]
    assert root.span["attrs"]["request_id"] == int(
        trees[0].trace_id.removeprefix("req-"))
    execute = next(n for _, n in root.walk() if n.name == "execute")
    assert execute.span["attrs"]["cycles"] > 0
    # Unit spans nest inside the execute window, cycle sums attributed.
    units = [n for _, n in root.walk() if n.name.startswith("unit.")]
    for unit in units:
        assert unit.span["start_s"] >= execute.span["start_s"]
        assert unit.span["end_s"] <= execute.span["end_s"] + 1e-9
        assert unit.span["attrs"]["cycles"] > 0


def test_batch_spans_classify_bundle_resolution(tmp_path):
    # Fresh cache + store: first batch compiles, a second service over
    # the same store fetches, and a warm repeat hits memory.
    store = BundleStore(tmp_path / "store")
    tracer = Tracer(enabled=True, process=-1)
    service = InferenceService(
        cache=BundleCache(store=store), max_batch_size=4, tracer=tracer)
    service.request(LENET)
    service.run_pending()
    service.request(LENET)
    service.run_pending()

    second = Tracer(enabled=True, process=-1)
    fetcher = InferenceService(
        cache=BundleCache(store=store), max_batch_size=4, tracer=second)
    fetcher.request(LENET)
    fetcher.run_pending()

    def sources(t):
        return [s["attrs"]["source"] for s in t.finished
                if s["name"] == "bundle.resolve"]

    assert sources(tracer) == ["compile", "memory"]
    assert sources(second) == ["store"]


def test_batch_trace_links_requests_by_attr(cache):
    tracer = Tracer(enabled=True, process=-1)
    service = InferenceService(cache=cache, max_batch_size=8, tracer=tracer)
    for _ in range(2):
        service.request(LENET)
    service.run_pending()
    batches = [t for t in build_trees(tracer.finished)
               if t.trace_id.startswith("batch-")]
    assert len(batches) == 1
    (batch,) = batches
    assert batch.roots[0].span["attrs"]["size"] == 2
    batch_id = batch.roots[0].span["attrs"]["batch_id"]
    for tree in _request_trees(tracer.finished):
        assert tree.roots[0].span["attrs"]["batch_id"] == batch_id


def test_default_service_records_nothing(cache):
    service = InferenceService(cache=cache)
    service.request(LENET)
    assert all(r.ok for r in service.run_pending())
    assert len(service.tracer) == 0  # NULL_TRACER by default


def test_service_metrics_histograms_record_requests(cache):
    service = InferenceService(cache=cache)
    for _ in range(3):
        service.request(LENET)
    service.run_pending()
    wall = service.metrics.registry.get("serve.request.wall.seconds")
    cycles = service.metrics.registry.get("serve.request.cycles")
    assert wall.count == 3 and cycles.count == 3
    assert cycles.min > 0


def test_two_process_plane_stitches_across_the_boundary(cache):
    workload = [LENET] * 4
    tracer = Tracer(enabled=True, process=-1)
    with ServingPlane(processes=2, cache=cache, tracer=tracer) as plane:
        responses = plane.serve([plane.request(d) for d in workload])
    assert all(r.ok for r in responses)

    spans = tracer.finished
    trees = _request_trees(spans)
    assert len(trees) == 4
    for tree in trees:
        assert len(tree.roots) == 1
        assert tree.orphans == []
        names = [node.name for _, node in tree.roots[0].walk()]
        # Plane-side intake...
        assert names[0] == "request" and "queue" in names
        # ...stitched to worker-side serving.
        assert "worker.serve" in names and "execute" in names
        worker = next(n for _, n in tree.roots[0].walk()
                      if n.name == "worker.serve")
        assert worker.span["process"] in (0, 1)
        assert tree.roots[0].span["process"] == -1
    # Worker spans crossed the boundary from both workers or at least
    # one (scheduling may pack a tiny workload onto one process), and
    # the export is Perfetto-loadable.
    worker_pids = {s["process"] for s in spans if s["name"] == "worker.serve"}
    assert worker_pids <= {0, 1} and worker_pids
    chrome = to_chrome_trace(spans)
    assert len([e for e in chrome["traceEvents"] if e["ph"] == "X"]) == len(spans)


def test_worker_batch_spans_carry_the_scheduler_batch_id(cache):
    """A worker's ``batch`` trace is labelled with the scheduler batch
    its requests' roots carry, not with the pool's dispatch count: a
    warm-up dispatched straight to the pool puts the two apart."""
    tracer = Tracer(enabled=True, process=-1)
    with ServingPlane(processes=1, max_batch_size=2, cache=cache, tracer=tracer) as plane:
        warmup = FastPathRunRequest(request_id=99, deployment=LENET, input_seed=7)
        plane.pool.run_batch(plane.pool.handles[0], [warmup])
        responses = plane.serve([plane.request(LENET) for _ in range(4)])
    assert all(r.ok for r in responses)

    served: dict[int, int] = {}
    for tree in _request_trees(tracer.finished):
        batch_id = tree.roots[0].span["attrs"]["batch_id"]
        served[batch_id] = served.get(batch_id, 0) + 1
    worker_batches = {
        s["attrs"]["batch_id"]: s["attrs"]["size"]
        for s in tracer.finished
        if s["name"] == "batch" and s["process"] == 0
    }
    assert served and worker_batches == served


def test_plane_spans_all_closed_across_deployments(cache):
    """No half-open spans survive a plane run over two deployments."""
    tracer = Tracer(enabled=True, process=-1)
    other = DeploymentSpec("lenet5", execution_mode="fast")
    with ServingPlane(processes=1, cache=cache, tracer=tracer) as plane:
        responses = plane.serve([plane.request(other), plane.request(LENET)])
    assert all(r.ok for r in responses)
    # Every recorded span is finished (end_s set) — nothing half-open.
    assert all(s["end_s"] is not None for s in tracer.finished)
    trees = build_trees(tracer.finished)
    assert sum(len(t.orphans) for t in trees) == 0


def _in_order(node):
    return sorted(node.children, key=lambda child: child.span["start_s"])


def _serving_shapes(spans, serving_name):
    """Per request trace: the serving span's child names, and the
    (name, cycles) sequence of the unit spans below its execute."""
    shapes = {}
    for tree in _request_trees(spans):
        serving = next(node for _, node in tree.roots[0].walk()
                       if node.name == serving_name)
        children = _in_order(serving)
        execute = next(child for child in children if child.name == "execute")
        units = [(unit.name, unit.span["attrs"]["cycles"])
                 for unit in _in_order(execute)]
        shapes[tree.trace_id] = ([child.name for child in children], units)
    return shapes


def _resolves_per_batch(spans):
    """The bundle.resolve children of every batch trace's root."""
    return [
        [child for child in tree.roots[0].children if child.name == "bundle.resolve"]
        for tree in build_trees(spans) if tree.trace_id.startswith("batch-")
    ]


def test_in_process_and_worker_process_span_trees_match(cache):
    """One span taxonomy for both modes: the same requests served in
    process and by a 1-process plane give the same tree below each
    request's serving span, and one bundle.resolve per batch."""
    service_tracer = Tracer(enabled=True, process=-1)
    service = InferenceService(cache=cache, tracer=service_tracer)
    for _ in range(4):
        service.request(LENET)
    assert all(r.ok for r in service.run_pending())

    plane_tracer = Tracer(enabled=True, process=-1)
    with ServingPlane(processes=1, cache=cache, tracer=plane_tracer) as plane:
        responses = plane.serve([plane.request(LENET) for _ in range(4)])
    assert all(r.ok for r in responses)

    in_process = _serving_shapes(service_tracer.finished, "request")
    in_worker = _serving_shapes(plane_tracer.finished, "worker.serve")
    assert sorted(in_process) == sorted(in_worker) == [f"req-{i}" for i in range(4)]
    for trace_id, (children, units) in in_process.items():
        assert children == ["input.synthesize", "execute"]
        assert units and all(name.startswith("unit.") for name, _ in units)
        assert in_worker[trace_id] == (children, units)

    for tracer, metrics in ((service_tracer, service.metrics),
                            (plane_tracer, plane.metrics)):
        batches = _resolves_per_batch(tracer.finished)
        assert len(batches) == metrics.batches >= 1
        for resolves in batches:
            assert len(resolves) == 1
            assert resolves[0].span["attrs"]["source"] in ("memory", "store", "compile")
