"""Observability overhead and round-trip gates.

Two acceptance criteria for the `repro.obs` spine:

- **disabled cost < 2 %** — every instrumentation site in the serving
  path guards on ``tracer.enabled`` or calls a ``NULL_TRACER`` method
  that early-returns.  The uninstrumented code no longer exists to A/B
  against, so the gate bounds the cost directly: time the exact
  disabled call sequence a request executes (hot loop, many
  iterations), compare against the measured per-request wall time of
  the fast-tier service, and assert the ratio stays under 2 %.  The
  enabled-tracing run is also measured and reported (informative — the
  criterion is about the *off* switch).
- **cross-process round trip** — a 2-process `ServingPlane` with
  tracing on must reconstruct every request as a *single* span tree:
  the worker-side spans ship back on `FastPathRunResult.spans`, parent
  links resolve across the pickle boundary, no orphans.  The Chrome
  trace-event export must be structurally valid (every event carries
  the required keys; both worker pids appear).

Run under pytest or as a script for the CI artifact::

    python benchmarks/bench_obs.py --smoke --out obs_metrics.json
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import calibrate
from repro.nvdla import NV_SMALL
from repro.nvdla.config import Precision
from repro.obs import NULL_TRACER, Tracer, build_trees, to_chrome_trace
from repro.serve import (
    BundleCache,
    DeploymentSpec,
    InferenceService,
    ServingPlane,
    make_input_for,
)
from repro.nn.zoo import ZOO

WORKLOAD_SEED = 2025

#: Tracer touch points one request pays on the disabled path, counted
#: on the costliest route, a one-request batch served by a worker
#: process of the plane.  serve/executor.py: batch start, resolve start
#: and end, batch end (4 per batch); the serving-span opener call and
#: its start, the synth scope, the execute start and the enabled guard
#: (5 per request).  serve/procpool.py: the `_serve_span` hop and its
#: guard (2 per request), the span-drain guard (1 per batch).
#: serve/plane.py: the intake, wire-request, response and queue-span
#: guards (4).  16 in all; the in-process service pays 9 of them.
DISABLED_CALLS_PER_REQUEST = 16


def _fast_workload(models=("lenet5", "resnet18"), requests=32):
    rng = np.random.default_rng(WORKLOAD_SEED)
    deployments = [
        DeploymentSpec(model, execution_mode="fast") for model in models
    ]
    nets = {model: ZOO[model]() for model in models}
    return [
        (deployments[i % len(deployments)],
         make_input_for(nets[deployments[i % len(deployments)].model], rng))
        for i in range(requests)
    ]


def _serve_all(service, workload):
    for deployment, image in workload:
        service.request(deployment, image)
    responses = service.run_pending()
    assert all(r.ok for r in responses)
    return responses


def measure_disabled_call_cost(iterations: int = 200_000) -> float:
    """Seconds per disabled-tracer touch point (start/end/span/guard)."""
    tracer = NULL_TRACER
    span = tracer.start("x")  # NULL_SPAN
    # One loop iteration ≈ one instrumentation site: a start (returns
    # the null span), an end (early-returns), a context-manager scope,
    # and the enabled-guard read the `if tracer.enabled:` sites pay.
    began = time.perf_counter()
    for _ in range(iterations):
        s = tracer.start("request", trace_id="req-0", request_id=0)
        tracer.end(s, ok=True)
        with tracer.span("input.synthesize", parent=s):
            pass
        if tracer.enabled:  # pragma: no cover - disabled by construction
            pass
    elapsed = time.perf_counter() - began
    # 4 touch points per iteration (start, end, scope, guard).
    return elapsed / (iterations * 4)


def run_disabled_overhead(requests: int = 64) -> dict:
    """The < 2 % gate: bound the disabled instrumentation cost against
    the measured per-request wall of the warm fast-tier service."""
    models = ("lenet5", "resnet18")
    cache = BundleCache()
    table = calibrate(models, NV_SMALL, cache=cache)
    workload = _fast_workload(models, requests)

    def build(tracer):
        service = InferenceService(
            cache=cache, max_batch_size=8, calibration=table, tracer=tracer
        )
        _serve_all(service, workload[: len(models)])  # warm bundles+workers
        return service

    # Disabled (the default every caller gets): measured request wall.
    disabled = build(NULL_TRACER)
    began = time.perf_counter()
    _serve_all(disabled, workload)
    disabled_seconds = time.perf_counter() - began

    # Enabled, same warm workload — informative comparison.
    enabled_tracer = Tracer(enabled=True, process=-1)
    enabled = build(enabled_tracer)
    began = time.perf_counter()
    _serve_all(enabled, workload)
    enabled_seconds = time.perf_counter() - began

    call_cost_s = measure_disabled_call_cost()
    per_request_wall = disabled_seconds / requests
    overhead_fraction = (
        call_cost_s * DISABLED_CALLS_PER_REQUEST / per_request_wall
    )
    return {
        "requests": requests,
        "disabled_rps": requests / disabled_seconds,
        "enabled_rps": requests / enabled_seconds,
        "enabled_slowdown": enabled_seconds / disabled_seconds,
        "disabled_call_ns": call_cost_s * 1e9,
        "disabled_calls_per_request": DISABLED_CALLS_PER_REQUEST,
        "per_request_wall_us": per_request_wall * 1e6,
        "disabled_overhead_fraction": overhead_fraction,
        "enabled_spans": len(enabled_tracer.finished),
    }


def run_trace_roundtrip(processes: int = 2, requests: int = 12) -> dict:
    """Cross-process stitching on the plane: every request one tree."""
    models = ("lenet5", "resnet18")
    cache = BundleCache()
    table = calibrate(models, NV_SMALL, cache=cache)
    workload = [
        (replace(d, execution_mode="fast"), image)
        for d, image in _fast_workload(models, requests)
    ]
    unique = list(dict.fromkeys(d for d, _ in workload))

    tracer = Tracer(enabled=True, process=-1)
    plane = ServingPlane(
        processes=processes,
        max_batch_size=4,
        calibration=table,
        cache=cache,
        tracer=tracer,
    )
    with plane:
        plane.warm(unique)
        responses = plane.serve(
            [plane.request(d, image) for d, image in workload]
        )
    assert all(r.ok for r in responses)

    spans = tracer.finished
    trees = build_trees(spans)
    request_trees = [t for t in trees if t.trace_id.startswith("req-")]
    chrome = to_chrome_trace(spans)
    event_keys = {"name", "ph", "ts", "dur", "pid", "tid", "args"}
    complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    valid_events = all(event_keys <= set(e) for e in complete)
    # json round trip: the export must be plain serialisable data.
    json.loads(json.dumps(chrome))
    return {
        "processes": processes,
        "requests": requests,
        "spans": len(spans),
        "request_trees": len(request_trees),
        "single_rooted": all(len(t.roots) == 1 for t in request_trees),
        "orphans": sum(len(t.orphans) for t in trees),
        "processes_seen": sorted({s["process"] for s in spans}),
        "chrome_events": len(complete),
        "chrome_valid": valid_events,
    }


# ----------------------------------------------------------------------
# Asserted benchmarks (pytest).
# ----------------------------------------------------------------------


def test_disabled_tracing_under_two_percent(benchmark, report):
    from benchmarks.conftest import single_shot

    result = single_shot(benchmark, run_disabled_overhead)
    report(
        "observability overhead — fast tier, lenet5+resnet18 on nv_small\n"
        f"  tracing off: {result['disabled_rps']:.1f} req/s "
        f"({result['per_request_wall_us']:.0f} us/request)\n"
        f"  tracing on:  {result['enabled_rps']:.1f} req/s "
        f"({result['enabled_slowdown']:.2f}x, "
        f"{result['enabled_spans']} spans)\n"
        f"  disabled guard cost: {result['disabled_call_ns']:.0f} ns/site x "
        f"{result['disabled_calls_per_request']} sites/request = "
        f"{result['disabled_overhead_fraction'] * 100:.4f}% of request wall"
    )
    # The tentpole gate: tracing disabled costs < 2 % of throughput.
    assert result["disabled_overhead_fraction"] < 0.02, (
        f"disabled instrumentation costs "
        f"{result['disabled_overhead_fraction'] * 100:.2f}% per request"
    )
    # The enabled path produced spans (it measured something real).
    assert result["enabled_spans"] > 0


def test_cross_process_trace_roundtrip(benchmark, report):
    from benchmarks.conftest import single_shot

    result = single_shot(benchmark, run_trace_roundtrip)
    report(
        "cross-process trace round trip — 2-process plane, fast tier\n"
        f"  {result['requests']} requests → {result['spans']} spans, "
        f"{result['request_trees']} request trees, "
        f"{result['orphans']} orphans\n"
        f"  processes seen: {result['processes_seen']}  "
        f"chrome events: {result['chrome_events']}"
    )
    # Every request reconstructs as exactly one tree; parents resolve.
    assert result["request_trees"] == result["requests"]
    assert result["single_rooted"]
    assert result["orphans"] == 0
    # Spans were recorded on the plane (-1) AND in every worker.
    assert result["processes_seen"] == [-1] + list(range(result["processes"]))
    assert result["chrome_valid"] and result["chrome_events"] == result["spans"]


# ----------------------------------------------------------------------
# Script entry point (CI artifact).
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    import argparse

    from repro.obs import bench_envelope

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced run (fewer requests) for CI",
    )
    parser.add_argument("--out", default=None, help="write metrics JSON here")
    args = parser.parse_args(argv)

    requests = 16 if args.smoke else 64
    overhead = run_disabled_overhead(requests=requests)
    roundtrip = run_trace_roundtrip(requests=8 if args.smoke else 12)
    print(
        f"tracing off {overhead['disabled_rps']:.1f} req/s, "
        f"on {overhead['enabled_rps']:.1f} req/s "
        f"({overhead['enabled_slowdown']:.2f}x); disabled overhead "
        f"{overhead['disabled_overhead_fraction'] * 100:.4f}%"
    )
    print(
        f"round trip: {roundtrip['request_trees']}/{roundtrip['requests']} "
        f"request trees, {roundtrip['orphans']} orphans, "
        f"processes {roundtrip['processes_seen']}"
    )
    gate_ok = (
        overhead["disabled_overhead_fraction"] < 0.02
        and roundtrip["request_trees"] == roundtrip["requests"]
        and roundtrip["single_rooted"]
        and roundtrip["orphans"] == 0
        and roundtrip["chrome_valid"]
    )
    print("gates: " + ("PASS" if gate_ok else "FAIL"))
    if args.out:
        payload = bench_envelope(
            "bench_obs.overhead_and_roundtrip",
            {
                "smoke": args.smoke,
                "requests": requests,
                "workload_seed": WORKLOAD_SEED,
            },
            {"overhead": overhead, "roundtrip": roundtrip},
        )
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"metrics written to {args.out}")
    return 0 if gate_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
