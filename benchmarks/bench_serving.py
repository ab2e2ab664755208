"""Serving throughput — the bundle cache against the per-request flow.

A mixed LeNet-5 + ResNet-18 workload on nv_small (INT8) and nv_full
(FP16), served two ways:

- **cold path** — every request runs the full offline flow
  (`generate_baremetal`) and builds a fresh SoC, the pre-serving
  behaviour of the repo;
- **served** — the `repro.serve` service: one flow build per
  deployment, then cache-hit replays on pooled, reused SoC workers.

Asserts the tentpole acceptance criterion: ≥ 5× throughput on repeated
same-deployment requests, with cache-hit outputs bit-identical to the
cold path.

Run as a script it measures fast-tier process scaling and merges one
row per code version into ``--out`` (rows with other labels are kept,
so two versions can be measured back to back)::

    PYTHONPATH=src python benchmarks/bench_serving.py --label change \
        --out BENCH_serving.json
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.baremetal import generate_baremetal
from repro.core import Soc, calibrate
from repro.nn.zoo import ZOO
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision
from repro.serve import (
    BundleCache,
    DeploymentSpec,
    InferenceService,
    ServingPlane,
    make_input_for,
)

WORKLOAD_SEED = 2025
#: Warm passes the cache-speedup gate takes the median of.
WARM_PASSES = 3


def _mixed_workload(models, config_name, precision, requests, rng):
    deployments = [
        DeploymentSpec(model, config=config_name, precision=precision)
        for model in models
    ]
    nets = {model: ZOO[model]() for model in models}
    return [
        (deployments[i % len(deployments)],
         make_input_for(nets[deployments[i % len(deployments)].model], rng))
        for i in range(requests)
    ]


def _run_cold(workload, config):
    """Per-request offline flow + fresh SoC; returns (seconds, outputs)."""
    outputs = []
    began = time.perf_counter()
    for deployment, image in workload:
        bundle = generate_baremetal(
            ZOO[deployment.model](),
            config,
            precision=deployment.precision,
            input_image=image,
        )
        soc = Soc(config)
        soc.load_bundle(bundle)
        result = soc.run_inference(bundle)
        assert result.ok
        outputs.append(result.output)
    return time.perf_counter() - began, outputs


def _run_served(workload, service):
    began = time.perf_counter()
    for deployment, image in workload:
        service.request(deployment, image)
    responses = service.run_pending()
    elapsed = time.perf_counter() - began
    assert all(r.ok for r in responses)
    ordered = sorted(responses, key=lambda r: r.request_id)
    return elapsed, [r.output for r in ordered], responses


def test_serving_throughput_nv_small(benchmark, report):
    from benchmarks.conftest import single_shot

    rng = np.random.default_rng(WORKLOAD_SEED)
    models = ("lenet5", "resnet18")
    # The cold path is so slow that a few requests suffice to measure
    # it; the served path gets the same mix repeated several times.
    cold_workload = _mixed_workload(models, "nv_small", Precision.INT8, 4, rng)
    warm_workload = cold_workload * 4  # 16 requests, repeated deployments

    cold_seconds, cold_outputs = _run_cold(cold_workload, NV_SMALL)
    cold_rps = len(cold_workload) / cold_seconds

    service = InferenceService(max_batch_size=8)
    # Pre-warm so the measured window is the repeated-request (cache
    # hit) regime the acceptance criterion names; the build cost is
    # reported separately below.
    for deployment, image in cold_workload[: len(models)]:
        service.request(deployment, image)
    build_began = time.perf_counter()
    service.run_pending()
    build_seconds = time.perf_counter() - build_began

    # One warm pass reads anywhere from 4x to 5x on a shared host, so
    # the gate takes the median of three passes over the same workload.
    passes = single_shot(
        benchmark, lambda: [_run_served(warm_workload, service) for _ in range(WARM_PASSES)]
    )
    warm_seconds = statistics.median(seconds for seconds, _, _ in passes)
    warm_rps = len(warm_workload) / warm_seconds
    speedup = warm_rps / cold_rps

    # Structured metrics export — the benchmark reads the service's
    # numbers as data (ServiceMetrics.to_dict), not rendered text.
    summary = service.metrics.to_dict()
    report(
        "serving throughput — mixed lenet5+resnet18 on nv_small (INT8)\n"
        f"  cold path: {len(cold_workload)} requests in {cold_seconds:.2f} s "
        f"= {cold_rps:.2f} req/s\n"
        f"  served:    {len(warm_workload)} requests in {warm_seconds:.2f} s "
        f"= {warm_rps:.2f} req/s  (median of {WARM_PASSES} passes; "
        f"one-time builds: {build_seconds:.2f} s)\n"
        f"  speedup:   {speedup:.1f}x\n"
        f"  cache hit rate {summary['cache_hit_rate'] * 100:.0f}%  "
        f"wall p99 {summary['wall']['p99'] * 1e3:.1f} ms\n\n"
        + service.metrics.render()
    )

    # Acceptance: >= 5x throughput on repeated same-deployment requests.
    assert speedup >= 5.0, f"cache-hit path only {speedup:.1f}x faster"
    # All repeated requests were cache hits on reused workers.
    assert all(r.cache_hit for _, _, responses in passes for r in responses)
    assert summary["bundle_misses"] == len(models)
    assert summary["failures"] == 0
    assert summary["wall"]["count"] == summary["requests"]
    # Bit-identical to the cold path, request by request, in every pass.
    for _, warm_outputs, _ in passes:
        for cold_out, warm_out in zip(cold_outputs, warm_outputs):
            assert cold_out is not None and warm_out is not None
            assert np.array_equal(cold_out, warm_out)


def test_fastpath_serving_throughput(benchmark, report):
    """The PR-2 acceptance gate: the fast tier vs the cached
    cycle-accurate service, same warm workload, shared bundle cache.

    The mix spans the three model classes the zoo serves on nv_small —
    tiny (lenet5), CIFAR-residual (resnet18) and a 224×224 depthwise
    network (mobilenet, where the ISS poll burden is heaviest).
    """
    from benchmarks.conftest import single_shot

    rng = np.random.default_rng(WORKLOAD_SEED)
    models = ("lenet5", "resnet18", "mobilenet")
    cache = BundleCache()
    build_began = time.perf_counter()
    table = calibrate(models, NV_SMALL, cache=cache)
    build_seconds = time.perf_counter() - build_began

    workload = _mixed_workload(models, "nv_small", Precision.INT8, 6, rng)
    ca_service = InferenceService(cache=cache, max_batch_size=8)
    fast_service = InferenceService(cache=cache, max_batch_size=8, calibration=table)

    def _serve(service, mode):
        for deployment, image in workload:
            service.request(replace(deployment, execution_mode=mode), image)
        responses = service.run_pending()
        assert all(r.ok for r in responses)
        return [r for r in sorted(responses, key=lambda r: r.request_id)]

    # Warm both tiers (bundle + worker reuse), then measure steady state.
    _serve(ca_service, "cycle_accurate")
    _serve(fast_service, "fast")

    def _measure():
        began = time.perf_counter()
        ca_responses = _serve(ca_service, "cycle_accurate")
        ca_seconds = time.perf_counter() - began
        began = time.perf_counter()
        fast_responses = _serve(fast_service, "fast")
        fast_seconds = time.perf_counter() - began
        return ca_seconds, fast_seconds, ca_responses, fast_responses

    ca_seconds, fast_seconds, ca_responses, fast_responses = single_shot(
        benchmark, _measure
    )
    n = len(workload)
    speedup = (n / fast_seconds) / (n / ca_seconds)

    report(
        "fast-path serving — lenet5+resnet18+mobilenet on nv_small (INT8)\n"
        f"  cycle-accurate: {n} requests in {ca_seconds:.2f} s "
        f"= {n / ca_seconds:.2f} req/s\n"
        f"  fast tier:      {n} requests in {fast_seconds:.2f} s "
        f"= {n / fast_seconds:.2f} req/s  (one-time builds+profiles: "
        f"{build_seconds:.1f} s)\n"
        f"  speedup:        {speedup:.1f}x\n\n"
        + "\n".join(profile.render() for profile in table.values())
    )

    # Acceptance: >= 10x throughput over cached cycle-accurate serving.
    assert speedup >= 10.0, f"fast tier only {speedup:.1f}x faster"
    # Bit-identical tensors, request by request.
    for ca_response, fast_response in zip(ca_responses, fast_responses):
        assert np.array_equal(ca_response.output, fast_response.output)
    # Reported cycles are the cycle-accurate ones, exactly.
    for ca_response, fast_response in zip(ca_responses, fast_responses):
        assert fast_response.cycles == ca_response.cycles


def test_serving_mixed_nv_full(benchmark, report):
    from benchmarks.conftest import single_shot

    rng = np.random.default_rng(WORKLOAD_SEED)
    workload = _mixed_workload(("lenet5", "resnet18"), "nv_full", Precision.FP16, 8, rng)

    # Batch size 2 forces each deployment across multiple batches, so
    # the bundle cache sees both misses (first batch) and hits.
    service = InferenceService(max_batch_size=2)
    elapsed, outputs, responses = single_shot(
        benchmark, lambda: _run_served(workload, service)
    )
    report(
        "serving — mixed lenet5+resnet18 on nv_full (FP16)\n"
        f"  {len(workload)} requests in {elapsed:.2f} s "
        f"= {len(workload) / elapsed:.2f} req/s\n\n" + service.metrics.render()
    )

    # Two deployments → exactly two flow builds, everything else hits.
    assert service.metrics.bundle_misses == 2
    assert service.metrics.bundle_hits >= 2
    assert all(out is not None for out in outputs)
    # One worker serves both models (hardware-keyed pooling).
    assert service.metrics.workers_created == 1


# ----------------------------------------------------------------------
# PR-7: the process-parallel serving plane.
# ----------------------------------------------------------------------


def run_process_scaling(
    process_counts=(1, 4),
    models=("lenet5", "resnet18"),
    requests=64,  # 8 full batches: an integer number per worker at 4
    batch_size=8,
):
    """Fast-tier workload on the plane at several process counts, with
    the single-process service as the bit-identity reference.

    Returns a JSON-ready dict: per-count throughput, speedups vs the
    1-process plane, and whether every response was bit-identical to
    the service."""
    rng = np.random.default_rng(WORKLOAD_SEED)
    cache = BundleCache()
    table = calibrate(models, NV_SMALL, cache=cache)
    workload = [
        (replace(deployment, execution_mode="fast"), image)
        for deployment, image in _mixed_workload(
            models, "nv_small", Precision.INT8, requests, rng
        )
    ]
    unique = list(dict.fromkeys(d for d, _ in workload))

    service = InferenceService(
        cache=cache, max_batch_size=batch_size, calibration=table
    )
    for deployment, image in workload[: len(unique)]:
        service.request(deployment, image)
    service.run_pending()  # warm: steady-state measurement below
    began = time.perf_counter()
    for deployment, image in workload:
        service.request(deployment, image)
    reference = sorted(service.run_pending(), key=lambda r: r.request_id)
    service_seconds = time.perf_counter() - began
    assert all(r.ok for r in reference)

    planes = {}
    bit_identical = True
    for processes in process_counts:
        plane = ServingPlane(
            processes=processes,
            max_batch_size=batch_size,
            calibration=table,
            cache=cache,
        )
        with plane:
            plane.warm(unique)
            handed = [plane.request(d, image) for d, image in workload]
            # One untimed batch per process so every worker has
            # rehydrated its bundles before the measured window.
            plane.serve([plane.request(d, None) for d in unique * processes])
            began = time.perf_counter()
            responses = plane.serve(handed)
            seconds = time.perf_counter() - began
        assert all(r.ok for r in responses)
        for ref, got in zip(reference, responses):
            if not np.array_equal(ref.output, got.output) or ref.cycles != got.cycles:
                bit_identical = False
        planes[processes] = {
            "seconds": seconds,
            "rps": requests / seconds,
        }
    base_rps = planes[process_counts[0]]["rps"]
    for point in planes.values():
        point["speedup_vs_1"] = point["rps"] / base_rps
    return {
        "cpu_count": os.cpu_count(),
        "models": list(models),
        "requests": requests,
        "service_rps": requests / service_seconds,
        "planes": {str(k): v for k, v in planes.items()},
        "bit_identical": bit_identical,
    }


def test_process_parallel_scaling(benchmark, report):
    """The PR-7 acceptance gate: 4 worker processes vs 1 on the fast
    tier.  Bit-identity to the single-process service is asserted
    unconditionally; the >= 2.5x throughput gate needs >= 4 cores, so
    on smaller hosts it is reported as skipped, not silently passed."""
    from benchmarks.conftest import single_shot

    result = single_shot(
        benchmark, lambda: run_process_scaling(process_counts=(1, 4))
    )
    lines = [
        "process-parallel serving — lenet5+resnet18 fast tier on nv_small",
        f"  single-process service: {result['service_rps']:.1f} req/s",
    ]
    for count, point in result["planes"].items():
        lines.append(
            f"  {count} process(es): {point['rps']:.1f} req/s "
            f"({point['speedup_vs_1']:.2f}x vs 1)"
        )
    scaling_gated = result["cpu_count"] is not None and result["cpu_count"] >= 4
    if not scaling_gated:
        lines.append(
            f"  scaling gate SKIPPED: {result['cpu_count']} core(s) < 4 "
            "(bit-identity still asserted)"
        )
    report("\n".join(lines))

    assert result["bit_identical"], "plane diverged from the service"
    if scaling_gated:
        speedup = result["planes"]["4"]["speedup_vs_1"]
        assert speedup >= 2.5, f"4 processes only {speedup:.2f}x over 1"


@pytest.mark.slow
def test_zoo_bit_identity_across_processes(report):
    """Every zoo model, served on the 2-process plane and the
    single-process service: outputs must be bit-identical model by
    model, request by request.

    The fast tier carries the traffic.  The service records each
    bundle's cycle profile on first use; the plane's workers are
    spawned with those recordings, so cycles must match too."""
    models = sorted(ZOO)
    rng = np.random.default_rng(WORKLOAD_SEED)
    cache = BundleCache()
    table: dict = {}
    workload = [
        (replace(deployment, execution_mode="fast"), image)
        for deployment, image in _mixed_workload(
            models, "nv_small", Precision.INT8, 2 * len(models), rng
        )
    ]

    service = InferenceService(cache=cache, calibration=table)
    for deployment, image in workload:
        service.request(deployment, image)
    reference = sorted(service.run_pending(), key=lambda r: r.request_id)

    with ServingPlane(processes=2, calibration=table, cache=cache) as plane:
        responses = plane.serve(
            [plane.request(d, image) for d, image in workload]
        )

    mismatched = [
        (ref.deployment.model, ref.request_id)
        for ref, got in zip(reference, responses)
        if not np.array_equal(ref.output, got.output) or ref.cycles != got.cycles
    ]
    report(
        "zoo bit-identity across processes — "
        + ", ".join(models)
        + (f"\n  MISMATCHES: {mismatched}" if mismatched else "\n  all identical")
    )
    assert all(r.ok for r in responses)
    assert not mismatched


# ----------------------------------------------------------------------
# Script entry point (CI artifact).
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced run (1 vs 2 processes, fewer requests) for CI",
    )
    parser.add_argument("--label", default="head", help="row name for this code version")
    parser.add_argument(
        "--out", default=None, help="merge this row into the metrics JSON file here"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        process_counts, requests = (1, 2), 16
    else:
        process_counts, requests = (1, 2, 4), 64
    result = run_process_scaling(process_counts=process_counts, requests=requests)
    print(
        f"single-process service: {result['service_rps']:.1f} req/s "
        f"({result['cpu_count']} core(s))"
    )
    for count, point in result["planes"].items():
        print(
            f"{count} process(es): {point['rps']:.1f} req/s "
            f"({point['speedup_vs_1']:.2f}x vs 1)"
        )
    print("bit-identical to service: " + ("yes" if result["bit_identical"] else "NO"))
    if args.out:
        from repro.obs import bench_envelope

        path = Path(args.out)
        # Rows with other labels are kept, so two code versions can be
        # measured back to back into one file (an older file without
        # rows starts afresh).
        rows = json.loads(path.read_text())["results"].get("rows", []) if path.exists() else []
        row = {"label": args.label, "smoke": args.smoke, **result}
        rows = [r for r in rows if r["label"] != args.label] + [row]
        payload = bench_envelope(
            "bench_serving.process_scaling",
            {
                "smoke": args.smoke,
                "process_counts": list(process_counts),
                "requests": requests,
                "workload_seed": WORKLOAD_SEED,
                "models": ["lenet5", "resnet18"],
            },
            {"rows": rows},
        )
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"metrics written to {args.out}")
    return 0 if result["bit_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
