#!/usr/bin/env python3
"""Serving demo: a mixed LeNet-5 + ResNet-18 workload through the
batched inference service.

The paper's offline flow (compile → VP trace capture → config file →
bare-metal codegen) is expensive; the generated artefacts are not.
`repro.serve` memoises the flow per deployment and replays the cached
bundle on pooled SoC workers, which is how the reproduction scales from
"one inference per script" to "a request stream":

1. build a 12-request workload alternating LeNet-5 and ResNet-18 on
   nv_small, every input drawn from one seeded generator,
2. serve it: 2 offline-flow builds (one per model), 12 SoC runs,
3. print throughput, latency percentiles and cache statistics,
4. demonstrate that a cache-hit run is bit-identical to a fresh
   cold-path run for the same input.

Usage::

    python examples/serving_throughput.py
"""

from __future__ import annotations

import numpy as np

from repro.baremetal import generate_baremetal
from repro.core import Soc
from repro.nn.zoo import ZOO
from repro.nvdla import NV_SMALL
from repro.serve import DeploymentSpec, InferenceService, make_input_for


def main() -> None:
    print("=== 1. workload ===")
    rng = np.random.default_rng(2025)  # one seed → reproducible workload
    deployments = [DeploymentSpec("lenet5"), DeploymentSpec("resnet18")]
    nets = {d.model: ZOO[d.model]() for d in deployments}
    workload = []
    for index in range(12):
        deployment = deployments[index % len(deployments)]
        workload.append((deployment, make_input_for(nets[deployment.model], rng)))
    print(f"{len(workload)} requests over {[d.model for d in deployments]} on nv_small")

    print("\n=== 2. serve ===")
    service = InferenceService(max_batch_size=4)
    for deployment, image in workload:
        service.request(deployment, image)
    responses = service.run_pending()
    ok = sum(r.ok for r in responses)
    print(f"{ok}/{len(responses)} requests completed")
    hits = sum(r.cache_hit for r in responses)
    print(f"{hits} served from cached bundles ({len(responses) - hits} cold builds)")

    print("\n=== 3. service metrics ===")
    print(service.metrics.render())

    print("\n=== 4. cache-hit outputs are bit-identical to cold runs ===")
    deployment, image = workload[0]
    bundle = generate_baremetal(
        ZOO[deployment.model](), NV_SMALL, input_image=image
    )
    soc = Soc(NV_SMALL)
    soc.load_bundle(bundle)
    cold = soc.run_inference(bundle)
    warm = next(r for r in responses if r.request_id == 0)
    identical = (
        cold.output is not None
        and warm.output is not None
        and np.array_equal(cold.output, warm.output)
    )
    print(f"outputs identical: {identical}   cycles: {cold.cycles:,} == {warm.cycles:,}")
    if not identical or cold.cycles != warm.cycles:
        raise SystemExit("cache-hit run diverged from cold path")

    print("\n=== 5. the fast tier ===")
    # Record each bundle's cycle profile (one timing-fidelity SoC run
    # per model), then serve the same workload on the functional fast
    # path: no ISS, no bus transactions, bit-identical tensors, and the
    # cycle-accurate tier's exact cycles.
    from dataclasses import replace

    from repro.core import calibrate

    table = calibrate(("lenet5", "resnet18"), NV_SMALL, cache=service.cache)
    fast_service = InferenceService(
        cache=service.cache, max_batch_size=4, calibration=table
    )
    for deployment, image in workload:
        fast_service.request(replace(deployment, execution_mode="fast"), image)
    fast_responses = fast_service.run_pending()
    by_id = {r.request_id: r for r in responses}
    for fast_response in fast_responses:
        slow_response = by_id[fast_response.request_id]
        assert np.array_equal(fast_response.output, slow_response.output)
        assert fast_response.cycles == slow_response.cycles
    for profile in table.values():
        print(profile.render())
    print(
        f"fast tier served {len(fast_responses)} requests bit-identically; "
        f"wall p50 {fast_service.metrics.wall_summary().p50 * 1e3:.1f} ms vs "
        f"{service.metrics.wall_summary().p50 * 1e3:.1f} ms cycle-accurate"
    )


if __name__ == "__main__":
    main()
