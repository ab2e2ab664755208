"""Command-line interface.

Exposes the flows a downstream user runs most::

    python -m repro info
    python -m repro run --model lenet5 --config nv_small
    python -m repro run --model lenet5 --mode fast
    python -m repro analyze --models all --config nv_small --out diags.json
    python -m repro flow --model lenet5 --out artifacts/
    python -m repro table1 | table2 | table3
    python -m repro serve --models lenet5,resnet18 --requests 32
    python -m repro serve --mode fast
    python -m repro serve --processes 4 --arrival poisson --rps 200
    python -m repro bench-serve --requests 8
    python -m repro bench-serve --mode fast --processes 4
    python -m repro bench-cluster --policy all --arrival poisson --rps 100 --seed 7
    python -m repro synth --config nv_full
    python -m repro sanity --trace conv
    python -m repro warmup --models lenet5,resnet18 --store .repro-store
    python -m repro store ls | verify | gc
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.nvdla.config import CONFIGS, Precision, get_config


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.nn.zoo import ZOO

    print("NVDLA configurations:")
    for config in CONFIGS.values():
        print(f"  {config.describe()}")
    print("\nmodel zoo:")
    for name, builder in ZOO.items():
        net = builder()
        print(
            f"  {name:<10} {net.layer_count():>4} layers "
            f"{net.parameter_count():>12,} params "
            f"{net.model_size_bytes() / 1e6:>7.1f} MB fp32  in={net.input_shape}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.baremetal import execute_bundle, generate_baremetal
    from repro.compiler import CompileOptions
    from repro.nn.zoo import ZOO

    config = get_config(args.config)
    precision = Precision(args.precision)
    print(
        f"running {args.model} on {config.name} "
        f"({precision.value}, {args.fidelity}, {args.mode})..."
    )
    bundle = generate_baremetal(
        ZOO[args.model](), config, precision=precision, fidelity=args.fidelity,
        compile_options=CompileOptions(precision=precision, fusion=args.fusion),
    )
    if args.verify:
        from repro.analyze import analyze_bundle

        analysis = analyze_bundle(bundle)
        if not analysis.clean:
            print(analysis.render())
            return 1
        print(
            f"static analysis: clean ({analysis.chains} chains, "
            f"{analysis.surfaces} surfaces)"
        )
    result = execute_bundle(
        bundle,
        execution_mode=args.mode,
        frequency_hz=args.frequency_mhz * 1e6,
        memory_bus_width_bits=args.memory_width,
    )
    status = "DONE" if result.ok else f"FAIL (command {result.fail_index})"
    print(f"status:  {status}")
    print(f"latency: {result.cycles:,} cycles = {result.milliseconds:.3f} ms @ {args.frequency_mhz:g} MHz")
    print(f"hw ops:  {len(result.op_records)}  program: {len(bundle.program.words)} words")
    return 0 if result.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Compile-only static verification: no VP, no ISS, no engine."""
    import json
    import time

    from repro.analyze import analyze_loadable, pass_ids
    from repro.compiler import CompileOptions, compile_network
    from repro.nn.zoo import ZOO

    config = get_config(args.config)
    precision = Precision(args.precision)
    models = _parse_models(args.models)
    print(
        f"analyzing {len(models)} model(s) on {config.name} ({precision.value}); "
        f"passes: {', '.join(pass_ids())}"
    )
    reports = []
    failures = 0
    for model in models:
        loadable = compile_network(
            ZOO[model](), config, CompileOptions(precision=precision, fusion=args.fusion)
        )
        began = time.perf_counter()
        report = analyze_loadable(loadable, config, artifact=f"{model}/{config.name}")
        elapsed_ms = (time.perf_counter() - began) * 1e3
        verdict = "clean" if report.clean else f"{len(report.errors)} error(s)"
        print(
            f"  {model:<10} {report.chains} chains, {report.surfaces} surfaces: "
            f"{verdict} ({elapsed_ms:.1f} ms)"
        )
        if not report.clean or args.verbose:
            print(report.render(verbose=args.verbose))
        failures += 0 if report.clean else 1
        reports.append(report.to_dict())
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(
            {"config": config.name, "precision": precision.value, "reports": reports},
            indent=2, sort_keys=True,
        ))
        print(f"diagnostics written to {args.out}")
    return 1 if failures else 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from repro.baremetal import generate_baremetal
    from repro.nn.caffe_proto import to_prototxt
    from repro.nn.zoo import ZOO

    config = get_config(args.config)
    net = ZOO[args.model]()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bundle = generate_baremetal(net, config, precision=Precision(args.precision))
    (out / f"{args.model}.prototxt").write_text(to_prototxt(net))
    (out / f"{args.model}.cfg").write_text(bundle.config_file_text)
    (out / f"{args.model}.S").write_text(bundle.assembly)
    (out / f"{args.model}.mem").write_text(bundle.images.program_mem)
    (out / "vp_trace.log").write_text(bundle.trace.render())
    for image in bundle.images.preload:
        (out / image.name).write_bytes(image.data)
    print(bundle.describe())
    print(f"artefacts written to {out.resolve()}")
    return 0


def _cmd_table(args: argparse.Namespace, which: int) -> int:
    from repro.harness import format_table, run_table1, run_table2, run_table3

    if which == 1:
        print(run_table1().render())
        return 0
    if which == 2:
        rows = run_table2()
        print(
            format_table(
                ["model", "ms@100MHz", "paper ms", "ratio", "ESP ms"],
                [
                    [r.model, f"{r.ms_at_100mhz:.1f}", f"{r.paper_ms:g}", f"{r.ratio:.2f}",
                     f"{r.baseline_ms:.0f}" if r.baseline_ms else "-"]
                    for r in rows
                ],
                title="Table II — nv_small FPGA results",
            )
        )
        return 0
    rows = run_table3()
    print(
        format_table(
            ["model", "cycles", "paper cycles", "ratio"],
            [[r.model, f"{r.cycles:,}", f"{r.paper_cycles:,}", f"{r.ratio:.2f}"] for r in rows],
            title="Table III — nv_full simulation results (FP16)",
        )
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.fpga import DEVICES, synthesize

    config = get_config(args.config)
    device = DEVICES[args.device]
    result = synthesize(config, device)
    print(result.render())
    return 0 if result.fits else 2


def _parse_models(models_arg: str) -> list[str]:
    """Validated zoo-model list from a comma-separated CLI value."""
    from repro.nn.zoo import ZOO

    if models_arg.strip() == "all":
        return sorted(ZOO)
    models = [m.strip() for m in models_arg.split(",") if m.strip()]
    if not models:
        raise SystemExit("--models needs at least one zoo model")
    unknown = [m for m in models if m not in ZOO]
    if unknown:
        raise SystemExit(f"unknown zoo model(s) {unknown}; known: {sorted(ZOO)}")
    return models


def _build_workload(args: argparse.Namespace):
    """Round-robin mixed-model request list from the CLI options."""
    import numpy as np

    from repro.nn.zoo import ZOO
    from repro.serve import DeploymentSpec, make_input_for

    models = _parse_models(args.models)
    deployments = [
        DeploymentSpec(
            model,
            config=args.config,
            precision=Precision(args.precision),
            execution_mode=getattr(args, "mode", "cycle_accurate"),
        )
        for model in models
    ]
    rng = np.random.default_rng(args.seed)
    # Build each zoo network once per deployment, not once per request
    # (instantiation initialises every weight tensor).
    nets = {d.model: ZOO[d.model]() for d in deployments}
    workload = []
    for index in range(args.requests):
        deployment = deployments[index % len(deployments)]
        workload.append((deployment, make_input_for(nets[deployment.model], rng)))
    return workload


def _arrival_gaps(args: argparse.Namespace, count: int) -> list[float] | None:
    """Inter-arrival delays for the plane's streaming intake."""
    from itertools import islice

    import numpy as np

    from repro.cluster.workload import make_arrivals

    arrival = getattr(args, "arrival", "none")
    if arrival == "none" or count == 0:
        return None
    if args.rps <= 0:
        raise SystemExit("--rps must be positive for paced arrivals")
    rng = np.random.default_rng((args.seed, 0xA221))  # arrivals stream
    return list(islice(make_arrivals(arrival, args.rps).gaps(rng), count))


def _serve_tracer(args: argparse.Namespace):
    """An enabled tracer when --trace-out was given, else the null one."""
    from repro.obs import NULL_TRACER, Tracer

    if getattr(args, "trace_out", None):
        return Tracer(enabled=True, process=-1)
    return NULL_TRACER


def _write_trace_out(args: argparse.Namespace, tracer) -> None:
    """Flush collected spans to --trace-out (.jsonl or Perfetto .json)."""
    if not tracer.enabled:
        return
    from repro.obs import write_trace

    count = write_trace(args.trace_out, tracer.finished)
    print(f"{count} spans written to {args.trace_out}")


def _write_metrics_out(args: argparse.Namespace, registry) -> None:
    """Dump a MetricsRegistry snapshot to --metrics-out as JSON."""
    import json

    if not getattr(args, "metrics_out", None):
        return
    Path(args.metrics_out).write_text(
        json.dumps(registry.to_dict(), indent=2, sort_keys=True)
    )
    print(f"metrics written to {args.metrics_out}")


def _cmd_serve_plane(args: argparse.Namespace, store) -> int:
    """`serve --processes N`: the process-parallel plane."""
    from repro.serve import BundleCache, ServingPlane

    tracer = _serve_tracer(args)
    plane = ServingPlane(
        processes=args.processes,
        max_batch_size=args.batch_size,
        input_seed=args.seed,
        cache=BundleCache(store=store) if store is not None else None,
        tracer=tracer,
    )
    workload = _build_workload(args)
    print(
        f"serving {len(workload)} requests over "
        f"{len({d for d, _ in workload})} deployment(s) on {args.config} "
        f"across {args.processes} worker processes..."
    )
    with plane:
        requests = [plane.request(d, image) for d, image in workload]
        responses = plane.serve(requests, _arrival_gaps(args, len(requests)))
    failures = [r for r in responses if not r.ok]
    print(plane.metrics.render())
    _write_trace_out(args, tracer)
    _write_metrics_out(args, plane.metrics.registry)
    if failures:
        print(f"FAILED requests: {[r.request_id for r in failures]}")
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import BundleCache, InferenceService, shared_cache

    if args.processes > 1:
        return _cmd_serve_plane(args, _open_store(args))

    # One --seed drives both the workload inputs and anything the
    # service synthesises itself, so a serve run replays exactly.
    # With --store, misses try the persistent store before compiling
    # (and the shared in-process cache is bypassed so the store path is
    # actually exercised).
    store = _open_store(args)
    tracer = _serve_tracer(args)
    service = InferenceService(
        cache=BundleCache(store=store) if store is not None else shared_cache(),
        max_batch_size=args.batch_size,
        workers_per_key=args.workers,
        input_seed=args.seed,
        tracer=tracer,
    )
    workload = _build_workload(args)
    print(
        f"serving {len(workload)} requests over "
        f"{len({d for d, _ in workload})} deployment(s) on {args.config}..."
    )
    for deployment, image in workload:
        service.request(deployment, image)
    responses = service.run_pending()
    failures = [r for r in responses if not r.ok]
    print(service.metrics.render())
    _write_trace_out(args, tracer)
    _write_metrics_out(args, service.metrics.registry)
    if failures:
        print(f"FAILED requests: {[r.request_id for r in failures]}")
    return 1 if failures else 0


def _bench_serve_processes(args: argparse.Namespace) -> int:
    """`bench-serve --processes N`: N worker processes vs the
    single-process service, same workload, bit-identity checked."""
    import time

    import numpy as np

    from repro.serve import BundleCache, InferenceService, ServingPlane, shared_cache

    workload = _build_workload(args)
    n = len(workload)
    unique = list(dict.fromkeys(d for d, _ in workload))
    store = _open_store(args)
    cache = BundleCache(store=store) if store is not None else shared_cache()
    # One profile table for both sides: the worker processes are
    # spawned with what the single-process warm-up recorded.
    profiles: dict = {}

    service = InferenceService(
        cache=cache,
        max_batch_size=args.batch_size,
        workers_per_key=args.workers,
        input_seed=args.seed,
        calibration=profiles,
    )
    # Warm: compile every deployment once so both timed windows measure
    # steady-state serving, not the offline flow.
    for deployment, image in workload[: len(unique)]:
        service.request(deployment, image)
    service.run_pending()

    began = time.perf_counter()
    for deployment, image in workload:
        service.request(deployment, image)
    # Sorted by id = workload order, matching the plane's return order.
    single_responses = sorted(service.run_pending(), key=lambda r: r.request_id)
    single_s = time.perf_counter() - began

    tracer = _serve_tracer(args)
    plane = ServingPlane(
        processes=args.processes,
        max_batch_size=args.batch_size,
        input_seed=args.seed,
        calibration=profiles,
        cache=cache,
        tracer=tracer,
    )
    with plane:
        plane.warm(unique)
        requests = [plane.request(d, image) for d, image in workload]
        began = time.perf_counter()
        multi_responses = plane.serve(requests, _arrival_gaps(args, n))
        multi_s = time.perf_counter() - began

    if any(not r.ok for r in single_responses + multi_responses):
        print("serve run failed")
        return 1
    mismatches = [
        s.request_id
        for s, m in zip(single_responses, multi_responses)
        if not np.array_equal(s.output, m.output) or s.cycles != m.cycles
    ]
    print(f"1 process      : {single_s:.2f} s  ({n / single_s:.2f} req/s)")
    print(
        f"{args.processes} processes    : {multi_s:.2f} s  "
        f"({n / multi_s:.2f} req/s)"
    )
    print(f"speedup: {single_s / multi_s:.2f}x on {args.processes} processes")
    print(
        "outputs bit-identical to single-process: "
        + ("yes" if not mismatches else f"NO — requests {mismatches}")
    )
    print()
    print(plane.metrics.render())
    _write_trace_out(args, tracer)
    _write_metrics_out(args, plane.metrics.registry)
    return 1 if mismatches else 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    """Head-to-head serving benchmarks.

    - ``--mode cycle_accurate`` (default): cold per-request offline
      flow vs the cached cycle-accurate service (the PR-1 comparison);
    - ``--mode fast``: cached cycle-accurate service vs the
      fast tier, same workload, shared bundle cache;
    - ``--processes N`` (N > 1): the process-parallel plane vs the
      single-process service, with a bit-identity check.
    """
    import time

    from dataclasses import replace

    from repro.baremetal import generate_baremetal
    from repro.core import Soc
    from repro.nn.zoo import ZOO
    from repro.serve import BundleCache, InferenceService, shared_cache

    if args.processes > 1:
        return _bench_serve_processes(args)

    workload = _build_workload(args)
    config = get_config(args.config)
    n = len(workload)
    store = _open_store(args)

    if args.mode == "fast":
        # --store swaps the shared cache for a store-backed one.
        cache = BundleCache(store=store) if store is not None else shared_cache()
        baseline = InferenceService(
            cache=cache,
            max_batch_size=args.batch_size,
            workers_per_key=args.workers,
            input_seed=args.seed,
        )
        tracer = _serve_tracer(args)
        fast_service = InferenceService(
            cache=cache,
            max_batch_size=args.batch_size,
            workers_per_key=args.workers,
            input_seed=args.seed,
            tracer=tracer,
        )
        results = {}
        for label, service, mode in (
            ("cycle-accurate", baseline, "cycle_accurate"),
            ("fast tier", fast_service, "fast"),
        ):
            # Warm the caches/workers so the measured window is the
            # steady-state serving regime for both tiers.
            for deployment, image in workload[: min(n, 4)]:
                service.request(replace(deployment, execution_mode=mode), image)
            service.run_pending()
            began = time.perf_counter()
            for deployment, image in workload:
                service.request(replace(deployment, execution_mode=mode), image)
            responses = service.run_pending()
            elapsed = time.perf_counter() - began
            if any(not r.ok for r in responses):
                print(f"{label} run failed")
                return 1
            results[label] = elapsed
            print(f"{label:<15}: {elapsed:.2f} s  ({n / elapsed:.2f} req/s)")
        print(f"speedup: {results['cycle-accurate'] / results['fast tier']:.1f}x")
        print()
        print(fast_service.metrics.render())
        _write_trace_out(args, tracer)
        _write_metrics_out(args, fast_service.metrics.registry)
        return 0

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
        if not soc.run_inference(bundle).ok:
            print("cold-path run failed")
            return 1
    cold = time.perf_counter() - began

    tracer = _serve_tracer(args)
    service = InferenceService(
        cache=BundleCache(store=store) if store is not None else None,
        max_batch_size=args.batch_size,
        workers_per_key=args.workers,
        input_seed=args.seed,
        tracer=tracer,
    )
    began = time.perf_counter()
    for deployment, image in workload:
        service.request(deployment, image)
    responses = service.run_pending()
    warm = time.perf_counter() - began
    if any(not r.ok for r in responses):
        print("served run failed")
        return 1

    print(f"cold path (per-request offline flow): {cold:.2f} s  ({n / cold:.2f} req/s)")
    print(f"served    (bundle cache + reuse):     {warm:.2f} s  ({n / warm:.2f} req/s)")
    print(f"speedup: {cold / warm:.1f}x")
    print()
    print(service.metrics.render())
    _write_trace_out(args, tracer)
    _write_metrics_out(args, service.metrics.registry)
    return 0


def _cluster_deployments(args: argparse.Namespace) -> list:
    from repro.serve import DeploymentSpec

    return [
        DeploymentSpec(model, config=args.config, precision=Precision(args.precision))
        for model in _parse_models(args.models)
    ]


def _cmd_bench_cluster(args: argparse.Namespace) -> int:
    """Fleet simulation: one workload, one or all routing policies.

    Virtual-time only (no functional execution), so hundreds of
    requests simulate in seconds; every number is reproducible from
    ``--seed``.
    """
    import json

    from repro.cluster import (
        POLICIES,
        AdmissionController,
        Autoscaler,
        ClusterSimulation,
        SloPolicy,
        generate_workload,
        load_trace,
        make_arrivals,
        make_router,
        offered_rps,
    )
    from repro.serve import shared_cache

    if args.trace:
        # Virtual-time replay needs no input tensors, so the seed has
        # nothing to drive: the trace alone fixes the workload.
        workload = load_trace(args.trace)
        arrival_name = f"trace:{args.trace}"
    else:
        arrivals = make_arrivals(args.arrival, args.rps)
        workload = generate_workload(
            arrivals, _cluster_deployments(args), args.requests, seed=args.seed
        )
        arrival_name = args.arrival
    slo = SloPolicy(
        slo_latency_s=args.slo_ms / 1e3,
        max_rejection_rate=args.max_rejection_rate,
        max_queue_depth=args.queue_depth,
    )
    autoscaler = None
    if args.autoscale:
        autoscaler = Autoscaler(
            min_replicas=args.replicas,
            max_replicas=args.max_replicas,
            target_p99_s=args.slo_ms / 1e3,
        )
    policies = sorted(POLICIES) if args.policy == "all" else [args.policy]
    print(
        f"simulating {len(workload)} requests ({arrival_name}, "
        f"{offered_rps(workload):.1f} rps offered) on {args.replicas} replica(s), "
        f"seed {args.seed}..."
    )
    store = _open_store(args)
    from repro.serve import BundleCache

    cache = BundleCache(store=store) if store is not None else shared_cache()
    # One tracer across policies: trace ids carry the policy prefix, so
    # a multi-policy sweep exports into one comparable timeline.
    tracer = _serve_tracer(args)
    summaries = {}
    for policy in policies:
        simulation = ClusterSimulation(
            make_router(policy),
            replicas=args.replicas,
            admission=AdmissionController(slo),
            autoscaler=autoscaler,
            cache=cache,
            resident_capacity=args.resident_capacity,
            store=store,
            tracer=tracer,
        )
        metrics = simulation.run(workload).metrics
        metrics.arrival_name = arrival_name
        summaries[policy] = metrics
        print()
        print(metrics.render())
    if len(summaries) > 1:
        print()
        print(f"{'policy':<18} {'goodput':>8} {'p99 ms':>8} {'hit %':>6} {'rej %':>6}")
        for policy, metrics in summaries.items():
            print(
                f"{policy:<18} {metrics.goodput_rps:>8.1f} "
                f"{metrics.latency_summary().p99 * 1e3:>8.1f} "
                f"{metrics.resident_hit_rate * 100:>6.0f} "
                f"{metrics.rejection_rate * 100:>6.1f}"
            )
    if args.out:
        payload = {policy: metrics.to_dict() for policy, metrics in summaries.items()}
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"\nmetrics written to {args.out}")
    _write_trace_out(args, tracer)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Inspect and convert span traces (JSONL and Perfetto JSON)."""
    from repro.obs import build_trees, read_trace, render_summary, render_tree, write_trace

    if args.action == "vp":
        from repro.vp.trace_log import LANE_NAMES, parse_trace

        log = parse_trace(Path(args.infile).read_text())
        spans = log.to_spans(frequency_hz=args.frequency_mhz * 1e6)
        count = write_trace(args.out or "vp_trace.json", spans, process_names=LANE_NAMES)
        print(f"{count} transactions written to {args.out or 'vp_trace.json'}")
        return 0

    spans = read_trace(args.infile)
    if args.action == "export":
        if not args.out:
            raise SystemExit("trace export needs --out")
        count = write_trace(args.out, spans)
        print(f"{count} spans written to {args.out}")
        return 0
    if args.action == "summarize":
        print(render_summary(spans))
        return 0
    # argparse's ``choices`` leave "view" as the only other action.
    trees = build_trees(spans)
    shown = trees if args.limit is None else trees[: args.limit]
    for tree in shown:
        print(render_tree(tree))
        print()
    if len(shown) < len(trees):
        print(f"... {len(trees) - len(shown)} more traces "
              f"({len(spans)} spans total)")
    orphans = sum(len(t.orphans) for t in trees)
    return 1 if orphans else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Render (and merge) MetricsRegistry JSON snapshots."""
    import json

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    for path in args.inputs:
        registry.merge_dict(json.loads(Path(path).read_text()))
    print(registry.render())
    if args.out:
        Path(args.out).write_text(
            json.dumps(registry.to_dict(), indent=2, sort_keys=True)
        )
        print(f"merged metrics written to {args.out}")
    return 0


def _store_path(args: argparse.Namespace) -> str:
    """--store, else $REPRO_STORE_DIR, else ./.repro-store."""
    import os

    from repro.store import DEFAULT_STORE_DIR, STORE_ENV_VAR

    return args.store or os.environ.get(STORE_ENV_VAR) or DEFAULT_STORE_DIR


def _open_store(args: argparse.Namespace):
    """The store named by --store, or None when the flag is absent."""
    from repro.store import BundleStore

    if getattr(args, "store", None) is None:
        return None
    return BundleStore(args.store)


def _cmd_warmup(args: argparse.Namespace) -> int:
    """Pre-compile deployments into the store so later runs only fetch."""
    import json
    import time

    from repro.serve import BundleCache
    from repro.store import BundleStore

    store = BundleStore(_store_path(args))
    cache = BundleCache(store=store)
    models = _parse_models(args.models)
    precision = Precision(args.precision)
    print(f"warming {_store_path(args)} with {len(models)} deployment(s)...")
    for model in models:
        compiles_before = cache.stats.compiles
        began = time.perf_counter()
        bundle = cache.bundle_for(model, args.config, precision=precision, seed=args.seed)
        verb = "compiled" if cache.stats.compiles > compiles_before else "fetched"
        print(
            f"  {model:<10} {args.config}/{precision.value}: "
            f"{verb} in {time.perf_counter() - began:.2f} s"
        )
        if args.verify:
            from repro.analyze import analyze_bundle

            analysis = analyze_bundle(bundle)
            if not analysis.clean:
                print(analysis.render())
                return 1
            print(f"             static analysis: clean "
                  f"({analysis.chains} chains, {analysis.surfaces} surfaces)")
    payload = {
        "store": _store_path(args),
        "entries": len(store),
        "total_bytes": store.total_bytes(),
        "cache": cache.stats.to_dict(),
        "stats": store.stats.to_dict(),
    }
    print(
        f"store: {payload['entries']} artifact(s), "
        f"{payload['total_bytes'] / 1024 / 1024:.1f} MiB "
        f"({cache.stats.compiles} compiled, {cache.stats.store_hits} already present)"
    )
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"warmup stats written to {args.out}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Inventory / integrity / eviction over the persistent store."""
    from repro.store import BundleStore

    store = BundleStore(_store_path(args))
    if args.action == "ls":
        entries = store.ls()
        for entry in entries:
            print(entry.render())
        print(
            f"{len(entries)} artifact(s), "
            f"{store.total_bytes() / 1024 / 1024:.1f} MiB in {_store_path(args)}"
        )
        return 0
    if args.action == "verify":
        report = store.verify(static=args.static)
        print(report.render())
        return 0 if report.clean else 1
    # argparse's ``choices`` leave "gc" as the only other action.
    max_bytes = int(args.max_mib * 1024 * 1024) if args.max_mib is not None else None
    evicted = store.gc(max_bytes=max_bytes, max_objects=args.max_objects)
    for entry in evicted:
        print(f"evicted {entry.render()}")
    print(
        f"{len(evicted)} evicted; {len(store)} artifact(s), "
        f"{store.total_bytes() / 1024 / 1024:.1f} MiB remain"
    )
    return 0


def _cmd_sanity(args: argparse.Namespace) -> int:
    from repro.baremetal.sanity import ALL_TRACES, run_on_soc
    from repro.core import Soc

    config = get_config(args.config)
    names = [args.trace] if args.trace else list(ALL_TRACES)
    failures = 0
    for name in names:
        ok = run_on_soc(ALL_TRACES[name](config), Soc(config))
        print(f"{name:<12} {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bare-metal RISC-V + NVDLA SoC reproduction flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list configurations and zoo models")

    run = sub.add_parser("run", help="full bare-metal inference of a zoo model")
    run.add_argument("--model", default="lenet5")
    run.add_argument("--config", default="nv_small", choices=sorted(CONFIGS))
    run.add_argument("--precision", default="int8", choices=[p.value for p in Precision])
    run.add_argument("--fidelity", default="functional", choices=["functional", "timing"],
                     help="build cost: timing skips the VP's tensor math "
                          "(same program and cycles, no output tensor)")
    run.add_argument("--frequency-mhz", type=float, default=100.0)
    run.add_argument("--memory-width", type=int, default=32)
    run.add_argument("--mode", default="cycle_accurate", choices=["cycle_accurate", "fast"],
                     help="execution tier: full SoC simulation or the fast path")
    run.add_argument("--fusion", default="descriptor",
                     choices=["off", "graph", "descriptor"],
                     help="operator fusion level: descriptor fuses conv+SDP+PDP "
                          "chains on-chip, graph stops at IR absorption, off "
                          "disables fusion entirely")
    run.add_argument("--verify", action="store_true",
                     help="statically analyze the bundle before executing; "
                          "fail on any ERROR diagnostic")

    analyze = sub.add_parser(
        "analyze",
        help="static descriptor-chain verification of compiled models (no execution)",
    )
    analyze.add_argument("--models", default="lenet5,resnet18",
                         help="comma-separated zoo models, or 'all'")
    analyze.add_argument("--config", default="nv_small", choices=sorted(CONFIGS))
    analyze.add_argument("--precision", default="int8",
                         choices=[p.value for p in Precision])
    analyze.add_argument("--fusion", default="descriptor",
                         choices=["off", "graph", "descriptor"],
                         help="operator fusion level to compile with before "
                              "analyzing")
    analyze.add_argument("--out", default=None,
                         help="write machine-readable diagnostics JSON here")
    analyze.add_argument("--verbose", action="store_true",
                         help="show INFO diagnostics and clean-report details")

    flow = sub.add_parser("flow", help="dump every offline-flow artefact")
    flow.add_argument("--model", default="lenet5")
    flow.add_argument("--config", default="nv_small", choices=sorted(CONFIGS))
    flow.add_argument("--precision", default="int8", choices=[p.value for p in Precision])
    flow.add_argument("--out", default="flow_artifacts")

    for index in (1, 2, 3):
        sub.add_parser(f"table{index}", help=f"regenerate paper Table {'I' * index}")

    synth = sub.add_parser("synth", help="resource feasibility on a device")
    synth.add_argument("--config", default="nv_small", choices=sorted(CONFIGS))
    synth.add_argument("--device", default="ZCU102")

    for name, help_text in (
        ("serve", "serve a mixed-model request workload"),
        ("bench-serve", "cached service vs per-request flow, head to head"),
    ):
        serve = sub.add_parser(name, help=help_text)
        serve.add_argument("--models", default="lenet5,resnet18",
                           help="comma-separated zoo models")
        serve.add_argument("--config", default="nv_small", choices=sorted(CONFIGS))
        serve.add_argument("--precision", default="int8", choices=[p.value for p in Precision])
        serve.add_argument("--requests", type=int, default=16)
        serve.add_argument("--batch-size", type=int, default=8)
        serve.add_argument("--workers", type=int, default=1)
        serve.add_argument("--seed", type=int, default=7)
        serve.add_argument("--mode", default="cycle_accurate",
                           choices=["cycle_accurate", "fast"],
                           help="execution tier for the workload's deployments")
        serve.add_argument("--store", default=None,
                           help="persistent bundle store directory: misses fetch "
                                "verified artifacts from disk before compiling")
        serve.add_argument("--processes", type=int, default=1,
                           help="worker processes; >1 serves on the "
                                "process-parallel plane (bundles shipped by "
                                "digest via the store)")
        serve.add_argument("--arrival", default="none",
                           choices=["none", "constant", "poisson"],
                           help="stream arrivals into the plane instead of "
                                "offering the whole workload at once")
        serve.add_argument("--rps", type=float, default=50.0,
                           help="arrival rate for --arrival constant/poisson")
        serve.add_argument("--trace-out", default=None,
                           help="write request spans here: .jsonl for the "
                                "event log, .json for a Perfetto/Chrome "
                                "trace (ui.perfetto.dev)")
        serve.add_argument("--metrics-out", default=None,
                           help="write the metrics-registry snapshot JSON here")

    cluster = sub.add_parser(
        "bench-cluster",
        help="simulate a replica fleet under load, per routing policy",
    )
    cluster.add_argument("--models", default="lenet5,resnet18",
                         help="comma-separated zoo models (the workload mix)")
    cluster.add_argument("--config", default="nv_small", choices=sorted(CONFIGS))
    cluster.add_argument("--precision", default="int8",
                         choices=[p.value for p in Precision])
    cluster.add_argument("--policy", default="all",
                         choices=["all", "cache_affinity", "least_outstanding",
                                  "round_robin"],
                         help="routing policy (or all, for a comparison table)")
    cluster.add_argument("--arrival", default="poisson",
                         choices=["constant", "poisson", "bursty"],
                         help="arrival process of the open-loop workload")
    cluster.add_argument("--rps", type=float, default=100.0,
                         help="offered request rate (base rate for bursty)")
    cluster.add_argument("--requests", type=int, default=300)
    cluster.add_argument("--replicas", type=int, default=2,
                         help="initial fleet size (autoscaler minimum)")
    cluster.add_argument("--resident-capacity", type=int, default=8,
                         help="bundles each replica keeps warm (the fast-path LRU)")
    cluster.add_argument("--autoscale", action="store_true",
                         help="enable the SLO-aware autoscaler")
    cluster.add_argument("--max-replicas", type=int, default=8)
    cluster.add_argument("--slo-ms", type=float, default=100.0,
                         help="latency SLO (goodput cut-off and autoscaler target)")
    cluster.add_argument("--queue-depth", type=int, default=16,
                         help="admission control: shed past this per-replica depth")
    cluster.add_argument("--max-rejection-rate", type=float, default=0.05,
                         help="fleet SLO on the shed fraction (reported)")
    cluster.add_argument("--seed", type=int, default=7,
                         help="one seed drives generated arrivals and the model "
                              "mix (unused with --trace: the trace is the workload)")
    cluster.add_argument("--trace", default=None,
                         help="replay a JSONL trace instead of generating arrivals")
    cluster.add_argument("--store", default=None,
                         help="persistent bundle store: replicas acquire artifacts "
                              "by fetching from it instead of recompiling")
    cluster.add_argument("--out", default=None,
                         help="write per-policy metrics JSON to this path")
    cluster.add_argument("--trace-out", default=None,
                         help="write virtual-clock request spans here "
                              "(.jsonl or Perfetto .json)")

    warm = sub.add_parser(
        "warmup",
        help="pre-compile deployments into the persistent bundle store",
    )
    warm.add_argument("--models", default="lenet5,resnet18",
                      help="comma-separated zoo models to warm")
    warm.add_argument("--config", default="nv_small", choices=sorted(CONFIGS))
    warm.add_argument("--precision", default="int8", choices=[p.value for p in Precision])
    warm.add_argument("--seed", type=int, default=2024,
                      help="flow seed (part of the deployment key)")
    warm.add_argument("--store", default=None,
                      help="store directory (default: $REPRO_STORE_DIR or .repro-store)")
    warm.add_argument("--out", default=None,
                      help="write warmup/store stats JSON to this path")
    warm.add_argument("--verify", action="store_true",
                      help="statically analyze each warmed bundle; fail on ERROR")

    store = sub.add_parser("store", help="inspect the persistent bundle store")
    store.add_argument("action", choices=["ls", "verify", "gc"],
                       help="ls: inventory; verify: deep integrity check; "
                            "gc: evict LRU artifacts past the caps")
    store.add_argument("--static", action="store_true",
                       help="verify: also run the static descriptor-chain "
                            "analyzer over each artifact")
    store.add_argument("--store", default=None,
                       help="store directory (default: $REPRO_STORE_DIR or .repro-store)")
    store.add_argument("--max-mib", type=float, default=None,
                       help="gc: evict LRU artifacts beyond this total size")
    store.add_argument("--max-objects", type=int, default=None,
                       help="gc: evict LRU artifacts beyond this count")

    trace = sub.add_parser(
        "trace",
        help="inspect span traces: view trees, summarize, convert formats",
    )
    trace.add_argument("action", choices=["view", "summarize", "export", "vp"],
                       help="view: span trees; summarize: per-span latency "
                            "table; export: convert .jsonl <-> Perfetto "
                            ".json; vp: convert a VP transaction log")
    trace.add_argument("--in", dest="infile", required=True,
                       help="input trace (.jsonl, .json, or VP text log)")
    trace.add_argument("--out", default=None,
                       help="output path for export/vp (.jsonl or .json)")
    trace.add_argument("--limit", type=int, default=None,
                       help="view: show at most this many traces")
    trace.add_argument("--frequency-mhz", type=float, default=100.0,
                       help="vp: clock for cycle->seconds conversion")

    metrics = sub.add_parser(
        "metrics",
        help="render and merge metrics-registry JSON snapshots",
    )
    metrics.add_argument("inputs", nargs="+",
                         help="registry snapshot JSON files (--metrics-out)")
    metrics.add_argument("--out", default=None,
                         help="write the merged registry snapshot here")

    sanity = sub.add_parser("sanity", help="run the NVDLA sanity test traces")
    sanity.add_argument("--trace", default=None)
    sanity.add_argument("--config", default="nv_small", choices=sorted(CONFIGS))

    report = sub.add_parser("report", help="regenerate all experiments as markdown")
    report.add_argument("--out", default="report.md")
    report.add_argument("--full", action="store_true", help="all six Table III models")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "flow":
        return _cmd_flow(args)
    if args.command in ("table1", "table2", "table3"):
        return _cmd_table(args, int(args.command[-1]))
    if args.command == "synth":
        return _cmd_synth(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "bench-serve":
        return _cmd_bench_serve(args)
    if args.command == "bench-cluster":
        return _cmd_bench_cluster(args)
    if args.command == "warmup":
        return _cmd_warmup(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "sanity":
        return _cmd_sanity(args)
    if args.command == "report":
        from pathlib import Path

        from repro.harness.report_md import generate_report

        models = (
            ("lenet5", "resnet18", "resnet50", "mobilenet", "googlenet", "alexnet")
            if args.full
            else ("lenet5", "resnet18", "resnet50")
        )
        text = generate_report(table3_models=models)
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
