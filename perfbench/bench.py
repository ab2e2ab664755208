"""Benchmark runner: set-up, timed window, checks, metrics, provenance.

``run_benchmark`` is the whole benchmark for one workload and seed; the
command-line wrapper is ``run.py``.  Untraced runs report the
end-to-end metrics, scaled to reference host speed (:mod:`hostspeed`),
and the raw figures in the report.  A traced run (``trace=True``) splits its time into
an untraced half-window and a traced one on the same set-up, and
reports the per-layer metrics, the tracing overhead (traced vs
untraced service time per request) and the accuracy counts.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from accuracy import accuracy_counts  # noqa: E402
from hostspeed import probe, scale  # noqa: E402
from layers import LayerTracer, NoTrace, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up repetitions per untraced run; ``setup_s`` takes their median.
SETUP_REPS = 3

#: The tail percentile of each workload, fixed so two commits always
#: compare the same statistic: the highest that keeps at least ten
#: samples beyond it at the op rates the benchmark was defined at
#: (30 s windows: 28-39 deploys, 280-580 simulations or bursts).  The
#: two loops with hundreds of ops use p90 so that this still holds for a
#: commit that runs them at half the speed.
TAIL_PCT = {"deploy": 60, "simulate": 90, "serve_burst": 90}


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over every Python source file of the package under test."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    import repro

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "repro_file": repro.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def _timings(latencies, requests, tail_pct) -> dict[str, float]:
    return {
        "ops_per_s": requests / sum(latencies),
        "latency_ms.p50": statistics.median(latencies) * 1e3,
        "latency_ms.tail": percentile(latencies, tail_pct) * 1e3,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  started: float | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report).

    ``started`` is the ``perf_counter`` reading at process start, so
    ``setup_s`` includes the imports.
    """
    clock = time.perf_counter
    started = clock() if started is None else started
    first_probe = probe(clock)
    cls = WORKLOADS[workload]
    for module in cls.imports:
        importlib.import_module(module)
    import_s = clock() - started
    before = probe(clock)
    imports = (import_s, scale(import_s, first_probe, before))
    tail_pct = TAIL_PCT[workload]

    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setups = []  # (raw, scaled) seconds per set-up
        for _ in range(1 if trace else SETUP_REPS):
            began = clock()
            bench = cls(seed, scratch)
            bench.setup()
            took = clock() - began
            after = probe(clock)
            setups.append((took, scale(took, before, after)))
            before = after
        window = bench.run_window(seconds / 2 if trace else seconds, clock, NoTrace)
        if trace:
            tracer = LayerTracer(clock)
            tracer.install()
            try:
                traced = bench.run_window(seconds / 2, clock, tracer)
            finally:
                tracer.uninstall()
        failed = bench.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    raw_setup_s = imports[0] + statistics.median(raw for raw, _ in setups)
    report = {
        "provenance": provenance(workload, seed),
        "seconds": seconds,
        "import_s": import_s,
        "setup_reps_s": [raw for raw, _ in setups],
        "ops": len(window.latencies),
        "requests": window.requests,
        "tail_pct": tail_pct,
        "busy_s": sum(window.latencies),
        "raw": {"setup_s": raw_setup_s,
                **_timings(window.latencies, window.requests, tail_pct)},
        "scaled_over_raw": sum(window.scaled) / sum(window.latencies),
    }
    attempted = window.requests
    if trace:
        attempted += traced.requests
        metrics = layer_metrics(tracer.spans, len(traced.latencies))
        batches = traced.batch_sizes
        metrics["serve.batch_size.mean"] = statistics.fmean(batches) if batches else 0.0
        metrics["harness.trace_overhead"] = (
            (sum(traced.scaled) / traced.requests) / (sum(window.scaled) / window.requests)
            - 1.0
        )
        metrics.update(accuracy_counts())
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        from repro.obs import write_jsonl

        report["spans"] = write_jsonl(spans_path, tracer.spans)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["traced_ops"] = len(traced.latencies)
    else:
        metrics = {
            "setup_s": imports[1] + statistics.median(scaled for _, scaled in setups),
            **_timings(window.scaled, window.requests, tail_pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in metrics.items()
        },
    }
    return result, report


def _unit(name: str) -> str:
    """Unit of a metric, from its name."""
    if name == "setup_s":
        return "s"
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_bytes") or name.endswith(".bytes"):
        return "bytes"
    if name.endswith("host_us_per_kinstr"):
        return "us/kinstr"
    if name.endswith(("_share", "_rate", "coverage", "overhead", "_error", ".cpi")):
        return "ratio"
    return "count"
