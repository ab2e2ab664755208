"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "nv_small" in out and "lenet5" in out


def test_run_lenet_timing(capsys):
    code = main(["run", "--model", "lenet5", "--fidelity", "timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "DONE" in out and "cycles" in out


def test_flow_dumps_artifacts(tmp_path, capsys):
    code = main(["flow", "--model", "lenet5", "--out", str(tmp_path)])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {"lenet5.prototxt", "lenet5.cfg", "lenet5.S", "lenet5.mem", "vp_trace.log"} <= names
    assert "weights.bin" in names


def test_table1(capsys):
    assert main(["table1"]) == 0
    assert "nv_small NVDLA" in capsys.readouterr().out


def test_synth_nv_small_fits(capsys):
    assert main(["synth", "--config", "nv_small"]) == 0
    assert "FITS" in capsys.readouterr().out


def test_synth_nv_full_fails(capsys):
    assert main(["synth", "--config", "nv_full"]) == 2
    assert "OVER-UTILIZED" in capsys.readouterr().out


def test_sanity_all_traces(capsys):
    assert main(["sanity"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_sanity_single_trace(capsys):
    assert main(["sanity", "--trace", "conv"]) == 0
    assert "conv" in capsys.readouterr().out


def test_serve_mixed_models(capsys):
    code = main(
        ["serve", "--models", "lenet5", "--requests", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "requests: 3" in out
    assert "hit rate" in out and "p99" in out


def test_bench_serve_reports_speedup(capsys):
    code = main(
        ["bench-serve", "--models", "lenet5", "--requests", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "speedup" in out and "req/s" in out


def test_serve_fast_mode_records_its_profile(capsys):
    code = main(
        [
            "serve", "--models", "lenet5", "--requests", "3", "--mode", "fast",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "requests: 3" in out
    assert "+fast" in out  # per-deployment metrics name the tier


def test_run_fast_mode_autocalibrates(capsys):
    """Fast mode records the bundle's profile on first use and reports
    exactly the cycle-accurate run's latency."""
    args = ["run", "--model", "lenet5", "--fidelity", "timing"]
    assert main(args) == 0
    reference = capsys.readouterr().out
    code = main(args + ["--mode", "fast"])
    out = capsys.readouterr().out
    assert code == 0
    assert "DONE" in out and "cycles" in out

    def latency(text):
        return next(line for line in text.splitlines() if line.startswith("latency:"))

    assert latency(out) == latency(reference)


def test_warmup_then_store_hits(tmp_path, capsys):
    root = str(tmp_path / "store")
    code = main(
        ["warmup", "--models", "lenet5", "--store", root]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "compiled in" in out
    assert "1 artifact(s)" in out
    # Re-warming the same deployment fetches instead of recompiling.
    assert main(
        ["warmup", "--models", "lenet5", "--store", root]
    ) == 0
    assert "fetched in" in capsys.readouterr().out


def test_warmup_writes_stats_json(tmp_path, capsys):
    import json

    root = str(tmp_path / "store")
    out_path = tmp_path / "warmup.json"
    code = main(
        [
            "warmup", "--models", "lenet5",
            "--store", root, "--out", str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["entries"] == 1
    assert payload["cache"]["compiles"] == 1
    assert payload["stats"]["writes"] >= 1


def test_store_ls_verify_gc(tmp_path, capsys):
    root = str(tmp_path / "store")
    assert main(
        ["warmup", "--models", "lenet5", "--store", root]
    ) == 0
    capsys.readouterr()

    assert main(["store", "ls", "--store", root]) == 0
    out = capsys.readouterr().out
    assert "lenet5/nv_small" in out and "1 artifact(s)" in out

    assert main(["store", "verify", "--store", root]) == 0
    assert "1 ok, 0 problem(s)" in capsys.readouterr().out

    # A gc bounded to zero bytes evicts the artifact...
    assert main(["store", "gc", "--store", root, "--max-mib", "0"]) == 0
    assert "1 evicted" in capsys.readouterr().out
    # ...after which ls shows an empty store.
    assert main(["store", "ls", "--store", root]) == 0
    assert "0 artifact(s)" in capsys.readouterr().out


def test_store_verify_fails_on_corruption(tmp_path, capsys):
    root = tmp_path / "store"
    assert main(
        ["warmup", "--models", "lenet5", "--store", str(root)]
    ) == 0
    capsys.readouterr()
    victim = next((root / "objects").glob("*/*"))
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    assert main(["store", "verify", "--store", str(root)]) == 1
    assert "BAD" in capsys.readouterr().out


def test_serve_with_store_prewarms_from_disk(tmp_path, capsys):
    root = str(tmp_path / "store")
    assert main(
        ["warmup", "--models", "lenet5", "--store", root]
    ) == 0
    capsys.readouterr()
    code = main(
        [
            "serve", "--models", "lenet5", "--requests", "3", "--store", root,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1 from store, 0 compiled" in out


def test_serve_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["serve", "--models", "nonexistent"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ----------------------------------------------------------------------
# Observability: --trace-out/--metrics-out and the trace/metrics verbs.
# ----------------------------------------------------------------------


def test_serve_writes_trace_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    code = main(
        [
            "serve", "--models", "lenet5", "--requests", "3",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "spans written to" in out
    assert trace_path.exists() and metrics_path.exists()

    # Summarize reports the span population with no orphans.
    assert main(["trace", "summarize", "--in", str(trace_path)]) == 0
    summary = capsys.readouterr().out
    assert "0 orphans" in summary
    assert "request" in summary and "execute" in summary

    # View renders trees; exit 0 means every parent link resolved.
    assert main(["trace", "view", "--in", str(trace_path), "--limit", "2"]) == 0
    view = capsys.readouterr().out
    assert "trace req-0" in view and "execute" in view

    # Export converts to Perfetto JSON, which reads back as spans.
    perfetto = tmp_path / "trace.json"
    assert main(
        ["trace", "export", "--in", str(trace_path), "--out", str(perfetto)]
    ) == 0
    capsys.readouterr()
    import json

    payload = json.loads(perfetto.read_text())
    assert any(e.get("ph") == "X" for e in payload["traceEvents"])

    # The metrics verb renders the snapshot (and merging it with itself
    # doubles the counters).
    assert main(["metrics", str(metrics_path)]) == 0
    rendered = capsys.readouterr().out
    assert "serve.requests: 3" in rendered
    assert main(["metrics", str(metrics_path), str(metrics_path)]) == 0
    assert "serve.requests: 6" in capsys.readouterr().out


def test_trace_vp_converts_a_vp_log(tmp_path, capsys):
    from repro.vp.trace_log import TraceLog

    log = TraceLog()
    log.log_csb(12, 0xB010, 0x1, True)
    log.log_dbb(20, 0x100000, b"\x00" * 64, False)
    vp_log = tmp_path / "vp_trace.log"
    vp_log.write_text(log.render())
    out_path = tmp_path / "vp_trace.json"
    code = main(
        ["trace", "vp", "--in", str(vp_log), "--out", str(out_path)]
    )
    assert code == 0
    assert "2 transactions written" in capsys.readouterr().out
    import json

    payload = json.loads(out_path.read_text())
    names = [e["name"] for e in payload["traceEvents"] if e.get("ph") == "X"]
    assert names == ["csb.write", "dbb.read"]


def test_bench_cluster_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "cluster.jsonl"
    code = main(
        [
            "bench-cluster", "--models", "lenet5", "--requests", "40",
            "--policy", "round_robin", "--trace-out", str(trace_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "spans written to" in out
    from repro.obs import build_trees, read_trace

    spans = read_trace(trace_path)
    assert spans
    assert all(s["trace_id"].startswith("round_robin:req-") for s in spans)
    assert sum(len(t.orphans) for t in build_trees(spans)) == 0


def test_analyze_reports_clean(capsys):
    code = main(["analyze", "--models", "lenet5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "passes:" in out and "clean" in out
    assert "chains" in out and "surfaces" in out


def test_analyze_writes_diagnostics_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "diags.json"
    code = main(["analyze", "--models", "lenet5", "--out", str(out_path)])
    assert code == 0
    assert "diagnostics written to" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["config"] == "nv_small"
    (report,) = payload["reports"]
    assert report["artifact"] == "lenet5/nv_small"
    assert report["clean"] is True and report["counts"]["error"] == 0


def test_run_verify_flags_clean_bundle(capsys):
    code = main(
        ["run", "--model", "lenet5", "--fidelity", "timing", "--verify"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "static analysis: clean" in out and "DONE" in out


def test_warmup_verify_and_store_verify_static(tmp_path, capsys):
    root = str(tmp_path / "store")
    code = main(
        ["warmup", "--models", "lenet5", "--store", root, "--verify"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "static analysis: clean" in out

    assert main(["store", "verify", "--static", "--store", root]) == 0
    assert "1 ok, 0 problem(s)" in capsys.readouterr().out


def test_serve_arrival_gaps_follow_the_arrival_processes():
    """``serve --arrival`` draws its gaps from the cluster's arrival
    processes on the ``(seed, 0xA221)`` stream: constant gaps are
    ``1 / rps``, Poisson gaps the stream's exponential draws."""
    import argparse

    import numpy as np

    from repro.cli import _arrival_gaps

    args = argparse.Namespace(arrival="constant", rps=40.0, seed=7)
    assert _arrival_gaps(args, 5) == [0.025] * 5
    args.arrival = "poisson"
    expected = np.random.default_rng((7, 0xA221)).exponential(1 / 40.0, size=1000)
    assert _arrival_gaps(args, 1000) == expected.tolist()
    args.arrival = "none"
    assert _arrival_gaps(args, 5) is None
    args.arrival, args.rps = "poisson", 0.0
    with pytest.raises(SystemExit, match="--rps must be positive"):
        _arrival_gaps(args, 5)
