"""Descriptor-fusion gates — correctness, cycles, and DRAM traffic.

The fusion ladder (``off`` → ``graph`` → ``descriptor``, see
``repro.compiler.fusion``) is locked down by four contracts:

1. **Bit-identity**: ``descriptor`` ≡ ``graph`` bit for bit on every
   zoo model, config and execution tier; ``off`` matches exactly for
   eltwise-free models and stays within the per-model ERDMA rounding
   band for the residual models (the per-add 6 % bound compounds with
   serial residual depth — see ``ELTWISE_BANDS`` in the differential
   test suite).
2. **Cycle reduction**: ≥ 10 % total-cycle reduction (off →
   descriptor) on at least three conv-heavy zoo models.
3. **DRAM traffic**: the fused schedule moves strictly fewer bytes
   through MCIF than the unfused one wherever fusion removed a chain
   — the eliminated intermediate surfaces are real, not renamed.
4. **Analyzability**: the full fused zoo analyzes clean, so fusion
   never trades speed for a blind static verifier.

Bundles are generated at ``fidelity="timing"`` (the harness's sweep
idiom — skips the generation-time VP's tensor compute and DBB trace
for AlexNet-class models); both executors compute real tensors
themselves from the packed input, and
``tests/compiler/test_fusion_differential.py::test_timing_shortcut_is_sound``
proves the shortcut is exact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analyze import analyze_loadable
from repro.baremetal import generate_baremetal
from repro.compiler import CompileOptions
from repro.core import FastPathExecutor, Soc
from repro.nn.quantize import CalibrationTable, calibrate_network
from repro.nn.zoo import ZOO
from repro.nvdla.config import Precision, get_config
from repro.nvdla.fastpath import pack_input

try:
    from benchmarks.conftest import single_shot
except ModuleNotFoundError:  # script mode: sys.path[0] is benchmarks/
    from conftest import single_shot

FUSION_MODES = ("off", "graph", "descriptor")
#: config name -> (precision, memory bus width)
CONFIG_POINTS = {"nv_small": (Precision.INT8, 32), "nv_full": (Precision.FP16, 64)}

ZOO_MODELS = ("lenet5", "resnet18", "resnet50", "mobilenet", "googlenet", "alexnet")
SMOKE_MODELS = ("lenet5", "resnet18")
#: models the ≥10 % cycle-reduction gate may count (conv+pool heavy)
CONV_HEAVY = ("resnet18", "resnet50", "mobilenet", "googlenet")
#: per-model max-|delta| band, as a fraction of the output scale
#: (kept in sync with tests/compiler/test_fusion_differential.py)
ELTWISE_BANDS = {"resnet18": 0.06, "resnet50": 0.30}
MIN_OFF_CORRELATION = 0.99

_calibrations: dict[str, CalibrationTable] = {}
_bundles: dict[tuple[str, str, str], object] = {}


def _calibration(model: str) -> CalibrationTable:
    if model not in _calibrations:
        _calibrations[model] = calibrate_network(ZOO[model](), samples=2)
    return _calibrations[model]


def _input(model: str) -> np.ndarray:
    rng = np.random.default_rng(2024)
    return rng.uniform(-1.0, 1.0, size=ZOO[model]().input_shape).astype(np.float32)


def _bundle(model: str, config_name: str, mode: str):
    key = (model, config_name, mode)
    if key not in _bundles:
        precision, _ = CONFIG_POINTS[config_name]
        options = CompileOptions(
            precision=precision,
            fusion=mode,
            calibration=_calibration(model) if precision is Precision.INT8 else None,
        )
        bundle = generate_baremetal(
            ZOO[model](),
            get_config(config_name),
            precision=precision,
            fidelity="timing",
            compile_options=options,
        )
        _bundles[key] = bundle
    return _bundles[key]


def _fast_run(bundle, config_name: str, model: str):
    """Functional fast-tier run; returns (output, total_cycles, dram_bytes)."""
    _, bus = CONFIG_POINTS[config_name]
    executor = FastPathExecutor(get_config(config_name), memory_bus_width_bits=bus)
    result = executor.run(bundle, input_image=_input(model))
    assert result.ok and result.output is not None
    stats = executor.mcif.stats
    return result.output, result.cycles, stats.bytes_read + stats.bytes_written


def _soc_run(bundle, config_name: str, model: str):
    """Cycle-accurate run; returns (output, cycles, dram_bytes)."""
    _, bus = CONFIG_POINTS[config_name]
    soc = Soc(get_config(config_name), memory_bus_width_bits=bus)
    soc.load_bundle(bundle)
    address, packed = pack_input(bundle.loadable, get_config(config_name), _input(model))
    soc.preload_dram(address, packed)
    result = soc.run_inference(bundle)
    assert result.ok and result.output is not None
    stats = soc.wrapper.engine.mcif.stats
    return result.output, result.cycles, stats.bytes_read + stats.bytes_written


def _off_band_ok(model: str, fused: np.ndarray, off: np.ndarray) -> bool:
    if model in ELTWISE_BANDS:
        scale = float(np.abs(off).max()) + 1e-9
        if float(np.abs(fused - off).max()) > ELTWISE_BANDS[model] * scale:
            return False
        corr = float(np.corrcoef(fused.ravel(), off.ravel())[0, 1])
        return corr >= MIN_OFF_CORRELATION
    return bool(np.array_equal(fused, off))


def run_fusion_sweep(
    models=ZOO_MODELS,
    configs=("nv_small", "nv_full"),
    tier: str = "fast",
):
    """Differential rows for one execution tier over models × configs."""
    execute = _fast_run if tier == "fast" else _soc_run
    rows = []
    for config_name in configs:
        for model in models:
            began = time.perf_counter()
            outs, cycles, dram = {}, {}, {}
            for mode in FUSION_MODES:
                bundle = _bundle(model, config_name, mode)
                outs[mode], cycles[mode], dram[mode] = execute(
                    bundle, config_name, model
                )
            fused_chains = (
                _bundle(model, config_name, "off").loadable.hw_op_count()
                - _bundle(model, config_name, "descriptor").loadable.hw_op_count()
            )
            rows.append({
                "model": model,
                "config": config_name,
                "tier": tier,
                "chains_removed": fused_chains,
                "cycles_off": cycles["off"],
                "cycles_descriptor": cycles["descriptor"],
                "cycle_reduction_pct": round(
                    100.0 * (1 - cycles["descriptor"] / cycles["off"]), 2
                ),
                "dram_bytes_off": dram["off"],
                "dram_bytes_descriptor": dram["descriptor"],
                "dram_reduction_pct": round(
                    100.0 * (1 - dram["descriptor"] / max(1, dram["off"])), 2
                ),
                "identical_descriptor_graph": bool(
                    np.array_equal(outs["descriptor"], outs["graph"])
                ),
                "off_band_ok": _off_band_ok(model, outs["descriptor"], outs["off"]),
                "wall_s": round(time.perf_counter() - began, 1),
            })
    return rows


def run_fused_zoo_analyze(models=ZOO_MODELS, configs=("nv_small", "nv_full")):
    """Analyze every fused (descriptor-mode) artifact; returns rows."""
    rows = []
    for config_name in configs:
        for model in models:
            loadable = _bundle(model, config_name, "descriptor").loadable
            report = analyze_loadable(
                loadable, get_config(config_name),
                artifact=f"{model}/{config_name}+descriptor",
            )
            rows.append({
                "model": model,
                "config": config_name,
                "errors": len(report.errors),
                "warnings": len(report.warnings),
                "clean": report.clean,
            })
    return rows


def check_gates(fast_rows, soc_rows, analyze_rows) -> dict:
    """Evaluate every acceptance gate; returns named booleans."""
    rows = fast_rows + soc_rows
    bit_identical = all(r["identical_descriptor_graph"] for r in rows)
    off_band = all(r["off_band_ok"] for r in rows)
    heavy_wins = {
        r["model"]
        for r in fast_rows
        if r["model"] in CONV_HEAVY and r["cycle_reduction_pct"] >= 10.0
    }
    dram_reduced = all(
        r["dram_bytes_descriptor"] < r["dram_bytes_off"]
        for r in rows
        if r["chains_removed"] > 0
    )
    analyze_clean = all(r["clean"] for r in analyze_rows)
    return {
        "bit_identical_descriptor_graph": bit_identical,
        "off_within_band": off_band,
        "conv_heavy_10pct_models": sorted(heavy_wins),
        "conv_heavy_10pct": len(heavy_wins) >= 3,
        "dram_traffic_reduced": dram_reduced,
        "fused_zoo_analyzes_clean": analyze_clean,
        "ok": (
            bit_identical and off_band and len(heavy_wins) >= 3
            and dram_reduced and analyze_clean
        ),
    }


def _render(rows) -> str:
    lines = ["fusion differential — off vs descriptor, per model x config x tier"]
    for r in rows:
        lines.append(
            f"  {r['model']:<10} {r['config']:<8} {r['tier']:<5} "
            f"-{r['chains_removed']:>2} chains  "
            f"cycles {r['cycles_off']:>12,} -> {r['cycles_descriptor']:>12,} "
            f"({r['cycle_reduction_pct']:5.1f}%)  "
            f"dram -{r['dram_reduction_pct']:5.1f}%  "
            f"{'==' if r['identical_descriptor_graph'] else '!='} graph, "
            f"off {'ok' if r['off_band_ok'] else 'OUT OF BAND'}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest gates
# ----------------------------------------------------------------------


def test_fusion_gates_smoke_matrix(benchmark, report):
    """Both tiers, both configs, smoke models — every gate except the
    conv-heavy count (which needs the sweep models)."""
    def run():
        fast = run_fusion_sweep(models=SMOKE_MODELS, tier="fast")
        soc = run_fusion_sweep(models=SMOKE_MODELS, tier="cycle_accurate")
        analyze = run_fused_zoo_analyze(models=SMOKE_MODELS)
        return fast, soc, analyze

    fast, soc, analyze = single_shot(benchmark, run)
    report(_render(fast + soc))
    gates = check_gates(fast, soc, analyze)
    assert gates["bit_identical_descriptor_graph"]
    assert gates["off_within_band"]
    assert gates["dram_traffic_reduced"]
    assert gates["fused_zoo_analyzes_clean"]
    # resnet18 alone must already clear the 10% bar on the fast tier.
    r18 = next(r for r in fast if r["model"] == "resnet18")
    assert r18["cycle_reduction_pct"] >= 10.0


def test_fusion_gates_full_zoo(benchmark, report):
    """The issue's acceptance gates over the whole zoo (fast tier,
    both configs, plus the fused-zoo analyze gate)."""
    def run():
        fast = run_fusion_sweep(tier="fast")
        analyze = run_fused_zoo_analyze()
        return fast, analyze

    fast, analyze = single_shot(benchmark, run)
    report(_render(fast))
    gates = check_gates(fast, [], analyze)
    assert gates["ok"], gates


# ----------------------------------------------------------------------
# Script entry point (CI artifact).
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    import argparse

    from repro.obs import bench_envelope

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run (lenet5+resnet18, both tiers) for CI")
    parser.add_argument("--out", default=None, help="write results JSON here")
    args = parser.parse_args(argv)

    models = SMOKE_MODELS if args.smoke else ZOO_MODELS
    fast = run_fusion_sweep(models=models, tier="fast")
    soc_models = SMOKE_MODELS if args.smoke else models
    soc = run_fusion_sweep(models=soc_models, tier="cycle_accurate")
    analyze = run_fused_zoo_analyze(models=models)
    print(_render(fast + soc))
    gates = check_gates(fast, soc, analyze)
    if args.smoke:
        # The smoke matrix can't field three conv-heavy models; its
        # cycle gate is resnet18 clearing the bar on the fast tier.
        r18 = next(r for r in fast if r["model"] == "resnet18")
        gates["conv_heavy_10pct"] = r18["cycle_reduction_pct"] >= 10.0
        gates["ok"] = (
            gates["bit_identical_descriptor_graph"] and gates["off_within_band"]
            and gates["conv_heavy_10pct"] and gates["dram_traffic_reduced"]
            and gates["fused_zoo_analyzes_clean"]
        )
    print("gates: " + ("PASS" if gates["ok"] else f"FAIL {gates}"))

    if args.out:
        payload = bench_envelope(
            "bench_fusion.differential_gates",
            {"smoke": args.smoke, "models": list(models),
             "modes": list(FUSION_MODES)},
            {"fast": fast, "cycle_accurate": soc,
             "analyze": analyze, "gates": gates},
        )
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"results written to {args.out}")
    return 0 if gates["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
