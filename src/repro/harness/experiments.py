"""Canonical experiment runners — one per paper table/figure.

These functions do the full flows (compile → VP trace → bare-metal
codegen → SoC execution) with the same configurations the paper used,
and return structured rows so the benchmarks can both print the
paper's tables and assert shape properties.

Every cycle count is a bundle's recorded cycle profile
(:func:`repro.core.fastpath.record_profile`): the bare-metal program
never reads tensor data, so the tables build their bundles at timing
fidelity, the cheaper VP run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baremetal.pipeline import BaremetalBundle
from repro.baseline.esp_platform import EspPlatform
from repro.core import Soc, TestSystem
from repro.core.fastpath import record_profile
from repro.diagrams import (
    render_fig1_software_flow,
    render_fig2_soc,
    render_fig3_virtual_platform,
    render_fig4_test_setup,
)
from repro.fpga import UtilizationReport, build_table1_report, synthesize
from repro.harness.reporting import (
    PAPER_TABLE2_BASELINE_MS,
    PAPER_TABLE2_MS,
    PAPER_TABLE3_CYCLES,
)
from repro.nn.graph import Network
from repro.nn.zoo import ZOO
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import HardwareConfig, Precision
from repro.vp import VirtualPlatform

TABLE2_MODELS = ("lenet5", "resnet18", "resnet50")
TABLE3_MODELS = ("lenet5", "resnet18", "resnet50", "mobilenet", "googlenet", "alexnet")


def _bundle_for(
    model: str,
    config: HardwareConfig,
    precision: Precision,
    fidelity: str,
) -> tuple[Network, BaremetalBundle]:
    """Build (or fetch) a deployment's artefacts via the shared cache.

    Tables, figures and ablations frequently revisit the same
    (model, config, precision, fidelity) points; routing them through
    :func:`repro.serve.shared_cache` makes each point pay the offline
    flow once per process.
    """
    from repro.serve import shared_cache

    net = ZOO[model]()
    bundle = shared_cache().bundle_for(
        model, config, precision=precision, fidelity=fidelity
    )
    return net, bundle


# ----------------------------------------------------------------------
# Table I.
# ----------------------------------------------------------------------


def run_table1(config: HardwareConfig = NV_SMALL) -> UtilizationReport:
    """FPGA resource utilisation of the full system."""
    return build_table1_report(config)


def run_table1_nv_full_check() -> list[str]:
    """The paper's nv_full synthesis observation (LUT over-utilisation)."""
    return synthesize(NV_FULL).violations


# ----------------------------------------------------------------------
# Table II.
# ----------------------------------------------------------------------


@dataclass
class Table2Row:
    model: str
    layers: int
    input_shape: tuple[int, int, int]
    model_size_mb: float
    cycles: int
    ms_at_100mhz: float
    paper_ms: float
    baseline_ms: float | None
    paper_baseline_ms: float | None
    hw_ops: int

    @property
    def ratio(self) -> float:
        return self.ms_at_100mhz / self.paper_ms

    @property
    def speedup_vs_baseline(self) -> float | None:
        if self.baseline_ms is None:
            return None
        return self.baseline_ms / self.ms_at_100mhz


def run_table2(
    models: tuple[str, ...] = TABLE2_MODELS,
    with_baseline: bool = True,
) -> list[Table2Row]:
    """nv_small FPGA inference latencies at 100 MHz, plus the ESP
    Linux-driver baseline at 50 MHz."""
    rows: list[Table2Row] = []
    for model in models:
        net, bundle = _bundle_for(model, NV_SMALL, Precision.INT8, "timing")
        stats = record_profile(bundle, NV_SMALL).stats
        baseline_ms = None
        if with_baseline:
            baseline_ms = EspPlatform().run(bundle.loadable).milliseconds
        rows.append(
            Table2Row(
                model=model,
                layers=net.layer_count() + 1,  # the paper counts the data layer
                input_shape=net.input_shape,
                model_size_mb=net.model_size_bytes() / 1e6,
                cycles=stats.cycles,
                ms_at_100mhz=stats.seconds * 1e3,
                paper_ms=PAPER_TABLE2_MS[model],
                baseline_ms=baseline_ms,
                paper_baseline_ms=PAPER_TABLE2_BASELINE_MS[model],
                hw_ops=bundle.loadable.hw_op_count(),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table III.
# ----------------------------------------------------------------------


@dataclass
class Table3Row:
    model: str
    input_shape: tuple[int, int, int]
    model_size_mb: float
    cycles: int
    ms_at_100mhz: float
    paper_cycles: int
    hw_ops: int

    @property
    def ratio(self) -> float:
        return self.cycles / self.paper_cycles


def run_table3(models: tuple[str, ...] = TABLE3_MODELS) -> list[Table3Row]:
    """nv_full simulation cycle counts (FP16) at 100 MHz.

    Simulated with the widened 64-bit memory path the paper's
    conclusion prescribes for nv_full (the published 32-bit converter
    is an nv_small artefact).
    """
    rows: list[Table3Row] = []
    for model in models:
        net, bundle = _bundle_for(model, NV_FULL, Precision.FP16, "timing")
        stats = record_profile(bundle, NV_FULL, memory_bus_width_bits=64).stats
        rows.append(
            Table3Row(
                model=model,
                input_shape=net.input_shape,
                model_size_mb=net.model_size_bytes() / 1e6,
                cycles=stats.cycles,
                ms_at_100mhz=stats.seconds * 1e3,
                paper_cycles=PAPER_TABLE3_CYCLES[model],
                hw_ops=bundle.loadable.hw_op_count(),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figures.
# ----------------------------------------------------------------------


def run_fig1(model: str = "lenet5") -> str:
    _, bundle = _bundle_for(model, NV_SMALL, Precision.INT8, "functional")
    return render_fig1_software_flow(bundle)


def run_fig2(config: HardwareConfig = NV_SMALL) -> str:
    return render_fig2_soc(Soc(config))


def run_fig3(model: str = "lenet5") -> str:
    net = ZOO[model]()
    from repro.compiler import compile_network
    from repro.vp import NvdlaRuntime

    loadable = compile_network(net, NV_SMALL)
    platform = VirtualPlatform(NV_SMALL)
    runtime = NvdlaRuntime(platform)
    runtime.deploy(loadable)
    import numpy as np

    runtime.set_input(np.zeros(net.input_shape, dtype=np.float32))
    runtime.execute()
    return render_fig3_virtual_platform(platform)


def run_fig4(model: str = "lenet5") -> str:
    _, bundle = _bundle_for(model, NV_SMALL, Precision.INT8, "functional")
    system = TestSystem(Soc(NV_SMALL))
    system.run_experiment(bundle)
    return render_fig4_test_setup(system)


# ----------------------------------------------------------------------
# Ablations (DESIGN.md experiments A1/A2).
# ----------------------------------------------------------------------


@dataclass
class AblationPoint:
    label: str
    value: float
    cycles: int
    ms: float
    detail: dict = field(default_factory=dict)


def run_ablation_baremetal(model: str = "lenet5") -> list[AblationPoint]:
    """Bare-metal vs Linux-driver: sweep the driver-stack overheads.

    Shows how much of the ESP gap is the fixed runtime initialisation
    versus the per-op kernel round trips — the paper's core claim is
    that bare-metal removes all of it.
    """
    from repro.baseline.linux_driver import LinuxDriverModel, LinuxOverheadParams

    _, bundle = _bundle_for(model, NV_SMALL, Precision.INT8, "timing")
    stats = record_profile(bundle, NV_SMALL).stats
    points = [
        AblationPoint("bare-metal @100MHz", 0.0, stats.cycles, stats.seconds * 1e3)
    ]
    for scale in (0.0, 0.25, 0.5, 1.0):
        params = LinuxOverheadParams(
            runtime_init_cycles=int(12_200_000 * scale),
            submit_cycles_per_op=int(30_000 * scale),
            irq_path_cycles_per_op=int(12_000 * scale),
        )
        result = LinuxDriverModel(NV_SMALL, 50e6, params).run(bundle.loadable)
        points.append(
            AblationPoint(
                f"linux @50MHz, overhead x{scale:g}",
                scale,
                result.cycles,
                result.milliseconds,
                detail=result.breakdown,
            )
        )
    return points


def run_ablation_width(model: str = "resnet50") -> list[AblationPoint]:
    """Memory-path width sweep (the paper's 64 → 512-bit direction)."""
    _, bundle = _bundle_for(model, NV_FULL, Precision.FP16, "timing")
    points: list[AblationPoint] = []
    for width in (32, 64, 128, 256, 512):
        stats = record_profile(bundle, NV_FULL, memory_bus_width_bits=width).stats
        points.append(
            AblationPoint(f"{width}-bit memory path", width, stats.cycles, stats.seconds * 1e3)
        )
    return points


def run_ablation_frequency(model: str = "lenet5") -> list[AblationPoint]:
    """System-clock sweep: the paper reports 100 MHz; the baseline runs
    at 50 MHz.  Cycle counts must be frequency-invariant (the whole SoC
    shares one clock domain), so latency scales exactly with 1/f."""
    _, bundle = _bundle_for(model, NV_SMALL, Precision.INT8, "timing")
    points: list[AblationPoint] = []
    for mhz in (50, 100, 150, 200, 300):
        stats = record_profile(bundle, NV_SMALL, frequency_hz=mhz * 1e6).stats
        points.append(AblationPoint(f"{mhz} MHz", float(mhz), stats.cycles, stats.seconds * 1e3))
    return points
