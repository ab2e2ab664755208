"""The compiler driver: network → loadable.

Equivalent to invoking the NVDLA compiler in the paper's Fig. 1 flow.
For INT8 a calibration table is required; one is generated on the fly
(the paper's future-work item) when not supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompilerError
from repro.compiler.allocator import allocate_memory
from repro.compiler.fusion import fuse_descriptor_chains
from repro.compiler.loadable import Loadable
from repro.compiler.lowering import lower_network
from repro.compiler.tiling import analyze_schedule, summarize
from repro.compiler.weight_packer import pack_schedule_weights
from repro.nn.graph import Network
from repro.nn.quantize import CalibrationTable, calibrate_network
from repro.nvdla.config import HardwareConfig, Precision


@dataclass(frozen=True)
class CompileOptions:
    """Knobs of one compilation.

    Where the loadable lives is not a knob: the allocator places every
    region at absolute bus addresses inside the SoC's DRAM window
    (:mod:`repro.core.address_map`), above the status page, so VP
    traces replay unmodified on the SoC; the weight packer aligns each
    blob to :data:`~repro.compiler.weight_packer.WEIGHT_ALIGN`.
    """

    precision: Precision = Precision.INT8
    calibration: CalibrationTable | None = None
    calibration_samples: int = 2
    #: Fusion tier: ``"descriptor"`` additionally collapses conv →
    #: SDP/pool pairs into single pipelined chains (PDP streams the
    #: SDP result on-chip, no intermediate DRAM surface);
    #: ``"graph"`` keeps only the graph-IR absorption (BN/Scale/ReLU
    #: folding, residual adds riding the producing conv's SDP pass);
    #: ``"off"`` emits one descriptor chain per network layer —
    #: standalone ReLU SDP ops, standalone eltwise ops, every
    #: intermediate through DRAM.  BN/Scale folding always happens — a
    #: standalone BatchNorm has no hardware lowering.
    fusion: str = "descriptor"


FUSION_MODES = ("off", "graph", "descriptor")


def compile_network(
    net: Network,
    config: HardwareConfig,
    options: CompileOptions | None = None,
    verify: bool = False,
) -> Loadable:
    """Compile ``net`` for ``config``; returns a deployable loadable.

    ``verify=True`` runs the :mod:`repro.analyze` static checker over
    the produced loadable and raises
    :class:`~repro.errors.StaticAnalysisError` on any ERROR finding.
    It is a keyword, not a :class:`CompileOptions` field, so verified
    and unverified compiles share cache keys and fingerprints.
    """
    options = options or CompileOptions()
    precision = options.precision
    if options.fusion not in FUSION_MODES:
        raise CompilerError(
            f"unknown fusion mode {options.fusion!r} (choose from {FUSION_MODES})"
        )
    if not config.supports(precision):
        raise CompilerError(
            f"{config.name} does not support {precision.value} "
            f"(supported: {[p.value for p in config.precisions]})"
        )
    calibration = options.calibration
    if precision is Precision.INT8 and calibration is None:
        calibration = calibrate_network(net, samples=options.calibration_samples)

    schedule = lower_network(
        net,
        config,
        precision,
        calibration,
        absorb_relu=options.fusion != "off",
    )
    if options.fusion == "descriptor":
        fuse_descriptor_chains(schedule)
    tiling = analyze_schedule(schedule, config)
    weight_blob = pack_schedule_weights(schedule, config)
    memory_map = allocate_memory(schedule, config, weight_blob_size=len(weight_blob))
    loadable = Loadable(
        network=net.name,
        config=config.name,
        precision=precision,
        schedule=schedule,
        weight_blob=weight_blob,
        memory_map=memory_map,
        tiling_summary=summarize(tiling),
    )
    if verify:
        # Imported here: repro.analyze pulls in repro.nvdla, which
        # cannot be resolved while this package is mid-import.
        from repro.analyze import analyze_loadable

        analyze_loadable(loadable, config).raise_for_errors()
    return loadable
