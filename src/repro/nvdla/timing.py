"""Analytic per-op cycle model.

Latency of one hardware layer is dominated by three overlapping
activities, and the model takes the slowest (they are pipelined
against each other by CDMA prefetch and the double-buffered CBUF):

- **DBB traffic** — weights (once), input feature map (once per
  kernel split, see :class:`~repro.nvdla.cbuf.Cbuf`), SDP operand
  blobs, and the output write-back; priced by the memory port's burst
  model via :meth:`~repro.nvdla.mcif.Mcif.stream_cycles`,
- **MAC compute** — padded MACs over the array's per-cycle capacity,
  derated by a stripe-sequencing efficiency,
- **post-processor throughput** — SDP/PDP/CDP elements per cycle.

A fixed per-op cost covers descriptor launch and pipeline fill/drain.

Regimes this reproduces (paper Tables II/III): LeNet-5-class models
are weight-DMA bound on nv_small (≈1.7 MB of weights through a 32-bit
memory); ResNet-50 is MAC bound on nv_small (64 INT8 MACs) but
DMA/efficiency bound on nv_full; depthwise and low-channel layers
waste the wide nv_full array through atom padding, which is why
GoogleNet is the slowest Table III entry despite mid-pack model size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nvdla.cbuf import Cbuf
from repro.nvdla.config import HardwareConfig, Precision
from repro.nvdla.descriptors import (
    BdmaDescriptor,
    CdpDescriptor,
    ConvDescriptor,
    EltwiseOp,
    OpTiming,
    PdpDescriptor,
    RubikDescriptor,
    SdpDescriptor,
    SdpSource,
)
from repro.nvdla.layout import weight_size_bytes
from repro.nvdla.mcif import Mcif


@dataclass(frozen=True)
class TimingParams:
    """Calibration constants of the analytic model.

    Values are physically motivated and were fitted once against the
    regimes of the paper's Tables II/III (see EXPERIMENTS.md for the
    paper-vs-measured deltas).
    """

    op_fixed_cycles: int = 400  # descriptor launch + pipeline fill
    op_drain_cycles: int = 200  # write-back tail not hidden by compute
    conv_stripe_efficiency: float = 0.70  # CSC stripe sequencing efficiency
    post_throughput_derate: float = 0.85  # SDP/PDP/CDP sustained vs peak
    lrn_work_factor: float = 3.0  # CDP passes per element vs plain SDP
    rubik_bytes_per_cycle: float = 4.0


#: The constants the engine prices every op with.
DEFAULT_PARAMS = TimingParams()


def conv_op_timing(
    conv: ConvDescriptor,
    sdp: SdpDescriptor,
    config: HardwareConfig,
    cbuf: Cbuf,
    mcif: Mcif,
    params: TimingParams,
) -> OpTiming:
    """Fused convolution + SDP hardware layer."""
    atomic_c, atomic_k = config.atoms(conv.precision)
    atom = config.atom_channels(conv.precision)

    w_bytes = weight_size_bytes(conv.weight_shape, atomic_c, atomic_k, conv.precision)
    alloc = cbuf.default_split(w_bytes)
    splits = cbuf.kernel_splits(w_bytes, alloc.weight_banks)

    in_bytes = conv.input.packed_bytes(atom)
    weight_dma = mcif.stream_cycles(conv.weight_address, w_bytes)
    input_dma = mcif.stream_cycles(conv.input.address, in_bytes) * splits

    operand_dma = _sdp_operand_dma(sdp, config, mcif)
    out_atom = config.atom_channels(sdp.out_precision)
    out_bytes = sdp.output.packed_bytes(out_atom)
    output_dma = mcif.stream_cycles(sdp.output.address, out_bytes)

    mac_cycles = int(
        round(
            conv.padded_macs(atomic_c, atomic_k)
            / config.macs_per_cycle(conv.precision)
            / params.conv_stripe_efficiency
        )
    )
    sdp_cycles = int(
        round(
            sdp.output.elements / (config.sdp_throughput * params.post_throughput_derate)
        )
    )

    dma_total = weight_dma + input_dma + operand_dma + output_dma
    busy = max(dma_total, mac_cycles, sdp_cycles)
    total = params.op_fixed_cycles + busy + params.op_drain_cycles
    return OpTiming(
        kind="conv",
        fixed=params.op_fixed_cycles + params.op_drain_cycles,
        weight_dma=weight_dma,
        input_dma=input_dma + operand_dma,
        output_dma=output_dma,
        compute=max(mac_cycles, sdp_cycles),
        total=total,
        detail={
            "kernel_splits": splits,
            "weight_bytes": w_bytes,
            "macs": conv.macs,
            "padded_macs": conv.padded_macs(atomic_c, atomic_k),
            "mac_cycles": mac_cycles,
            "sdp_cycles": sdp_cycles,
        },
    )


def fused_conv_pool_op_timing(
    conv: ConvDescriptor,
    sdp: SdpDescriptor,
    pdp: PdpDescriptor,
    config: HardwareConfig,
    cbuf: Cbuf,
    mcif: Mcif,
    params: TimingParams,
) -> OpTiming:
    """Fully fused conv → SDP → PDP pipelined chain.

    Versus the unfused pair, the intermediate surface never crosses the
    DBB (no SDP write-back, no PDP_RDMA read) and the chain pays one
    fixed launch + drain instead of two; the three compute stages are
    pipelined, so the compute term is the max of the stage rates.
    """
    atomic_c, atomic_k = config.atoms(conv.precision)
    atom = config.atom_channels(conv.precision)

    w_bytes = weight_size_bytes(conv.weight_shape, atomic_c, atomic_k, conv.precision)
    alloc = cbuf.default_split(w_bytes)
    splits = cbuf.kernel_splits(w_bytes, alloc.weight_banks)

    in_bytes = conv.input.packed_bytes(atom)
    weight_dma = mcif.stream_cycles(conv.weight_address, w_bytes)
    input_dma = mcif.stream_cycles(conv.input.address, in_bytes) * splits
    operand_dma = _sdp_operand_dma(sdp, config, mcif)

    out_atom = config.atom_channels(pdp.output.precision)
    output_dma = mcif.stream_cycles(pdp.output.address, pdp.output.packed_bytes(out_atom))

    mac_cycles = int(
        round(
            conv.padded_macs(atomic_c, atomic_k)
            / config.macs_per_cycle(conv.precision)
            / params.conv_stripe_efficiency
        )
    )
    sdp_cycles = int(
        round(
            sdp.output.elements / (config.sdp_throughput * params.post_throughput_derate)
        )
    )
    pdp_cycles = int(
        round(pdp.input.elements / (config.pdp_throughput * params.post_throughput_derate))
    )

    dma_total = weight_dma + input_dma + operand_dma + output_dma
    compute = max(mac_cycles, sdp_cycles, pdp_cycles)
    busy = max(dma_total, compute)
    total = params.op_fixed_cycles + busy + params.op_drain_cycles
    return OpTiming(
        kind="conv",
        fixed=params.op_fixed_cycles + params.op_drain_cycles,
        weight_dma=weight_dma,
        input_dma=input_dma + operand_dma,
        output_dma=output_dma,
        compute=compute,
        total=total,
        detail={
            "kernel_splits": splits,
            "weight_bytes": w_bytes,
            "macs": conv.macs,
            "padded_macs": conv.padded_macs(atomic_c, atomic_k),
            "mac_cycles": mac_cycles,
            "sdp_cycles": sdp_cycles,
            "pdp_cycles": pdp_cycles,
            "fused": "conv+sdp+pdp",
        },
    )


def sdp_op_timing(
    sdp: SdpDescriptor,
    config: HardwareConfig,
    mcif: Mcif,
    params: TimingParams,
) -> OpTiming:
    """Standalone (memory-sourced) SDP layer."""
    assert sdp.input is not None
    atom_in = config.atom_channels(sdp.input.precision)
    input_dma = mcif.stream_cycles(sdp.input.address, sdp.input.packed_bytes(atom_in))
    operand_dma = _sdp_operand_dma(sdp, config, mcif)
    atom_out = config.atom_channels(sdp.out_precision)
    output_dma = mcif.stream_cycles(sdp.output.address, sdp.output.packed_bytes(atom_out))
    compute = int(
        round(sdp.output.elements / (config.sdp_throughput * params.post_throughput_derate))
    )
    busy = max(input_dma + operand_dma + output_dma, compute)
    total = params.op_fixed_cycles + busy + params.op_drain_cycles
    return OpTiming(
        kind="sdp",
        fixed=params.op_fixed_cycles + params.op_drain_cycles,
        input_dma=input_dma + operand_dma,
        output_dma=output_dma,
        compute=compute,
        total=total,
    )


def pdp_op_timing(
    pdp: PdpDescriptor,
    config: HardwareConfig,
    mcif: Mcif,
    params: TimingParams,
) -> OpTiming:
    atom = config.atom_channels(pdp.input.precision)
    input_dma = mcif.stream_cycles(pdp.input.address, pdp.input.packed_bytes(atom))
    output_dma = mcif.stream_cycles(pdp.output.address, pdp.output.packed_bytes(atom))
    # PDP reads every input element through its line buffers.
    compute = int(
        round(pdp.input.elements / (config.pdp_throughput * params.post_throughput_derate))
    )
    busy = max(input_dma + output_dma, compute)
    total = params.op_fixed_cycles + busy + params.op_drain_cycles
    return OpTiming(
        kind="pdp",
        fixed=params.op_fixed_cycles + params.op_drain_cycles,
        input_dma=input_dma,
        output_dma=output_dma,
        compute=compute,
        total=total,
    )


def cdp_op_timing(
    cdp: CdpDescriptor,
    config: HardwareConfig,
    mcif: Mcif,
    params: TimingParams,
) -> OpTiming:
    atom = config.atom_channels(cdp.input.precision)
    input_dma = mcif.stream_cycles(cdp.input.address, cdp.input.packed_bytes(atom))
    output_dma = mcif.stream_cycles(cdp.output.address, cdp.output.packed_bytes(atom))
    compute = int(
        round(
            cdp.input.elements
            * params.lrn_work_factor
            / (config.cdp_throughput * params.post_throughput_derate)
        )
    )
    busy = max(input_dma + output_dma, compute)
    total = params.op_fixed_cycles + busy + params.op_drain_cycles
    return OpTiming(
        kind="cdp",
        fixed=params.op_fixed_cycles + params.op_drain_cycles,
        input_dma=input_dma,
        output_dma=output_dma,
        compute=compute,
        total=total,
    )


def bdma_op_timing(
    bdma: BdmaDescriptor,
    config: HardwareConfig,
    mcif: Mcif,
    params: TimingParams,
) -> OpTiming:
    read_dma = mcif.stream_cycles(bdma.src_address, bdma.total_bytes)
    write_dma = mcif.stream_cycles(bdma.dst_address, bdma.total_bytes)
    total = params.op_fixed_cycles + read_dma + write_dma
    return OpTiming(
        kind="bdma",
        fixed=params.op_fixed_cycles,
        input_dma=read_dma,
        output_dma=write_dma,
        total=total,
    )


def rubik_op_timing(
    rubik: RubikDescriptor,
    config: HardwareConfig,
    mcif: Mcif,
    params: TimingParams,
) -> OpTiming:
    atom = config.atom_channels(rubik.input.precision)
    nbytes = rubik.input.packed_bytes(atom)
    input_dma = mcif.stream_cycles(rubik.input.address, nbytes)
    output_dma = mcif.stream_cycles(rubik.output.address, nbytes)
    compute = int(round(nbytes / params.rubik_bytes_per_cycle))
    busy = max(input_dma + output_dma, compute)
    total = params.op_fixed_cycles + busy
    return OpTiming(
        kind="rubik",
        fixed=params.op_fixed_cycles,
        input_dma=input_dma,
        output_dma=output_dma,
        compute=compute,
        total=total,
    )


_SINGLE_STAGE_TIMING = {
    "sdp": sdp_op_timing,
    "pdp": pdp_op_timing,
    "cdp": cdp_op_timing,
    "bdma": bdma_op_timing,
    "rubik": rubik_op_timing,
}


def op_timing(descriptors: dict, config: HardwareConfig, cbuf: Cbuf, mcif: Mcif) -> OpTiming:
    """Price one launch's descriptors (see
    :func:`repro.nvdla.programming.parse_descriptors`): a convolution,
    a fused conv + pool chain, or one SDP, PDP, CDP, BDMA or RUBIK op."""
    if "conv" in descriptors:
        conv, sdp = descriptors["conv"], descriptors["sdp"]
        if "pdp" in descriptors:
            return fused_conv_pool_op_timing(
                conv, sdp, descriptors["pdp"], config, cbuf, mcif, DEFAULT_PARAMS
            )
        return conv_op_timing(conv, sdp, config, cbuf, mcif, DEFAULT_PARAMS)
    [(stage, descriptor)] = descriptors.items()
    return _SINGLE_STAGE_TIMING[stage](descriptor, config, mcif, DEFAULT_PARAMS)


def _sdp_operand_dma(sdp: SdpDescriptor, config: HardwareConfig, mcif: Mcif) -> int:
    """DBB cycles for bias/BN blobs and the eltwise operand tensor."""
    cycles = 0
    channels = sdp.output.channels
    operand_item = 4 if sdp.out_precision is Precision.INT8 else 2
    if sdp.bias_address is not None:
        cycles += mcif.stream_cycles(sdp.bias_address, channels * operand_item)
    if sdp.bn_mult_address is not None:
        cycles += mcif.stream_cycles(sdp.bn_mult_address, channels * operand_item)
    if sdp.eltwise is not EltwiseOp.NONE and sdp.eltwise_input is not None:
        atom = config.atom_channels(sdp.eltwise_input.precision)
        cycles += mcif.stream_cycles(
            sdp.eltwise_input.address, sdp.eltwise_input.packed_bytes(atom)
        )
    return cycles


def estimate_csb_config_writes(kind: str) -> int:
    """Approximate register writes needed to program one op.

    Used by planning reports only; real counts come from traces.
    """
    return {"conv": 80, "sdp": 45, "pdp": 30, "cdp": 25, "bdma": 12, "rubik": 17}.get(kind, 30)
