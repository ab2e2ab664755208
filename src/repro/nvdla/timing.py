"""Analytic per-op cycle model.

Latency of one hardware layer is dominated by three overlapping
activities, and the model takes the slowest (they are pipelined
against each other by CDMA prefetch and the double-buffered CBUF):

- **DBB traffic** — weights (once), input feature map (once per
  kernel split, see :class:`~repro.nvdla.cbuf.Cbuf`), SDP operand
  blobs, and the output write-back; every stream is priced by
  :meth:`~repro.nvdla.mcif.Mcif.stream_cycles`, which derates the
  memory port's price (on the SoC the wrapper's DBB port, whose DRAM
  term is :meth:`~repro.mem.dram.DramTiming.stream_cycles`),
- **MAC compute** — padded MACs over the array's per-cycle capacity,
  derated by a stripe-sequencing efficiency,
- **post-processor throughput** — SDP/PDP/CDP elements per cycle.

A fixed per-op cost covers descriptor launch and pipeline fill/drain.
Every op's :class:`~repro.nvdla.descriptors.OpTiming` is built by one
rule (:func:`_priced`): fixed + max(DMA sum, compute).

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
    TensorDesc,
)
from repro.nvdla.layout import weight_size_bytes
from repro.nvdla.mcif import Mcif


@dataclass(frozen=True)
class TimingParams:
    """Calibration constants of the analytic model.

    Values are physically motivated and were fitted once against the
    regimes of the paper's Tables II/III (the paper-vs-measured ratios
    are what ``benchmarks/bench_table2_nv_small.py`` and
    ``benchmarks/bench_table3_nv_full.py`` print and gate).
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
    pdp: PdpDescriptor | None,
    config: HardwareConfig,
    cbuf: Cbuf,
    mcif: Mcif,
) -> OpTiming:
    """A convolution + SDP hardware layer, or with ``pdp`` the fully
    fused conv → SDP → PDP pipelined chain.

    Fused, the intermediate surface never crosses the DBB (no SDP
    write-back, no PDP_RDMA read) and the chain pays one fixed launch
    + drain instead of two; the stages are pipelined, so the compute
    term is the max of the stage rates.
    """
    atomic_c, atomic_k = config.atoms(conv.precision)
    w_bytes = weight_size_bytes(conv.weight_shape, atomic_c, atomic_k, conv.precision)
    splits = cbuf.kernel_splits(w_bytes, cbuf.default_split(w_bytes).weight_banks)
    weight_dma = mcif.stream_cycles(conv.weight_address, w_bytes)
    input_dma = _tensor_dma(conv.input, config, mcif) * splits
    output_dma = _tensor_dma(sdp.output if pdp is None else pdp.output, config, mcif)

    padded_macs = conv.padded_macs(atomic_c, atomic_k)
    mac_cycles = int(
        round(
            padded_macs
            / config.macs_per_cycle(conv.precision)
            / DEFAULT_PARAMS.conv_stripe_efficiency
        )
    )
    sdp_cycles = _post_cycles(sdp.output.elements, config.sdp_throughput)
    detail = {
        "kernel_splits": splits,
        "weight_bytes": w_bytes,
        "macs": conv.macs,
        "padded_macs": padded_macs,
        "mac_cycles": mac_cycles,
        "sdp_cycles": sdp_cycles,
    }
    stage_cycles = [mac_cycles, sdp_cycles]
    if pdp is not None:
        pdp_cycles = _post_cycles(pdp.input.elements, config.pdp_throughput)
        detail.update(pdp_cycles=pdp_cycles, fused="conv+sdp+pdp")
        stage_cycles.append(pdp_cycles)
    return _priced(
        "conv",
        weight_dma=weight_dma,
        input_dma=input_dma + _sdp_operand_dma(sdp, config, mcif),
        output_dma=output_dma,
        compute=max(stage_cycles),
        detail=detail,
    )


def sdp_op_timing(sdp: SdpDescriptor, config: HardwareConfig, mcif: Mcif) -> OpTiming:
    """Standalone (memory-sourced) SDP layer."""
    assert sdp.input is not None
    return _priced(
        "sdp",
        input_dma=_tensor_dma(sdp.input, config, mcif) + _sdp_operand_dma(sdp, config, mcif),
        output_dma=_tensor_dma(sdp.output, config, mcif),
        compute=_post_cycles(sdp.output.elements, config.sdp_throughput),
    )


def pdp_op_timing(pdp: PdpDescriptor, config: HardwareConfig, mcif: Mcif) -> OpTiming:
    # PDP reads every input element through its line buffers.
    return _priced(
        "pdp",
        input_dma=_tensor_dma(pdp.input, config, mcif),
        output_dma=_tensor_dma(pdp.output, config, mcif),
        compute=_post_cycles(pdp.input.elements, config.pdp_throughput),
    )


def cdp_op_timing(cdp: CdpDescriptor, config: HardwareConfig, mcif: Mcif) -> OpTiming:
    return _priced(
        "cdp",
        input_dma=_tensor_dma(cdp.input, config, mcif),
        output_dma=_tensor_dma(cdp.output, config, mcif),
        compute=_post_cycles(
            cdp.input.elements * DEFAULT_PARAMS.lrn_work_factor, config.cdp_throughput
        ),
    )


def bdma_op_timing(bdma: BdmaDescriptor, config: HardwareConfig, mcif: Mcif) -> OpTiming:
    return _priced(
        "bdma",
        input_dma=mcif.stream_cycles(bdma.src_address, bdma.total_bytes),
        output_dma=mcif.stream_cycles(bdma.dst_address, bdma.total_bytes),
        drain=False,
    )


def rubik_op_timing(rubik: RubikDescriptor, config: HardwareConfig, mcif: Mcif) -> OpTiming:
    nbytes = rubik.input.packed_bytes(config.atom_channels(rubik.input.precision))
    return _priced(
        "rubik",
        input_dma=mcif.stream_cycles(rubik.input.address, nbytes),
        output_dma=mcif.stream_cycles(rubik.output.address, nbytes),
        compute=int(round(nbytes / DEFAULT_PARAMS.rubik_bytes_per_cycle)),
        drain=False,
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
        return conv_op_timing(
            descriptors["conv"], descriptors["sdp"], descriptors.get("pdp"), config, cbuf, mcif
        )
    [(stage, descriptor)] = descriptors.items()
    return _SINGLE_STAGE_TIMING[stage](descriptor, config, mcif)


def _priced(
    kind: str,
    *,
    input_dma: int,
    output_dma: int,
    weight_dma: int = 0,
    compute: int = 0,
    drain: bool = True,
    detail: dict | None = None,
) -> OpTiming:
    """Fixed launch (+ drain) plus the slower of the DMA sum and compute."""
    fixed = DEFAULT_PARAMS.op_fixed_cycles + (DEFAULT_PARAMS.op_drain_cycles if drain else 0)
    busy = max(weight_dma + input_dma + output_dma, compute)
    return OpTiming(
        kind=kind,
        fixed=fixed,
        weight_dma=weight_dma,
        input_dma=input_dma,
        output_dma=output_dma,
        compute=compute,
        total=fixed + busy,
        detail=detail or {},
    )


def _post_cycles(elements: float, throughput: int) -> int:
    """Cycles of a post-processor streaming ``elements`` at its derated rate."""
    return int(round(elements / (throughput * DEFAULT_PARAMS.post_throughput_derate)))


def _tensor_dma(tensor: TensorDesc, config: HardwareConfig, mcif: Mcif) -> int:
    """DBB cycles to stream one packed feature surface."""
    return mcif.stream_cycles(
        tensor.address, tensor.packed_bytes(config.atom_channels(tensor.precision))
    )


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
        cycles += _tensor_dma(sdp.eltwise_input, config, mcif)
    return cycles
