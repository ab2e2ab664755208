"""Analytic per-op cycle model, and the one list of DRAM streams a
launch moves.

:func:`dma_streams` decides which bytes a launch reads and writes:
one :class:`DmaStream` per DMA client stream, sized exactly as the
unit kernels move them.  The engine prices that list
(:func:`op_timing`) and the static analyzer checks it
(:func:`repro.analyze.surfaces.parse_chain`), so the bytes priced and
the bytes checked cannot drift apart.

Latency of one hardware layer is dominated by three overlapping
activities, and the model takes the slowest (they are pipelined
against each other by CDMA prefetch and the double-buffered CBUF):

- **DBB traffic** — the streams of :func:`dma_streams`, the conv
  input once per kernel split (see :class:`~repro.nvdla.cbuf.Cbuf`);
  every stream is priced by
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
from typing import NamedTuple

from repro.nvdla.cbuf import Cbuf
from repro.nvdla.config import HardwareConfig, Precision
from repro.nvdla.descriptors import EltwiseOp, OpTiming, SdpDescriptor, TensorDesc
from repro.nvdla.layout import sdp_operand_bytes, weight_size_bytes
from repro.nvdla.mcif import Mcif

READ = "read"
WRITE = "write"


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


class DmaStream(NamedTuple):
    """One DRAM stream a launch moves: the DMA client that issues it,
    its direction, what it carries, and the byte range."""

    unit: str  # CDMA, SDP_RDMA, SDP, PDP_RDMA, PDP, CDP_RDMA, CDP, BDMA or RUBIK
    direction: str  # READ or WRITE
    role: str  # input, weight, bias, bn_mult, eltwise or output
    address: int
    nbytes: int


def dma_streams(descriptors: dict, config: HardwareConfig) -> list[DmaStream]:
    """Every DRAM stream one launch's descriptors move (see
    :func:`repro.nvdla.programming.parse_descriptors`), sized exactly
    as the unit kernels read and write them.

    A fused chain's intermediate surfaces stream on-chip and are not
    listed: conv → SDP never touches memory, and with a PDP epilogue
    only the pooled output does.
    """
    conv = descriptors.get("conv")
    if conv is not None:
        sdp, pdp = descriptors["sdp"], descriptors.get("pdp")
        atomic_c, atomic_k = config.atoms(conv.precision)
        weight_bytes = weight_size_bytes(conv.weight_shape, atomic_c, atomic_k, conv.precision)
        return [
            _feature("CDMA", READ, "input", conv.input, config),
            DmaStream("CDMA", READ, "weight", conv.weight_address, weight_bytes),
            *_sdp_operands(sdp, conv.precision, config),
            _feature("SDP", WRITE, "output", sdp.output, config)
            if pdp is None
            else _feature("PDP", WRITE, "output", pdp.output, config),
        ]
    [(stage, desc)] = descriptors.items()
    if stage == "sdp":
        # Memory-sourced: operands in the input's precision.  No input is
        # a malformed program (a flying SDP outside a conv chain), which
        # the analyzer still reports.
        streams = _sdp_operands(
            desc, desc.out_precision if desc.input is None else desc.input.precision, config
        )
        if desc.input is not None:
            streams.insert(0, _feature("SDP_RDMA", READ, "input", desc.input, config))
        streams.append(_feature("SDP", WRITE, "output", desc.output, config))
        return streams
    if stage == "bdma":
        return [
            DmaStream("BDMA", READ, "input", desc.src_address, desc.total_bytes),
            DmaStream("BDMA", WRITE, "output", desc.dst_address, desc.total_bytes),
        ]
    sink = stage.upper()
    rdma = sink if stage == "rubik" else f"{sink}_RDMA"
    return [
        _feature(rdma, READ, "input", desc.input, config),
        _feature(sink, WRITE, "output", desc.output, config),
    ]


def op_timing(descriptors: dict, config: HardwareConfig, cbuf: Cbuf, mcif: Mcif) -> OpTiming:
    """Price one launch's descriptors: a convolution, a fused conv +
    pool chain, or one SDP, PDP, CDP, BDMA or RUBIK op.

    Every stream of :func:`dma_streams` is priced once by
    :meth:`Mcif.stream_cycles`: weights are the weight DMA, writes the
    output DMA, every other read the input DMA.  A convolution re-reads
    its input once per kernel split (see :class:`~repro.nvdla.cbuf.Cbuf`),
    so that stream's price is multiplied by the split count.

    Fused, the intermediate surface never crosses the DBB and the chain
    pays one fixed launch + drain instead of two; the stages are
    pipelined, so the compute term is the max of the stage rates.
    """
    weight_dma = input_dma = output_dma = conv_input_dma = weight_bytes = 0
    for stream in dma_streams(descriptors, config):
        cycles = mcif.stream_cycles(stream.address, stream.nbytes)
        if stream.role == "weight":
            weight_dma, weight_bytes = cycles, stream.nbytes
        elif stream.direction == WRITE:
            output_dma += cycles
        elif stream.unit == "CDMA":
            conv_input_dma = cycles
        else:
            input_dma += cycles
    conv = descriptors.get("conv")
    if conv is not None:
        sdp, pdp = descriptors["sdp"], descriptors.get("pdp")
        splits = cbuf.kernel_splits(weight_bytes, cbuf.default_split(weight_bytes).weight_banks)
        atomic_c, atomic_k = config.atoms(conv.precision)
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
            "weight_bytes": weight_bytes,
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
            input_dma=conv_input_dma * splits + input_dma,
            output_dma=output_dma,
            compute=max(stage_cycles),
            detail=detail,
        )
    [(stage, desc)] = descriptors.items()
    if stage == "sdp":
        compute = _post_cycles(desc.output.elements, config.sdp_throughput)
    elif stage == "pdp":  # PDP reads every input element through its line buffers.
        compute = _post_cycles(desc.input.elements, config.pdp_throughput)
    elif stage == "cdp":
        compute = _post_cycles(
            desc.input.elements * DEFAULT_PARAMS.lrn_work_factor, config.cdp_throughput
        )
    elif stage == "rubik":
        nbytes = desc.input.packed_bytes(config.atom_channels(desc.input.precision))
        compute = int(round(nbytes / DEFAULT_PARAMS.rubik_bytes_per_cycle))
    else:  # bdma
        compute = 0
    return _priced(
        stage,
        input_dma=input_dma,
        output_dma=output_dma,
        compute=compute,
        drain=stage not in ("bdma", "rubik"),
    )


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


def _feature(
    unit: str, direction: str, role: str, tensor: TensorDesc, config: HardwareConfig
) -> DmaStream:
    """A stream of one packed feature surface."""
    return DmaStream(
        unit,
        direction,
        role,
        tensor.address,
        tensor.packed_bytes(config.atom_channels(tensor.precision)),
    )


def _sdp_operands(
    sdp: SdpDescriptor, precision: Precision, config: HardwareConfig
) -> list[DmaStream]:
    """SDP_RDMA's operand reads: the bias and BN blobs (sized in the
    datapath ``precision``) and the eltwise operand surface."""
    streams = []
    operand_bytes = sdp_operand_bytes(sdp.output.channels, precision)
    if sdp.bias_address is not None:
        streams.append(DmaStream("SDP_RDMA", READ, "bias", sdp.bias_address, operand_bytes))
    if sdp.bn_mult_address is not None:
        streams.append(
            DmaStream("SDP_RDMA", READ, "bn_mult", sdp.bn_mult_address, operand_bytes)
        )
    if sdp.eltwise is not EltwiseOp.NONE and sdp.eltwise_input is not None:
        streams.append(_feature("SDP_RDMA", READ, "eltwise", sdp.eltwise_input, config))
    return streams
