"""SDP — single-point data processor (+ its read DMA).

The post-processing stage behind every convolution and the engine for
standalone element-wise layers: per-channel bias, folded batch-norm
multipliers, eltwise add/mul/max with a second tensor, ReLU, and the
output converter (requantisation to INT8 or FP16 cast).  SDP owns the
write of the result cube to external memory.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nvdla.compute import (
    apply_batchnorm,
    apply_bias,
    apply_eltwise,
    apply_relu,
    convert_fp16,
    requantize_int8,
    scale_round,
)
from repro.nvdla.config import HardwareConfig, Precision
from repro.nvdla.descriptors import EltwiseOp, SdpDescriptor, SdpSource, TensorDesc
from repro.nvdla.layout import sdp_operand_bytes
from repro.nvdla.mcif import Mcif
from repro.nvdla.units.base import (
    Unit,
    parse_precision,
    parse_tensor,
    read_surfaces,
    tensor_register_names,
    write_surfaces,
)

RDMA_REGISTER_NAMES: list[str] = [
    "D_FEATURE_MODE_CFG",  # bit0: 0 = flying (from CACC), 1 = memory source
    *tensor_register_names("D_SRC"),
    "D_BRDMA_CFG",  # bit0: bias read enable
    "D_BS_BASE_ADDR_HIGH",
    "D_BS_BASE_ADDR_LOW",
    "D_NRDMA_CFG",  # bit0: batch-norm multiplier read enable
    "D_BN_BASE_ADDR_HIGH",
    "D_BN_BASE_ADDR_LOW",
    "D_ERDMA_CFG",  # bit0: eltwise operand read enable
    *tensor_register_names("D_EW"),
]

SDP_REGISTER_NAMES: list[str] = [
    "D_MISC_CFG",  # bit0: input precision
    "D_DATA_CUBE_WIDTH",
    "D_DATA_CUBE_HEIGHT",
    "D_DATA_CUBE_CHANNEL",
    *tensor_register_names("D_DST"),
    "D_DP_BS_CFG",  # bit0: bias stage enable
    "D_DP_BN_CFG",  # bit0: batch-norm stage enable
    "D_DP_EW_CFG",  # eltwise op code (EltwiseOp value)
    "D_EW_CVT_MULT",  # ERDMA operand converter (into the acc domain)
    "D_EW_CVT_SHIFT",
    "D_ACT_CFG",  # bit0: ReLU enable
    "D_CVT_MULT",
    "D_CVT_SHIFT",
    "D_OUT_PRECISION",  # 0 = int8, 1 = fp16
    "D_DST_FLYING",  # bit0: result streams on-chip to PDP (no memory write)
]


def make_rdma_unit() -> Unit:
    return Unit("SDP_RDMA", RDMA_REGISTER_NAMES)


def make_unit() -> Unit:
    return Unit("SDP", SDP_REGISTER_NAMES)


def parse(units: dict[str, Unit], group: int, config: HardwareConfig) -> SdpDescriptor:
    """Parse SDP(+RDMA) group registers into a descriptor."""
    sdp = units["SDP"]
    rdma = units["SDP_RDMA"]
    in_precision = parse_precision(sdp.reg("D_MISC_CFG", group) & 1, "SDP")
    out_precision = parse_precision(sdp.reg("D_OUT_PRECISION", group) & 1, "SDP")
    for precision in (in_precision, out_precision):
        if not config.supports(precision):
            raise ConfigurationError(f"{config.name} does not support {precision.value}")
    source = SdpSource.MEMORY if rdma.reg("D_FEATURE_MODE_CFG", group) & 1 else SdpSource.FLYING
    input_desc: TensorDesc | None = None
    if source is SdpSource.MEMORY:
        input_desc = parse_tensor(rdma, group, "D_SRC", in_precision)
    output = parse_tensor(sdp, group, "D_DST", out_precision)

    bias_address = None
    if sdp.reg("D_DP_BS_CFG", group) & 1:
        if not rdma.reg("D_BRDMA_CFG", group) & 1:
            raise ConfigurationError("SDP bias stage enabled without BRDMA read")
        bias_address = rdma.reg64("D_BS_BASE_ADDR_HIGH", "D_BS_BASE_ADDR_LOW", group)
    bn_address = None
    if sdp.reg("D_DP_BN_CFG", group) & 1:
        if not rdma.reg("D_NRDMA_CFG", group) & 1:
            raise ConfigurationError("SDP BN stage enabled without NRDMA read")
        bn_address = rdma.reg64("D_BN_BASE_ADDR_HIGH", "D_BN_BASE_ADDR_LOW", group)
    eltwise = EltwiseOp(sdp.reg("D_DP_EW_CFG", group) & 0x3)
    eltwise_input = None
    if eltwise is not EltwiseOp.NONE:
        if not rdma.reg("D_ERDMA_CFG", group) & 1:
            raise ConfigurationError("SDP eltwise enabled without ERDMA read")
        eltwise_input = parse_tensor(rdma, group, "D_EW", in_precision)

    return SdpDescriptor(
        source=source,
        output=output,
        out_precision=out_precision,
        input=input_desc,
        bias_address=bias_address,
        bn_mult_address=bn_address,
        eltwise=eltwise,
        eltwise_input=eltwise_input,
        relu=bool(sdp.reg("D_ACT_CFG", group) & 1),
        cvt_multiplier=sdp.reg("D_CVT_MULT", group) or 1,
        cvt_shift=sdp.reg("D_CVT_SHIFT", group),
        ew_cvt_multiplier=sdp.reg("D_EW_CVT_MULT", group) or 1,
        ew_cvt_shift=sdp.reg("D_EW_CVT_SHIFT", group),
        dst_flying=bool(sdp.reg("D_DST_FLYING", group) & 1),
    )


def _per_launch(values: list[int]) -> np.ndarray:
    """One register value per launch, broadcast over its requests' cubes."""
    return np.array(values, dtype=np.int64).reshape(-1, 1, 1, 1, 1)


def execute(
    descs: Sequence[SdpDescriptor],
    config: HardwareConfig,
    mcifs: Sequence[Mcif],
    flying_input: np.ndarray | None = None,
) -> np.ndarray | None:
    """Run the SDP chain of one or more launches; write each result cube.

    ``descs`` is one launch, or a run of launches with the same stages
    and cube shapes whose operands, converter values and surfaces
    differ.  ``mcifs`` holds one memory per request of a serving batch.
    All stages run once over a (launch, request, C, H, W) cube, and
    each result goes to the surface its launch's descriptor names, in
    its request's memory.  Per-channel operands are read from the first
    request's memory: they are read-only, so every request holds the
    same bytes.

    ``flying_input`` carries the convolution accumulators (launch,
    request, K, H, W) when the op is fused (source = FLYING).  When the
    *destination* is flying (``dst_flying``) nothing is written: the
    results are returned for the downstream PDP stage instead.
    """
    desc = descs[0]  # stages and shapes are shared by every launch
    channels = desc.output.channels
    if desc.source is SdpSource.FLYING:
        if flying_input is None:
            raise ConfigurationError("flying SDP op launched without conv accumulators")
        acc = flying_input
        in_precision = Precision.INT8 if acc.dtype == np.int64 else Precision.FP16
    else:
        # Unreachable: SdpDescriptor rejects a memory source without an
        # input surface (and an eltwise stage without an operand surface,
        # below) when it is built, and descriptors are frozen
        # (tests/nvdla/test_descriptors.py pins both rejections).
        if desc.input is None:
            raise ConfigurationError("memory-sourced SDP op has no input surface (D_SRC)")
        in_precision = desc.input.precision
        acc = read_surfaces(
            mcifs,
            [d.input for d in descs],
            config,
            np.int64 if in_precision is Precision.INT8 else np.float32,
        )

    if acc.shape[-3] != channels:
        raise ConfigurationError(
            f"SDP output channels {channels} != datapath channels {acc.shape[-3]}"
        )

    integer = acc.dtype == np.int64
    operand_bytes = sdp_operand_bytes(channels, in_precision)
    operand_dtype = np.int32 if integer else np.float16

    def operands(addresses: list[int]) -> np.ndarray:
        """(launch, 1, C): one operand row per launch, shared by requests."""
        return np.stack([
            np.frombuffer(mcifs[0].read(address, operand_bytes), dtype=operand_dtype)[:channels]
            for address in addresses
        ])[:, None, :]

    if desc.bias_address is not None:
        acc = apply_bias(acc, operands([d.bias_address for d in descs]))
    if desc.bn_mult_address is not None:
        mult = operands([d.bn_mult_address for d in descs])
        acc = apply_batchnorm(acc, mult.astype(np.float64 if integer else np.float32))
        if integer:
            acc = np.rint(acc).astype(np.int64)
    if desc.eltwise is not EltwiseOp.NONE:
        if desc.eltwise_input is None:  # unreachable, see above
            raise ConfigurationError("SDP eltwise stage has no operand surface (D_EW)")
        operand = read_surfaces(mcifs, [d.eltwise_input for d in descs], config, acc.dtype)
        if integer:
            # ERDMA converter: operand -> accumulator domain.
            operand = scale_round(
                operand,
                _per_launch([d.ew_cvt_multiplier for d in descs]),
                _per_launch([d.ew_cvt_shift for d in descs]),
            )
        acc = apply_eltwise(acc, desc.eltwise, operand)
    acc = apply_relu(acc, desc.relu)

    multiplier = _per_launch([d.cvt_multiplier for d in descs])
    shift = _per_launch([d.cvt_shift for d in descs])
    if desc.out_precision is Precision.INT8:
        # After ReLU no value is negative: the converter's sign
        # correction and its low clip cannot fire.
        result = requantize_int8(acc, multiplier, shift, nonnegative=desc.relu)
    else:
        result = convert_fp16(acc, multiplier, shift)

    expected_shape = desc.output.shape
    if result.shape[2:] != expected_shape:
        raise ConfigurationError(
            f"SDP result shape {result.shape[2:]} != output descriptor {expected_shape}"
        )
    if desc.dst_flying:
        return result
    write_surfaces(mcifs, [d.output for d in descs], config, result)
    return None
