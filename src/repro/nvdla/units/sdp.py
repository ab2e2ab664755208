"""SDP — single-point data processor (+ its read DMA).

The post-processing stage behind every convolution and the engine for
standalone element-wise layers: per-channel bias, folded batch-norm
multipliers, eltwise add/mul/max with a second tensor, ReLU, and the
output converter (requantisation to INT8 or FP16 cast).  SDP owns the
write of the result cube to external memory.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nvdla.compute import (
    apply_batchnorm,
    apply_bias,
    apply_eltwise,
    apply_relu,
    convert_fp16,
    requantize_int8,
)
from repro.nvdla.config import HardwareConfig, Precision
from repro.nvdla.descriptors import EltwiseOp, SdpDescriptor, SdpSource, TensorDesc
from repro.nvdla.layout import pack_feature, sdp_operand_bytes, unpack_feature
from repro.nvdla.mcif import Mcif
from repro.nvdla.units.base import Unit, parse_precision, parse_tensor, tensor_register_names

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


def execute(
    desc: SdpDescriptor,
    config: HardwareConfig,
    mcif: Mcif,
    flying_input: np.ndarray | None = None,
) -> np.ndarray | None:
    """Run the SDP chain; write the result cube to memory.

    ``flying_input`` carries the convolution accumulators when the op
    is fused (source = FLYING).  When the *destination* is flying
    (``desc.dst_flying``) nothing is written: the result array is
    returned for the downstream PDP stage instead.
    """
    channels = desc.output.channels
    if desc.source is SdpSource.FLYING:
        if flying_input is None:
            raise ConfigurationError("flying SDP op launched without conv accumulators")
        acc = flying_input
        in_precision = Precision.INT8 if acc.dtype == np.int64 else Precision.FP16
    else:
        assert desc.input is not None
        atom = config.atom_channels(desc.input.precision)
        blob = mcif.read(desc.input.address, desc.input.packed_bytes(atom))
        x = unpack_feature(blob, desc.input.shape, atom, desc.input.precision)
        in_precision = desc.input.precision
        acc = x.astype(np.int64 if in_precision is Precision.INT8 else np.float32)

    if acc.shape[0] != channels:
        raise ConfigurationError(
            f"SDP output channels {channels} != datapath channels {acc.shape[0]}"
        )

    integer = acc.dtype == np.int64
    operand_bytes = sdp_operand_bytes(channels, in_precision)
    if desc.bias_address is not None:
        raw = mcif.read(desc.bias_address, operand_bytes)
        bias = np.frombuffer(raw, dtype=np.int32 if integer else np.float16)[:channels]
        acc = apply_bias(acc, bias.astype(acc.dtype))
    if desc.bn_mult_address is not None:
        raw = mcif.read(desc.bn_mult_address, operand_bytes)
        mult = np.frombuffer(raw, dtype=np.int32 if integer else np.float16)[:channels]
        acc = apply_batchnorm(acc, mult.astype(np.float64 if integer else np.float32))
        if integer:
            acc = np.rint(acc).astype(np.int64)
    if desc.eltwise is not EltwiseOp.NONE:
        assert desc.eltwise_input is not None
        atom = config.atom_channels(desc.eltwise_input.precision)
        blob = mcif.read(desc.eltwise_input.address, desc.eltwise_input.packed_bytes(atom))
        operand = unpack_feature(
            blob, desc.eltwise_input.shape, atom, desc.eltwise_input.precision
        )
        if integer and (desc.ew_cvt_multiplier, desc.ew_cvt_shift) != (1, 0):
            # ERDMA converter: operand -> accumulator domain.
            scaled = operand.astype(np.int64) * desc.ew_cvt_multiplier
            if desc.ew_cvt_shift > 0:
                half = np.int64(1) << (desc.ew_cvt_shift - 1)
                scaled = (scaled + np.sign(scaled) * half) >> desc.ew_cvt_shift
            operand = scaled
        acc = apply_eltwise(acc, desc.eltwise, operand)
    acc = apply_relu(acc, desc.relu)

    if desc.out_precision is Precision.INT8:
        result = requantize_int8(acc, desc.cvt_multiplier, desc.cvt_shift)
    else:
        result = convert_fp16(acc, desc.cvt_multiplier, desc.cvt_shift)

    expected_shape = desc.output.shape
    if result.shape != expected_shape:
        raise ConfigurationError(
            f"SDP result shape {result.shape} != output descriptor {expected_shape}"
        )
    if desc.dst_flying:
        return result
    atom_out = config.atom_channels(desc.out_precision)
    mcif.write(desc.output.address, pack_feature(result, atom_out, desc.out_precision))
    return None
