"""Typed hardware-layer descriptors.

When a unit's ``D_OP_ENABLE`` fires, the engine parses the raw shadow
registers of every participating unit into one of these descriptor
dataclasses, validates it, and hands it to the functional executor and
the timing model.  They are the model's equivalent of the parsed form
of an NVDLA hardware-layer register set.

Floating-point parameters (LRN alpha/beta, FP16 scales) travel through
32-bit registers as IEEE-754 bit patterns; INT8 requantisation uses
integer multiplier + right-shift pairs, as on real hardware.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ConfigurationError
from repro.nvdla.config import Precision
from repro.nvdla.layout import ceil_div, feature_size_bytes


def f32_to_bits(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits_to_f32(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


class SdpSource(Enum):
    """Where SDP takes its input from."""

    FLYING = 0  # on-the-fly from the convolution accumulator
    MEMORY = 1


class EltwiseOp(Enum):
    NONE = 0
    ADD = 1
    MUL = 2
    MAX = 3


class PoolMode(Enum):
    MAX = 0
    AVG = 1
    MIN = 2


@dataclass(frozen=True)
class TensorDesc:
    """A tensor surface in external memory (NVDLA feature format)."""

    address: int
    width: int
    height: int
    channels: int
    precision: Precision
    line_stride: int = 0
    surf_stride: int = 0

    def __post_init__(self) -> None:
        if min(self.width, self.height, self.channels) <= 0:
            raise ConfigurationError(
                f"tensor dims must be positive, got {self.channels}x{self.height}x{self.width}"
            )
        if self.address < 0:
            raise ConfigurationError("tensor address must be non-negative")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)

    @property
    def elements(self) -> int:
        return self.channels * self.height * self.width

    def packed_bytes(self, atom_channels: int) -> int:
        return feature_size_bytes(self.shape, atom_channels, self.precision)


@dataclass(frozen=True)
class ConvDescriptor:
    """Direct convolution across CDMA/CSC/CMAC/CACC."""

    input: TensorDesc
    weight_address: int
    kernel_k: int
    kernel_c: int
    kernel_r: int
    kernel_s: int
    stride_x: int
    stride_y: int
    pad_left: int
    pad_top: int
    pad_right: int
    pad_bottom: int
    precision: Precision
    out_width: int
    out_height: int

    def __post_init__(self) -> None:
        if self.kernel_c != self.input.channels:
            raise ConfigurationError(
                f"kernel C={self.kernel_c} does not match input C={self.input.channels}"
            )
        if min(self.kernel_k, self.kernel_r, self.kernel_s) <= 0:
            raise ConfigurationError("kernel dims must be positive")
        if min(self.stride_x, self.stride_y) <= 0:
            raise ConfigurationError("strides must be positive")
        if min(self.pad_left, self.pad_top, self.pad_right, self.pad_bottom) < 0:
            raise ConfigurationError("padding must be non-negative")
        expect_h = (
            self.input.height + self.pad_top + self.pad_bottom - self.kernel_r
        ) // self.stride_y + 1
        expect_w = (
            self.input.width + self.pad_left + self.pad_right - self.kernel_s
        ) // self.stride_x + 1
        if expect_h <= 0 or expect_w <= 0:
            raise ConfigurationError(
                f"kernel {self.kernel_r}x{self.kernel_s} does not fit the padded input"
            )
        if (self.out_height, self.out_width) != (expect_h, expect_w):
            raise ConfigurationError(
                f"output dims {self.out_height}x{self.out_width} do not match geometry "
                f"(expected {expect_h}x{expect_w})"
            )

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.kernel_k, self.kernel_c, self.kernel_r, self.kernel_s)

    @property
    def macs(self) -> int:
        """True (unpadded) multiply-accumulates of this layer."""
        return (
            self.kernel_k
            * self.kernel_c
            * self.kernel_r
            * self.kernel_s
            * self.out_width
            * self.out_height
        )

    def padded_macs(self, atomic_c: int, atomic_k: int) -> int:
        """MAC slots consumed once channels are padded to atoms."""
        cg = ceil_div(self.kernel_c, atomic_c)
        kg = ceil_div(self.kernel_k, atomic_k)
        return (
            kg * atomic_k * cg * atomic_c * self.kernel_r * self.kernel_s
            * self.out_width * self.out_height
        )


@dataclass(frozen=True)
class SdpDescriptor:
    """Single-point data processor: bias / BN / eltwise / ReLU / requant."""

    source: SdpSource
    output: TensorDesc
    out_precision: Precision
    input: TensorDesc | None = None  # required when source is MEMORY
    bias_address: int | None = None  # per-channel operand blob (int32 / fp16)
    bn_mult_address: int | None = None  # per-channel scale blob
    eltwise: EltwiseOp = EltwiseOp.NONE
    eltwise_input: TensorDesc | None = None
    relu: bool = False
    cvt_multiplier: int = 1  # output converter: value * mult >> shift
    cvt_shift: int = 0
    # ERDMA operand converter: rescales the eltwise operand from its
    # own quantisation domain into the accumulator domain before the
    # add (INT8 fused residual adds; identity for FP16).
    ew_cvt_multiplier: int = 1
    ew_cvt_shift: int = 0
    # Fused-chain destination: the result streams on-chip to PDP
    # instead of being written to memory; ``output`` then carries the
    # cube geometry with a null address.
    dst_flying: bool = False

    def __post_init__(self) -> None:
        if self.source is SdpSource.MEMORY and self.input is None:
            raise ConfigurationError("memory-sourced SDP op needs an input tensor")
        if self.eltwise is not EltwiseOp.NONE and self.eltwise_input is None:
            raise ConfigurationError("eltwise op needs a second operand tensor")
        if self.cvt_shift < 0 or self.cvt_shift > 31:
            raise ConfigurationError("converter shift out of range")
        if self.cvt_multiplier <= 0 or self.cvt_multiplier >= (1 << 16):
            raise ConfigurationError("converter multiplier out of range")
        if self.ew_cvt_shift < 0 or self.ew_cvt_shift > 31:
            raise ConfigurationError("eltwise converter shift out of range")
        if self.ew_cvt_multiplier <= 0 or self.ew_cvt_multiplier >= (1 << 16):
            raise ConfigurationError("eltwise converter multiplier out of range")


@dataclass(frozen=True)
class PdpDescriptor:
    """Planar data processor: pooling."""

    input: TensorDesc
    output: TensorDesc
    mode: PoolMode
    kernel_w: int
    kernel_h: int
    stride_x: int
    stride_y: int
    pad_left: int = 0
    pad_top: int = 0
    pad_right: int = 0
    pad_bottom: int = 0
    # Fused-chain source: the input streams on-chip from SDP instead
    # of PDP_RDMA; ``input`` then carries the cube geometry with a
    # null address and PDP_RDMA stays disabled.
    src_flying: bool = False

    def __post_init__(self) -> None:
        if min(self.kernel_w, self.kernel_h) <= 0:
            raise ConfigurationError("pool kernel dims must be positive")
        if min(self.stride_x, self.stride_y) <= 0:
            raise ConfigurationError("pool strides must be positive")
        if self.input.channels != self.output.channels:
            raise ConfigurationError("pooling cannot change the channel count")
        expect_h = (
            self.input.height + self.pad_top + self.pad_bottom - self.kernel_h
        ) // self.stride_y + 1
        expect_w = (
            self.input.width + self.pad_left + self.pad_right - self.kernel_w
        ) // self.stride_x + 1
        if (self.output.height, self.output.width) != (expect_h, expect_w):
            raise ConfigurationError(
                f"pool output {self.output.height}x{self.output.width} does not match "
                f"geometry (expected {expect_h}x{expect_w})"
            )


@dataclass(frozen=True)
class CdpDescriptor:
    """Channel data processor: local response normalisation."""

    input: TensorDesc
    output: TensorDesc
    local_size: int
    alpha: float
    beta: float
    k: float

    def __post_init__(self) -> None:
        if self.local_size < 1 or self.local_size % 2 == 0:
            raise ConfigurationError("LRN local_size must be odd and positive")
        if self.input.shape != self.output.shape:
            raise ConfigurationError("LRN preserves tensor shape")


@dataclass(frozen=True)
class BdmaDescriptor:
    """Bulk memory copy."""

    src_address: int
    dst_address: int
    line_bytes: int
    lines: int
    src_stride: int = 0
    dst_stride: int = 0

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.lines <= 0:
            raise ConfigurationError("BDMA geometry must be positive")

    @property
    def total_bytes(self) -> int:
        return self.line_bytes * self.lines


@dataclass(frozen=True)
class RubikDescriptor:
    """Data-reshape engine (contract mode: channel regrouping)."""

    input: TensorDesc
    output: TensorDesc
    mode: str = "contract"

    def __post_init__(self) -> None:
        if self.mode not in ("contract", "split", "merge"):
            raise ConfigurationError(f"unsupported RUBIK mode {self.mode!r}")
        if self.input.elements != self.output.elements:
            raise ConfigurationError("RUBIK must preserve the element count")


@dataclass
class OpTiming:
    """Cycle breakdown of one hardware-layer operation."""

    kind: str
    fixed: int = 0
    weight_dma: int = 0
    input_dma: int = 0
    output_dma: int = 0
    compute: int = 0
    total: int = 0
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "fixed": self.fixed,
            "weight_dma": self.weight_dma,
            "input_dma": self.input_dma,
            "output_dma": self.output_dma,
            "compute": self.compute,
            "total": self.total,
            **self.detail,
        }
