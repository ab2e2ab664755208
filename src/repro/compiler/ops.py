"""Compiler-level hardware-op IR.

These are the scheduled units of work the virtual platform's runtime
programs into NVDLA registers, one hardware layer each.  Tensors are
:class:`TensorRef` objects — views into allocation *blobs* (a concat
branch or a depthwise channel block is a channel-offset view into its
parent blob), with DRAM addresses filled in by the allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.errors import CompilerError
from repro.nvdla.config import Precision
from repro.nvdla.layout import feature_size_bytes


class EltwiseOpKind(Enum):
    ADD = "add"
    MUL = "mul"
    MAX = "max"


@dataclass
class TensorRef:
    """A (possibly channel-sliced) view of an allocation blob."""

    blob: str
    shape: tuple[int, int, int]  # C, H, W of the view
    precision: Precision
    scale: float = 1.0
    channel_offset: int = 0
    parent_channels: int | None = None  # None = view covers the blob
    address: int | None = None  # absolute DRAM address (allocator)

    def __post_init__(self) -> None:
        if min(self.shape) <= 0:
            raise CompilerError(f"tensor {self.blob!r}: bad shape {self.shape}")
        if self.channel_offset < 0:
            raise CompilerError(f"tensor {self.blob!r}: negative channel offset")

    @property
    def channels(self) -> int:
        return self.shape[0]

    @property
    def elements(self) -> int:
        c, h, w = self.shape
        return c * h * w

    def packed_bytes(self, atom_channels: int) -> int:
        return feature_size_bytes(self.shape, atom_channels, self.precision)

    def blob_packed_bytes(self, atom_channels: int) -> int:
        """Bytes of the *parent* allocation blob."""
        c = self.parent_channels if self.parent_channels is not None else self.shape[0]
        _, h, w = self.shape
        return feature_size_bytes((c, h, w), atom_channels, self.precision)

    def view_offset_bytes(self, atom_channels: int) -> int:
        """Byte offset of this view inside the parent blob."""
        if self.channel_offset % atom_channels:
            raise CompilerError(
                f"tensor {self.blob!r}: channel offset {self.channel_offset} not aligned "
                f"to {atom_channels}-channel atoms"
            )
        _, h, w = self.shape
        return feature_size_bytes((self.channel_offset, h, w), atom_channels, self.precision)

    def require_address(self) -> int:
        if self.address is None:
            raise CompilerError(f"tensor {self.blob!r} has no address (allocator not run?)")
        return self.address


@dataclass
class HwOp:
    """Base hardware op: a name and the tensors it touches."""

    name: str

    def inputs(self) -> list[TensorRef]:
        return []

    def outputs(self) -> list[TensorRef]:
        return []

    @property
    def kind(self) -> str:
        return type(self).__name__.removesuffix("Op").lower()


@dataclass
class ConvOp(HwOp):
    """Fused convolution + SDP hardware layer.

    Covers plain/grouped/depthwise convolution blocks and FC layers
    (kernel spanning the whole input).  BatchNorm/Scale are already
    folded into ``weight``/``bias``; ``relu`` and an optional fused
    eltwise ride the SDP stage.
    """

    input: TensorRef = None  # type: ignore[assignment]
    output: TensorRef = None  # type: ignore[assignment]
    weight: np.ndarray = None  # type: ignore[assignment]  # KCRS, float32 pre-quant
    bias: np.ndarray | None = None  # float32 pre-quant
    stride: tuple[int, int] = (1, 1)  # (y, x)
    pad: tuple[int, int, int, int] = (0, 0, 0, 0)  # top, bottom, left, right
    relu: bool = False
    eltwise: EltwiseOpKind | None = None
    eltwise_input: TensorRef | None = None
    precision: Precision = Precision.INT8
    # Quantised artefacts (filled by the quantisation step for INT8):
    q_weight: np.ndarray | None = None
    q_bias: np.ndarray | None = None
    weight_scale: float = 1.0
    cvt_mult: int = 1
    cvt_shift: int = 0
    # ERDMA operand converter for a fused residual add (INT8).
    ew_cvt_mult: int = 1
    ew_cvt_shift: int = 0
    # Weight-blob placement (filled by the weight packer):
    weight_offset: int | None = None
    weight_bytes: int | None = None
    bias_offset: int | None = None
    # Kernel dims survive serialisation after arrays are stripped:
    kernel_dims: tuple[int, int, int, int] | None = None
    # Fused pooling epilogue (descriptor-level fusion): when
    # ``pool_mode`` is set, PDP streams the SDP result on-chip and
    # ``output`` is the *pool* output; the conv/SDP stage produces
    # ``conv_out_shape`` without touching DRAM.
    pool_mode: str | None = None  # 'max' | 'avg'
    pool_kernel: tuple[int, int] = (1, 1)  # (h, w)
    pool_stride: tuple[int, int] = (1, 1)  # (y, x)
    pool_pad: tuple[int, int, int, int] = (0, 0, 0, 0)  # top, bottom, left, right
    conv_out_shape: tuple[int, int, int] | None = None  # C, H, W before pooling

    def inputs(self) -> list[TensorRef]:
        refs = [self.input]
        if self.eltwise_input is not None:
            refs.append(self.eltwise_input)
        return refs

    def outputs(self) -> list[TensorRef]:
        return [self.output]

    @property
    def kernel_shape(self) -> tuple[int, int, int, int]:
        if self.kernel_dims is not None:
            return self.kernel_dims
        return tuple(self.weight.shape)  # type: ignore[return-value]

    @property
    def has_pool_epilogue(self) -> bool:
        return self.pool_mode is not None

    @property
    def sdp_out_shape(self) -> tuple[int, int, int]:
        """Shape the conv/SDP stage produces (pre-pooling when fused)."""
        if self.conv_out_shape is not None:
            return self.conv_out_shape
        return self.output.shape

    @property
    def macs(self) -> int:
        k, c, r, s = self.kernel_shape
        _, out_h, out_w = self.sdp_out_shape
        return k * c * r * s * out_h * out_w


@dataclass
class SdpOp(HwOp):
    """Standalone SDP layer: eltwise / relu / rescale, memory-sourced."""

    input: TensorRef = None  # type: ignore[assignment]
    output: TensorRef = None  # type: ignore[assignment]
    relu: bool = False
    eltwise: EltwiseOpKind | None = None
    eltwise_input: TensorRef | None = None
    precision: Precision = Precision.INT8
    cvt_mult: int = 1
    cvt_shift: int = 0

    def inputs(self) -> list[TensorRef]:
        refs = [self.input]
        if self.eltwise_input is not None:
            refs.append(self.eltwise_input)
        return refs

    def outputs(self) -> list[TensorRef]:
        return [self.output]


@dataclass
class PoolOp(HwOp):
    """PDP pooling layer."""

    input: TensorRef = None  # type: ignore[assignment]
    output: TensorRef = None  # type: ignore[assignment]
    mode: str = "max"  # 'max' | 'avg'
    kernel: tuple[int, int] = (2, 2)  # (h, w)
    stride: tuple[int, int] = (2, 2)  # (y, x)
    pad: tuple[int, int, int, int] = (0, 0, 0, 0)  # top, bottom, left, right
    precision: Precision = Precision.INT8

    def inputs(self) -> list[TensorRef]:
        return [self.input]

    def outputs(self) -> list[TensorRef]:
        return [self.output]


@dataclass
class LrnOp(HwOp):
    """CDP local response normalisation layer."""

    input: TensorRef = None  # type: ignore[assignment]
    output: TensorRef = None  # type: ignore[assignment]
    local_size: int = 5
    alpha: float = 1e-4  # already scale-adjusted for INT8 by lowering
    beta: float = 0.75
    k: float = 1.0
    precision: Precision = Precision.INT8

    def inputs(self) -> list[TensorRef]:
        return [self.input]

    def outputs(self) -> list[TensorRef]:
        return [self.output]


@dataclass
class CpuSoftmaxOp(HwOp):
    """Softmax executed on the host core (NVDLA has no exp unit)."""

    input: TensorRef = None  # type: ignore[assignment]

    def inputs(self) -> list[TensorRef]:
        return [self.input]


@dataclass
class Schedule:
    """Ordered hardware ops plus host ops and tensor bookkeeping."""

    ops: list[HwOp] = field(default_factory=list)
    input_tensor: TensorRef | None = None
    output_tensor: TensorRef | None = None
    cpu_ops: list[CpuSoftmaxOp] = field(default_factory=list)

    def hw_ops(self) -> list[HwOp]:
        return [op for op in self.ops if not isinstance(op, CpuSoftmaxOp)]
