"""The loadable: NVDLA's compiled-network container.

Holds the scheduled hardware ops (addresses resolved), the packed
weight blob, tensor metadata and the memory map.  Serialises to a
single binary: a JSON header (ops, tensors, regions) followed by the
raw weight blob — the moral equivalent of the NVDLA flatbuffer
loadable, readable without any schema tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import LoadableError
from repro.compiler.allocator import MemoryMap, Region
from repro.compiler.ops import (
    ConvOp,
    CpuSoftmaxOp,
    EltwiseOpKind,
    HwOp,
    LrnOp,
    PoolOp,
    Schedule,
    SdpOp,
    TensorRef,
)
from repro.nvdla.config import Precision

_MAGIC = b"RPLD"
_VERSION = 1


@dataclass
class Loadable:
    """A compiled network ready for the VP runtime or deployment."""

    network: str
    config: str
    precision: Precision
    schedule: Schedule
    weight_blob: bytes
    memory_map: MemoryMap
    tiling_summary: dict = field(default_factory=dict)

    @property
    def input_tensor(self) -> TensorRef:
        if self.schedule.input_tensor is None:
            raise LoadableError(f"loadable {self.network!r}: schedule has no input tensor")
        return self.schedule.input_tensor

    @property
    def output_tensor(self) -> TensorRef:
        if self.schedule.output_tensor is None:
            raise LoadableError(f"loadable {self.network!r}: schedule has no output tensor")
        return self.schedule.output_tensor

    @property
    def weight_base(self) -> int:
        return self.memory_map.weights.address

    def hw_op_count(self) -> int:
        return sum(1 for op in self.schedule.ops if not isinstance(op, CpuSoftmaxOp))

    def describe(self) -> str:
        lines = [
            f"loadable: {self.network} on {self.config} ({self.precision.value})",
            f"  hw ops: {self.hw_op_count()}  host ops: {len(self.schedule.cpu_ops)}",
            f"  weight blob: {len(self.weight_blob) / 1024:.1f} KiB",
            self.memory_map.describe(),
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = json.dumps(self._header()).encode()
        return (
            _MAGIC
            + _VERSION.to_bytes(2, "little")
            + len(header).to_bytes(4, "little")
            + header
            + self.weight_blob
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Loadable":
        if blob[:4] != _MAGIC:
            raise LoadableError("not a loadable (bad magic)")
        version = int.from_bytes(blob[4:6], "little")
        if version != _VERSION:
            raise LoadableError(f"unsupported loadable version {version}")
        header_len = int.from_bytes(blob[6:10], "little")
        header = json.loads(blob[10 : 10 + header_len].decode())
        weights = blob[10 + header_len :]
        return cls._from_header(header, weights)

    def _header(self) -> dict:
        return {
            "network": self.network,
            "config": self.config,
            "precision": self.precision.value,
            "tiling": self.tiling_summary,
            "memory_map": {
                "base": self.memory_map.base,
                "regions": [
                    [r.name, r.address, r.size]
                    for r in (
                        self.memory_map.weights,
                        self.memory_map.input,
                        self.memory_map.activations,
                    )
                ],
                "blobs": self.memory_map.blob_addresses,
            },
            "input": _tensor_dict(self.input_tensor),
            "output": _tensor_dict(self.output_tensor),
            "ops": [_op_dict(op) for op in self.schedule.ops],
        }

    @classmethod
    def _from_header(cls, header: dict, weights: bytes) -> "Loadable":
        regions = {
            name: Region(name, address, size)
            for name, address, size in header["memory_map"]["regions"]
        }
        memory_map = MemoryMap(
            base=header["memory_map"]["base"],
            weights=regions["weights"],
            input=regions["input"],
            activations=regions["activations"],
            blob_addresses=dict(header["memory_map"]["blobs"]),
        )
        schedule = Schedule()
        schedule.input_tensor = _tensor_from(header["input"])
        schedule.output_tensor = _tensor_from(header["output"])
        for op_data in header["ops"]:
            op = _op_from(op_data)
            schedule.ops.append(op)
            if isinstance(op, CpuSoftmaxOp):
                schedule.cpu_ops.append(op)
        return cls(
            network=header["network"],
            config=header["config"],
            precision=Precision(header["precision"]),
            schedule=schedule,
            weight_blob=weights,
            memory_map=memory_map,
            tiling_summary=header.get("tiling", {}),
        )


def _tensor_dict(ref: TensorRef) -> dict:
    return {
        "blob": ref.blob,
        "shape": list(ref.shape),
        "precision": ref.precision.value,
        "scale": ref.scale,
        "channel_offset": ref.channel_offset,
        "parent_channels": ref.parent_channels,
        "address": ref.address,
    }


def _tensor_from(data: dict) -> TensorRef:
    return TensorRef(
        blob=data["blob"],
        shape=tuple(data["shape"]),
        precision=Precision(data["precision"]),
        scale=data["scale"],
        channel_offset=data["channel_offset"],
        parent_channels=data["parent_channels"],
        address=data["address"],
    )


def _op_dict(op: HwOp) -> dict:
    base = {"kind": op.kind, "name": op.name}
    if isinstance(op, ConvOp):
        base.update(
            input=_tensor_dict(op.input),
            output=_tensor_dict(op.output),
            kernel=list(op.kernel_shape),
            stride=list(op.stride),
            pad=list(op.pad),
            relu=op.relu,
            eltwise=None if op.eltwise is None else op.eltwise.value,
            eltwise_input=(
                None if op.eltwise_input is None else _tensor_dict(op.eltwise_input)
            ),
            precision=op.precision.value,
            cvt_mult=op.cvt_mult,
            cvt_shift=op.cvt_shift,
            ew_cvt_mult=op.ew_cvt_mult,
            ew_cvt_shift=op.ew_cvt_shift,
            weight_scale=op.weight_scale,
            weight_offset=op.weight_offset,
            weight_bytes=op.weight_bytes,
            bias_offset=op.bias_offset,
            pool_mode=op.pool_mode,
            pool_kernel=list(op.pool_kernel),
            pool_stride=list(op.pool_stride),
            pool_pad=list(op.pool_pad),
            conv_out_shape=(
                None if op.conv_out_shape is None else list(op.conv_out_shape)
            ),
        )
    elif isinstance(op, SdpOp):
        base.update(
            input=_tensor_dict(op.input),
            output=_tensor_dict(op.output),
            relu=op.relu,
            eltwise=None if op.eltwise is None else op.eltwise.value,
            eltwise_input=None if op.eltwise_input is None else _tensor_dict(op.eltwise_input),
            precision=op.precision.value,
            cvt_mult=op.cvt_mult,
            cvt_shift=op.cvt_shift,
        )
    elif isinstance(op, PoolOp):
        base.update(
            input=_tensor_dict(op.input),
            output=_tensor_dict(op.output),
            mode=op.mode,
            kernel=list(op.kernel),
            stride=list(op.stride),
            pad=list(op.pad),
            precision=op.precision.value,
        )
    elif isinstance(op, LrnOp):
        base.update(
            input=_tensor_dict(op.input),
            output=_tensor_dict(op.output),
            local_size=op.local_size,
            alpha=op.alpha,
            beta=op.beta,
            k=op.k,
            precision=op.precision.value,
        )
    elif isinstance(op, CpuSoftmaxOp):
        base.update(input=_tensor_dict(op.input))
    else:  # pragma: no cover
        raise LoadableError(f"cannot serialise op kind {op.kind!r}")
    return base


def _op_from(data: dict) -> HwOp:
    kind = data["kind"]
    if kind == "conv":
        eltwise = data.get("eltwise")
        return ConvOp(
            name=data["name"],
            input=_tensor_from(data["input"]),
            output=_tensor_from(data["output"]),
            weight=None,  # type: ignore[arg-type]
            kernel_dims=tuple(data["kernel"]),
            stride=tuple(data["stride"]),
            pad=tuple(data["pad"]),
            relu=data["relu"],
            eltwise=None if eltwise is None else EltwiseOpKind(eltwise),
            eltwise_input=(
                None
                if data.get("eltwise_input") is None
                else _tensor_from(data["eltwise_input"])
            ),
            precision=Precision(data["precision"]),
            cvt_mult=data["cvt_mult"],
            cvt_shift=data["cvt_shift"],
            ew_cvt_mult=data.get("ew_cvt_mult", 1),
            ew_cvt_shift=data.get("ew_cvt_shift", 0),
            weight_scale=data.get("weight_scale", 1.0),
            weight_offset=data["weight_offset"],
            weight_bytes=data["weight_bytes"],
            bias_offset=data["bias_offset"],
            pool_mode=data.get("pool_mode"),
            pool_kernel=tuple(data.get("pool_kernel", (1, 1))),
            pool_stride=tuple(data.get("pool_stride", (1, 1))),
            pool_pad=tuple(data.get("pool_pad", (0, 0, 0, 0))),
            conv_out_shape=(
                None
                if data.get("conv_out_shape") is None
                else tuple(data["conv_out_shape"])
            ),
        )
    if kind == "sdp":
        eltwise = data["eltwise"]
        return SdpOp(
            name=data["name"],
            input=_tensor_from(data["input"]),
            output=_tensor_from(data["output"]),
            relu=data["relu"],
            eltwise=None if eltwise is None else EltwiseOpKind(eltwise),
            eltwise_input=(
                None if data["eltwise_input"] is None else _tensor_from(data["eltwise_input"])
            ),
            precision=Precision(data["precision"]),
            cvt_mult=data["cvt_mult"],
            cvt_shift=data["cvt_shift"],
        )
    if kind == "pool":
        return PoolOp(
            name=data["name"],
            input=_tensor_from(data["input"]),
            output=_tensor_from(data["output"]),
            mode=data["mode"],
            kernel=tuple(data["kernel"]),
            stride=tuple(data["stride"]),
            pad=tuple(data["pad"]),
            precision=Precision(data["precision"]),
        )
    if kind == "lrn":
        return LrnOp(
            name=data["name"],
            input=_tensor_from(data["input"]),
            output=_tensor_from(data["output"]),
            local_size=data["local_size"],
            alpha=data["alpha"],
            beta=data["beta"],
            k=data["k"],
            precision=Precision(data["precision"]),
        )
    if kind == "cpusoftmax":
        return CpuSoftmaxOp(name=data["name"], input=_tensor_from(data["input"]))
    raise LoadableError(f"unknown op kind {kind!r} in loadable")
