"""Weight-blob packing.

Lays every convolution's packed weights and bias vector into one
contiguous image, each blob aligned to :data:`WEIGHT_ALIGN` bytes —
the "weight file" of the paper's flow, preloaded into DRAM by the Zynq
PS before inference.  Offsets are recorded on the ops; absolute
addresses are ``weight_base + offset`` once the allocator places the
region.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompilerError
from repro.compiler.ops import ConvOp, Schedule
from repro.nvdla.config import HardwareConfig, Precision
from repro.nvdla.layout import pack_weights

#: Byte alignment of every weight and bias blob in the weight image.
WEIGHT_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + WEIGHT_ALIGN - 1) // WEIGHT_ALIGN * WEIGHT_ALIGN


def pack_schedule_weights(schedule: Schedule, config: HardwareConfig) -> bytes:
    """Pack all weights/biases; fills the ops' offset fields.

    Returns the weight blob.  INT8 ops must already be quantised.
    """
    chunks: list[bytes] = []
    offset = 0

    def push(data: bytes) -> int:
        nonlocal offset
        start = _aligned(offset)
        if start > offset:
            chunks.append(b"\x00" * (start - offset))
        chunks.append(data)
        offset = start + len(data)
        return start

    for op in schedule.ops:
        if not isinstance(op, ConvOp):
            continue
        atomic_c, atomic_k = config.atoms(op.precision)
        if op.precision is Precision.INT8:
            if op.q_weight is None:
                raise CompilerError(f"conv {op.name!r} was not quantised before packing")
            weight_blob = pack_weights(op.q_weight, atomic_c, atomic_k, op.precision)
            bias_blob = None if op.q_bias is None else op.q_bias.astype(np.int32).tobytes()
        else:
            weight_blob = pack_weights(
                op.weight.astype(np.float16), atomic_c, atomic_k, op.precision
            )
            bias_blob = None if op.bias is None else op.bias.astype(np.float16).tobytes()
        op.weight_offset = push(weight_blob)
        op.weight_bytes = len(weight_blob)
        op.bias_offset = None if bias_blob is None else push(bias_blob)
    return b"".join(chunks)
