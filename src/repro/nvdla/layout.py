"""NVDLA in-memory tensor and weight layouts.

Feature maps live in DRAM in NVDLA's *feature format*: channels are
grouped into memory atoms of ``atom_channels`` (8 INT8 lanes for
nv_small, 32 bytes worth for nv_full), laid out as::

    surface[ceil(C / atom)][H][W][atom]  (innermost = channel lanes)

Weights are packed per kernel group: output channels are grouped by
``atomic_k``; inside a group the elements are ordered ``[R][S]
[ceil(C/atomic_c)][atomic_c][atomic_k]`` with zero padding to full
atoms, which is what the CMAC array consumes stripe by stripe.

Both the compiler (producing DRAM images) and the convolution pipeline
(reading them back) use these functions, so functional simulation is
layout-faithful end to end: a corrupted stride or a wrong atom count
produces wrong numbers, exactly as on hardware.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nvdla.config import Precision

_DTYPES = {Precision.INT8: np.int8, Precision.FP16: np.float16}


def dtype_for(precision: Precision) -> np.dtype:
    return np.dtype(_DTYPES[precision])


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ----------------------------------------------------------------------
# Feature maps.
# ----------------------------------------------------------------------


def feature_size_bytes(shape: tuple[int, int, int], atom_channels: int, precision: Precision) -> int:
    """Bytes of the packed feature surface for a CHW tensor."""
    c, h, w = shape
    surfaces = ceil_div(c, atom_channels)
    return surfaces * h * w * atom_channels * precision.itemsize


def sdp_operand_bytes(channels: int, precision: Precision) -> int:
    """Bytes of one SDP per-channel operand blob (bias or BN multiplier).

    SDP reads its operands in its datapath precision: int32 per channel
    for INT8 (the accumulator domain), fp16 for FP16.  ``precision`` is
    the precision SDP reads its input in — the convolution's when the
    input streams on the fly, the input surface's when it comes from
    memory — not the output converter's.
    """
    return channels * (4 if precision is Precision.INT8 else 2)


def pack_feature(tensor: np.ndarray, atom_channels: int, precision: Precision) -> bytes:
    """Pack a CHW tensor into NVDLA feature format bytes.

    A stack of CHW tensors (leading axes before C) packs cube after
    cube, in C order of the leading axes: all cubes have one size.
    """
    if tensor.ndim < 3:
        raise ConfigurationError(f"feature tensors are CHW, got shape {tensor.shape}")
    dtype = dtype_for(precision)
    *lead, c, h, w = tensor.shape
    surfaces = ceil_div(c, atom_channels)
    if c == surfaces * atom_channels:
        padded = tensor.astype(dtype, copy=False)
    else:
        padded = np.zeros((*lead, surfaces * atom_channels, h, w), dtype=dtype)
        padded[..., :c, :, :] = tensor
    # [.., S*atom, H, W] -> [.., S, atom, H, W] -> [.., S, H, W, atom]
    packed = padded.reshape(*lead, surfaces, atom_channels, h, w)
    return np.moveaxis(packed, -3, -1).tobytes()


def unpack_features(
    blob: bytes,
    count: int,
    shape: tuple[int, int, int],
    atom_channels: int,
    precision: Precision,
) -> np.ndarray:
    """``count`` packed surfaces of one shape, back to back in ``blob``,
    as a (count, C, H, W) array; it may be a read-only view of ``blob``,
    so cast or copy it to own it."""
    c, h, w = shape
    dtype = dtype_for(precision)
    surfaces = ceil_div(c, atom_channels)
    expected = count * feature_size_bytes(shape, atom_channels, precision)
    if len(blob) < expected:
        raise ConfigurationError(
            f"feature blob too small: {len(blob)} bytes < expected {expected}"
        )
    packed = np.frombuffer(blob, dtype=dtype, count=expected // dtype.itemsize)
    lanes = packed.reshape(count, surfaces, h, w, atom_channels).transpose(0, 1, 4, 2, 3)
    return lanes.reshape(count, surfaces * atom_channels, h, w)[:, :c]


def unpack_feature(
    blob: bytes,
    shape: tuple[int, int, int],
    atom_channels: int,
    precision: Precision,
) -> np.ndarray:
    """Inverse of :func:`pack_feature`; returns a CHW array."""
    return unpack_features(blob, 1, shape, atom_channels, precision)[0].copy()


def feature_strides(
    shape: tuple[int, int, int], atom_channels: int, precision: Precision
) -> tuple[int, int]:
    """(line_stride, surface_stride) in bytes for a packed CHW tensor."""
    _, h, w = shape
    line = w * atom_channels * precision.itemsize
    return line, line * h


# ----------------------------------------------------------------------
# Weights.
# ----------------------------------------------------------------------


def weight_size_bytes(
    shape: tuple[int, int, int, int],
    atomic_c: int,
    atomic_k: int,
    precision: Precision,
) -> int:
    """Bytes of the packed weight blob for a KCRS kernel tensor."""
    k, c, r, s = shape
    kg = ceil_div(k, atomic_k)
    cg = ceil_div(c, atomic_c)
    return kg * atomic_k * cg * atomic_c * r * s * precision.itemsize


def pack_weights(
    weights: np.ndarray,
    atomic_c: int,
    atomic_k: int,
    precision: Precision,
) -> bytes:
    """Pack a KCRS kernel tensor into CMAC stripe order.

    Layout: ``[kg][R][S][cg][atomic_c][atomic_k]`` with zero padding of
    both channel axes to whole atoms (padding participates in the MAC
    array, which is why low channel counts waste the array — the
    efficiency effect that dominates depthwise layers in Table III).
    """
    if weights.ndim != 4:
        raise ConfigurationError(f"weights are KCRS, got shape {weights.shape}")
    dtype = dtype_for(precision)
    weights = np.ascontiguousarray(weights, dtype=dtype)
    k, c, r, s = weights.shape
    kg = ceil_div(k, atomic_k)
    cg = ceil_div(c, atomic_c)
    padded = np.zeros((kg * atomic_k, cg * atomic_c, r, s), dtype=dtype)
    padded[:k, :c] = weights
    # [K', C', R, S] -> [kg, ak, cg, ac, R, S] -> [kg, R, S, cg, ac, ak]
    stacked = padded.reshape(kg, atomic_k, cg, atomic_c, r, s).transpose(0, 4, 5, 2, 3, 1)
    return np.ascontiguousarray(stacked).tobytes()


def unpack_weights(
    blob: bytes,
    shape: tuple[int, int, int, int],
    atomic_c: int,
    atomic_k: int,
    precision: Precision,
) -> np.ndarray:
    """Inverse of :func:`pack_weights`; returns a KCRS array."""
    k, c, r, s = shape
    dtype = dtype_for(precision)
    kg = ceil_div(k, atomic_k)
    cg = ceil_div(c, atomic_c)
    expected = kg * atomic_k * cg * atomic_c * r * s * dtype.itemsize
    if len(blob) < expected:
        raise ConfigurationError(f"weight blob too small: {len(blob)} < {expected}")
    stacked = np.frombuffer(blob[:expected], dtype=dtype).reshape(kg, r, s, cg, atomic_c, atomic_k)
    padded = stacked.transpose(0, 5, 3, 4, 1, 2).reshape(kg * atomic_k, cg * atomic_c, r, s)
    return padded[:k, :c].copy()
