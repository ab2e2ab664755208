"""Functional kernels for the NVDLA datapath.

These implement the arithmetic of the hardware units on NumPy arrays:
direct convolution (im2col + one GEMM), the SDP post-processing chain,
pooling, LRN and eltwise.  Integer paths accumulate in int64 (hardware
uses int32 accumulators with saturation applied by the SDP converter —
saturation is applied at the same point here); FP16 paths accumulate
in float32, like CMAC's FP16 pipeline.

The convolution and the SDP stages also take a leading *group* axis:
a run of launches of one shape (the blocks of a depthwise layer)
executes as one call, each launch with its own weights, operands and
converter values.  A *batch* axis after it carries the requests of a
serving batch: same launches, one input each.

They are intentionally *not* shared with :mod:`repro.nn.reference`
(the float reference executor) so that an arithmetic bug in one cannot
cancel out in validation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.nvdla.descriptors import EltwiseOp, PoolMode

#: Longest INT8 reduction a float32 GEMM sums exactly: every product
#: is at most 2^14 in magnitude (-128 * -128), so any partial sum of
#: 1024 of them is an integer of at most 2^24, which float32 holds.
INT8_EXACT_TERMS = 1024


def gemm_dtype(dtype: np.dtype) -> np.dtype:
    """The dtype :func:`conv2d_direct` multiplies operands of ``dtype`` in.

    INT8 runs in float32, exact in chunks of :data:`INT8_EXACT_TERMS`;
    any other integer type in float64, exact while sums stay below
    2^53; FP16 in float32, like CMAC's FP16 pipeline.
    """
    if dtype == np.int8 or not np.issubdtype(dtype, np.integer):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


#: Largest batched temporary of the fast tier's kernels, in bytes: the
#: im2col matrix of one :func:`conv2d_direct` GEMM, and the int64
#: accumulators of one conv+SDP pass
#: (:func:`repro.nvdla.programming.execute_descriptors`).  A bigger
#: batch runs as several GEMMs or passes, split by images, so a serving
#: batch's transient memory stays near that of a single image.
BATCH_BYTES = 1 << 19


def conv2d_direct(
    x: np.ndarray,
    w: np.ndarray,
    stride: tuple[int, int],
    pad: tuple[int, int, int, int],
) -> np.ndarray:
    """Direct convolution, CHW input and KCRS weights.

    With a leading group axis (``x`` GCHW, ``w`` GKCRS) each group is
    its own convolution and all run as one batched GEMM.  A batch axis
    right before C (``x`` BCHW or GBCHW) convolves every image with the
    same weights: the images' im2col columns sit side by side in one
    GEMM, at most :data:`BATCH_BYTES` of them, and the result keeps
    the batch axis before K.  ``w`` may already be in the GEMM dtype
    (:func:`gemm_dtype` of ``x``), holding the integer kernel's values;
    it is then used without a copy.

    Returns int64 accumulators for integer inputs and float32 for
    floating inputs (matching CMAC/CACC accumulation).
    ``pad`` is (top, bottom, left, right).
    """
    group = w.shape[:-4]
    batched = x.ndim == w.ndim
    if (
        w.ndim not in (4, 5)
        or x.ndim - len(group) - batched != 3
        or x.shape[: len(group)] != group
    ):
        raise ConfigurationError(
            "conv2d expects CHW input and KCRS weights (or one group axis on "
            "both), the input optionally with a batch axis before C"
        )
    if not batched:
        x = x[..., None, :, :, :]
    *_, images, c, h, width = x.shape
    k, wc, r, s = w.shape[-4:]
    if wc != c:
        raise ConfigurationError(f"channel mismatch: input {c}, weights {wc}")
    stride_y, stride_x = stride
    pad_top, pad_bottom, pad_left, pad_right = pad
    ph, pw = h + pad_top + pad_bottom, width + pad_left + pad_right
    out_h = (ph - r) // stride_y + 1
    out_w = (pw - s) // stride_x + 1
    if out_h <= 0 or out_w <= 0:
        raise ConfigurationError("convolution output would be empty")

    compute_dtype = gemm_dtype(x.dtype)
    padded = np.zeros((*group, images, c, ph, pw), dtype=compute_dtype)
    padded[..., pad_top : pad_top + h, pad_left : pad_left + width] = x

    # im2col via stride tricks: windows[..., c, r, s, image, oh, ow]
    *gs, bs, cs, hs, ws = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(*group, c, r, s, images, out_h, out_w),
        strides=(*gs, cs, hs, ws, bs, hs * stride_y, ws * stride_x),
        writeable=False,
    )
    terms = c * r * s
    pixels = out_h * out_w
    kernel = w.astype(compute_dtype, copy=False).reshape(*group, k, terms)
    # Integer GEMMs are exact, so the cast back needs no rounding.
    acc_dtype = np.int64 if np.issubdtype(x.dtype, np.integer) else np.float32
    per_gemm = max(1, BATCH_BYTES // (math.prod(group) * terms * pixels * compute_dtype.itemsize))
    parts = []
    for first in range(0, images, per_gemm):
        last = min(images, first + per_gemm)
        # The reshape copies the windows: this is the im2col matrix.
        cols = windows[..., first:last, :, :].reshape(*group, terms, (last - first) * pixels)
        if x.dtype != np.int8 or terms <= INT8_EXACT_TERMS:
            part = kernel @ cols
        else:
            part = np.zeros((*group, k, cols.shape[-1]), dtype=np.int64)
            for lo in range(0, terms, INT8_EXACT_TERMS):
                hi = lo + INT8_EXACT_TERMS
                part += (kernel[..., lo:hi] @ cols[..., lo:hi, :]).astype(np.int64)
        del cols  # before the next GEMM's matrix exists
        # (.., K, images, pixels) -> (.., images, K, pixels), in one cast copy
        parts.append(np.ascontiguousarray(
            part.reshape(*group, k, last - first, pixels).swapaxes(-2, -3), dtype=acc_dtype
        ))
    acc = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-3)
    acc = acc.reshape(*group, images, k, out_h, out_w)
    return acc if batched else acc[..., 0, :, :, :]


# The SDP stages below update the accumulator in place and return it:
# the datapath owns the array it is handed (a convolution's fresh
# accumulators or a freshly read surface).  Per-channel operands are
# (..., C) and broadcast over H and W, so a group axis passes through
# (and a batch axis, given (G, 1, C) operands).


def _per_channel(acc: np.ndarray, operand: np.ndarray, what: str) -> np.ndarray:
    if operand.shape[-1] != acc.shape[-3]:
        raise ConfigurationError(
            f"{what} channels {operand.shape[-1]} != output channels {acc.shape[-3]}"
        )
    return operand[..., None, None]


def apply_bias(acc: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Per-output-channel bias addition on the accumulator (in place)."""
    if bias is None:
        return acc
    acc += _per_channel(acc, bias, "bias").astype(acc.dtype, copy=False)
    return acc


def apply_batchnorm(acc: np.ndarray, mult: np.ndarray | None) -> np.ndarray:
    """Per-channel multiplier (folded batch-norm scale); a new array in
    the multiplier's dtype."""
    if mult is None:
        return acc
    return acc * _per_channel(acc, mult, "batch-norm multiplier")


def apply_eltwise(acc: np.ndarray, op: EltwiseOp, operand: np.ndarray | None) -> np.ndarray:
    """Element-wise add/mul/max with a second tensor (in place)."""
    if op is EltwiseOp.NONE:
        return acc
    if operand is None:
        raise ConfigurationError("eltwise operand missing")
    ufunc = {EltwiseOp.ADD: np.add, EltwiseOp.MUL: np.multiply, EltwiseOp.MAX: np.maximum}[op]
    return ufunc(acc, operand.astype(acc.dtype, copy=False), out=acc)


def apply_relu(acc: np.ndarray, enabled: bool) -> np.ndarray:
    """ReLU (in place)."""
    if not enabled:
        return acc
    return np.maximum(acc, 0, out=acc)


def scale_round(x: np.ndarray, multiplier, shift, nonnegative: bool = False) -> np.ndarray:
    """``(x * multiplier + sign · half) >> shift`` in place on int64 ``x``.

    ``half`` is ``2^(shift-1)``, none when ``shift`` is 0: values round
    half away from zero before the arithmetic (flooring) shift.
    ``multiplier`` and ``shift`` are ints or int64 arrays broadcast
    over ``x`` (one value per group).  ``nonnegative`` promises that no
    value of ``x`` is negative (the chain ran ReLU), which makes the
    sign correction dead, so it is skipped.
    """
    x *= multiplier
    shift = np.asarray(shift, dtype=np.int64)
    # For shift > 0, (x - half) >> shift == ((x + half) >> shift) - 1,
    # so negatives take the shared add and one decrement after it.
    rounds_down = None
    if not nonnegative:
        rounds_down = x < 0
        if not np.all(shift > 0):
            rounds_down &= shift > 0
    x += (np.int64(1) << shift) >> 1
    x >>= shift
    if rounds_down is not None:
        x -= rounds_down
    return x


def requantize_int8(acc: np.ndarray, multiplier, shift, nonnegative: bool = False) -> np.ndarray:
    """Output converter: ``clamp(round(acc * mult / 2^shift))`` to int8.

    Rounds as :func:`scale_round`, in place on an int64 ``acc`` (its
    contents are consumed); ``multiplier``/``shift`` broadcast the same
    way.  With ``nonnegative`` (no negative ``acc``, multipliers of at
    least 0) only the high end can saturate.
    """
    scaled = scale_round(acc.astype(np.int64, copy=False), multiplier, shift, nonnegative)
    if nonnegative:
        return np.minimum(scaled, 127, out=scaled).astype(np.int8)
    return np.clip(scaled, -128, 127, out=scaled).astype(np.int8)


def convert_fp16(acc: np.ndarray, multiplier=1, shift=0) -> np.ndarray:
    """FP16 output converter with an optional power-of-two rescale."""
    scale = np.asarray(
        np.asarray(multiplier, dtype=np.float64) / (np.int64(1) << np.asarray(shift)),
        dtype=np.float32,
    )
    return (acc.astype(np.float32, copy=False) * scale).astype(np.float16)


def pool2d(
    x: np.ndarray,
    mode: PoolMode,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int, int, int],
) -> np.ndarray:
    """Pooling on a CHW tensor.  ``pad`` is (top, bottom, left, right).

    Average pooling divides by the full window size with zero padding
    (NVDLA PDP behaviour with exclusive-pad disabled).
    """
    kernel_h, kernel_w = kernel
    stride_y, stride_x = stride
    pad_top, pad_bottom, pad_left, pad_right = pad
    integer = np.issubdtype(x.dtype, np.integer)
    work = x.astype(np.float64 if integer else np.float32)

    if mode is PoolMode.MAX:
        fill = -np.inf
    elif mode is PoolMode.MIN:
        fill = np.inf
    else:
        fill = 0.0
    padded = np.pad(
        work,
        ((0, 0), (pad_top, pad_bottom), (pad_left, pad_right)),
        mode="constant",
        constant_values=fill,
    )
    c, ph, pw = padded.shape
    out_h = (ph - kernel_h) // stride_y + 1
    out_w = (pw - kernel_w) // stride_x + 1
    cs, hs, ws = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(c, out_h, out_w, kernel_h, kernel_w),
        strides=(cs, hs * stride_y, ws * stride_x, hs, ws),
        writeable=False,
    )
    if mode is PoolMode.MAX:
        result = windows.max(axis=(3, 4))
    elif mode is PoolMode.MIN:
        result = windows.min(axis=(3, 4))
    else:
        result = windows.sum(axis=(3, 4)) / float(kernel_h * kernel_w)
    if integer:
        return np.clip(np.rint(result), -128, 127).astype(x.dtype)
    return result.astype(x.dtype)


def lrn(x: np.ndarray, local_size: int, alpha: float, beta: float, k: float) -> np.ndarray:
    """Local response normalisation across channels (AlexNet/GoogleNet).

    ``y_c = x_c / (k + alpha/n * sum_{c'} x_{c'}^2) ** beta`` over a
    window of ``n = local_size`` channels centred on ``c``.
    """
    work = x.astype(np.float32)
    c = work.shape[0]
    squared = work * work
    half = local_size // 2
    sums = np.zeros_like(work)
    for offset in range(-half, half + 1):
        lo = max(0, -offset)
        hi = min(c, c - offset)
        sums[lo:hi] += squared[lo + offset : hi + offset]
    denom = (k + (alpha / local_size) * sums) ** beta
    result = work / denom
    if np.issubdtype(x.dtype, np.integer):
        return np.clip(np.rint(result), -128, 127).astype(x.dtype)
    return result.astype(x.dtype)
