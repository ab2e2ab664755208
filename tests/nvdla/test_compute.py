"""Functional kernels vs independent references (scipy / naive loops)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import correlate2d

from repro.errors import ConfigurationError
from repro.nvdla.compute import (
    apply_batchnorm,
    apply_bias,
    apply_eltwise,
    apply_relu,
    conv2d_direct,
    convert_fp16,
    lrn,
    pool2d,
    requantize_int8,
)
from repro.nvdla.descriptors import EltwiseOp, PoolMode


def scipy_conv(x, w, stride, pad):
    """Independent reference via scipy cross-correlation."""
    pad_t, pad_b, pad_l, pad_r = pad
    xp = np.pad(x.astype(np.int64), ((0, 0), (pad_t, pad_b), (pad_l, pad_r)))
    k = w.shape[0]
    out_full = [
        sum(
            correlate2d(xp[c], w[kk, c].astype(np.int64), mode="valid")
            for c in range(x.shape[0])
        )
        for kk in range(k)
    ]
    sy, sx = stride
    return np.stack(out_full)[:, ::sy, ::sx]


@pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 2)])
@pytest.mark.parametrize("pad", [(0, 0, 0, 0), (1, 1, 1, 1), (2, 0, 1, 0)])
def test_conv_matches_scipy(rng, stride, pad):
    x = rng.integers(-20, 20, size=(3, 9, 9), dtype=np.int8)
    w = rng.integers(-5, 5, size=(4, 3, 3, 3), dtype=np.int8)
    ours = conv2d_direct(x, w, stride=stride, pad=pad)
    ref = scipy_conv(x, w, stride, pad)
    assert np.array_equal(ours, ref)


def test_conv_1x1_is_channel_mix(rng):
    x = rng.integers(-10, 10, size=(5, 4, 4), dtype=np.int8)
    w = rng.integers(-3, 3, size=(2, 5, 1, 1), dtype=np.int8)
    ours = conv2d_direct(x, w, (1, 1), (0, 0, 0, 0))
    ref = np.einsum("kc,chw->khw", w[:, :, 0, 0].astype(np.int64), x.astype(np.int64))
    assert np.array_equal(ours, ref)


def test_conv_fp16_accumulates_in_float32(rng):
    x = rng.normal(size=(2, 5, 5)).astype(np.float16)
    w = rng.normal(size=(3, 2, 3, 3)).astype(np.float16)
    out = conv2d_direct(x, w, (1, 1), (0, 0, 0, 0))
    assert out.dtype == np.float32
    ref = scipy_conv_float(x, w)
    assert np.allclose(out, ref, rtol=1e-3)


def scipy_conv_float(x, w):
    k = w.shape[0]
    return np.stack(
        [
            sum(
                correlate2d(x[c].astype(np.float64), w[kk, c].astype(np.float64), mode="valid")
                for c in range(x.shape[0])
            )
            for kk in range(k)
        ]
    ).astype(np.float32)


def test_conv_channel_mismatch_rejected(rng):
    with pytest.raises(ConfigurationError):
        conv2d_direct(
            np.zeros((3, 5, 5), np.int8), np.zeros((2, 4, 3, 3), np.int8), (1, 1), (0, 0, 0, 0)
        )


def test_conv_empty_output_rejected():
    with pytest.raises(ConfigurationError):
        conv2d_direct(
            np.zeros((1, 2, 2), np.int8), np.zeros((1, 1, 5, 5), np.int8), (1, 1), (0, 0, 0, 0)
        )


def test_bias_and_batchnorm(rng):
    acc = rng.integers(-100, 100, size=(4, 3, 3)).astype(np.int64)
    bias = np.array([1, -2, 3, -4], dtype=np.int64)
    biased = acc.copy()
    assert apply_bias(biased, bias) is biased  # in place on the accumulator
    assert np.array_equal(biased[1], acc[1] - 2)
    mult = np.array([2.0, 0.5, 1.0, 3.0])
    scaled = apply_batchnorm(acc.astype(np.float64), mult)
    assert np.allclose(scaled[0], acc[0] * 2.0)
    with pytest.raises(ConfigurationError):
        apply_bias(acc, np.zeros(3))


@pytest.mark.parametrize(
    "op,fn",
    [
        (EltwiseOp.ADD, np.add),
        (EltwiseOp.MUL, np.multiply),
        (EltwiseOp.MAX, np.maximum),
    ],
)
def test_eltwise_ops(rng, op, fn):
    a = rng.integers(-50, 50, size=(2, 4, 4)).astype(np.int64)
    b = rng.integers(-50, 50, size=(2, 4, 4)).astype(np.int64)
    expected = fn(a, b)
    assert apply_eltwise(a, op, b) is a  # in place on the accumulator
    assert np.array_equal(a, expected)


def test_eltwise_none_passthrough(rng):
    a = rng.integers(-5, 5, size=(1, 2, 2)).astype(np.int64)
    assert apply_eltwise(a, EltwiseOp.NONE, None) is a


def test_relu(rng):
    acc = np.array([[-3, 0, 5]], dtype=np.int64).reshape(1, 1, 3)
    assert np.array_equal(apply_relu(acc, True).flatten(), [0, 0, 5])
    assert np.array_equal(apply_relu(acc, False), acc)


def test_requantize_rounds_and_saturates():
    acc = np.array([1000, -1000, 5, -5, 127, 129], dtype=np.int64).reshape(1, 2, 3)
    out = requantize_int8(acc, multiplier=1, shift=0)
    assert out.dtype == np.int8
    assert list(out.flatten()) == [127, -128, 5, -5, 127, 127]
    halves = requantize_int8(np.array([[[3]]], dtype=np.int64), multiplier=1, shift=1)
    assert halves.flatten()[0] == 2  # round-half-away at the shift


def test_requantize_multiplier_scales():
    acc = np.array([[[10]]], dtype=np.int64)
    assert requantize_int8(acc, multiplier=13, shift=4).flatten()[0] == round(130 / 16)


def test_convert_fp16():
    acc = np.array([[[1.5, -2.25]]], dtype=np.float32)
    out = convert_fp16(acc)
    assert out.dtype == np.float16
    assert np.allclose(out.astype(np.float32), acc)
    assert convert_fp16(acc, multiplier=1, shift=1).flatten()[0] == np.float16(0.75)


@pytest.mark.parametrize("mode", [PoolMode.MAX, PoolMode.AVG, PoolMode.MIN])
def test_pool_basic(rng, mode):
    x = rng.integers(-50, 50, size=(3, 6, 6), dtype=np.int8)
    out = pool2d(x, mode, kernel=(2, 2), stride=(2, 2), pad=(0, 0, 0, 0))
    assert out.shape == (3, 3, 3)
    window = x[:, :2, :2].astype(np.float64)
    if mode is PoolMode.MAX:
        expected = window.max(axis=(1, 2))
    elif mode is PoolMode.MIN:
        expected = window.min(axis=(1, 2))
    else:
        expected = np.rint(window.mean(axis=(1, 2)))
    assert np.array_equal(out[:, 0, 0].astype(np.float64), expected)


def test_max_pool_padding_does_not_win(rng):
    x = np.full((1, 2, 2), -100, dtype=np.int8)
    out = pool2d(x, PoolMode.MAX, kernel=(3, 3), stride=(1, 1), pad=(1, 1, 1, 1))
    assert out.max() == -100  # -inf padding never beats real values


def test_avg_pool_divides_by_full_window():
    x = np.full((1, 2, 2), 100, dtype=np.int8)
    out = pool2d(x, PoolMode.AVG, kernel=(2, 2), stride=(2, 2), pad=(1, 1, 1, 1))
    # corner window holds one real value + three zero pads -> 25
    assert out[0, 0, 0] == 25


def test_pool_overlapping_windows(rng):
    x = rng.integers(0, 100, size=(1, 5, 5), dtype=np.int8)
    out = pool2d(x, PoolMode.MAX, kernel=(3, 3), stride=(1, 1), pad=(0, 0, 0, 0))
    assert out.shape == (1, 3, 3)
    assert out[0, 1, 1] == x[0, 1:4, 1:4].max()


def test_lrn_matches_definition(rng):
    x = rng.normal(size=(8, 3, 3)).astype(np.float16)
    out = lrn(x, local_size=5, alpha=1e-2, beta=0.75, k=1.0)
    c = 3
    window = x.astype(np.float32)[max(0, c - 2) : c + 3]
    denom = (1.0 + (1e-2 / 5) * (window * window).sum(axis=0)) ** 0.75
    expected = x[c].astype(np.float32) / denom
    assert np.allclose(out[c].astype(np.float32), expected, rtol=2e-3, atol=2e-3)


def test_lrn_int8_stays_int8(rng):
    x = rng.integers(-100, 100, size=(4, 2, 2), dtype=np.int8)
    out = lrn(x, local_size=3, alpha=1e-4, beta=0.75, k=1.0)
    assert out.dtype == np.int8


@settings(max_examples=20)
@given(
    c=st.integers(1, 6),
    hw=st.integers(3, 8),
    k=st.integers(1, 6),
    ks=st.sampled_from([1, 3]),
)
def test_conv_property_vs_scipy(c, hw, k, ks):
    rng = np.random.default_rng(c * 100 + hw * 10 + k)
    x = rng.integers(-8, 8, size=(c, hw, hw), dtype=np.int8)
    w = rng.integers(-4, 4, size=(k, c, ks, ks), dtype=np.int8)
    ours = conv2d_direct(x, w, (1, 1), (0, 0, 0, 0))
    assert np.array_equal(ours, scipy_conv(x, w, (1, 1), (0, 0, 0, 0)))


def int64_conv(x, w):
    """Exact reference: unpadded, stride-1 correlation in int64."""
    c, h, width = x.shape
    k, _, r, s = w.shape
    out = np.zeros((k, h - r + 1, width - s + 1), dtype=np.int64)
    for dy in range(r):
        for dx in range(s):
            patch = x[:, dy : dy + out.shape[1], dx : dx + out.shape[2]].astype(np.int64)
            out += np.einsum("kc,chw->khw", w[:, :, dy, dx].astype(np.int64), patch)
    return out


@pytest.mark.parametrize(
    "c,rs", [(1024, 1), (128, 3), (512, 3)], ids=["crs1024", "crs1152", "crs4608"]
)
def test_int8_conv_exact_at_full_magnitude(c, rs):
    """-128 x -128 = 2^14 per product: the largest sums, exactly at and
    across the float32 chunk boundary (C*R*S = 1024, 1152, 4608)."""
    x = np.full((c, rs + 1, rs + 1), -128, dtype=np.int8)
    w = np.full((2, c, rs, rs), -128, dtype=np.int8)
    out = conv2d_direct(x, w, (1, 1), (0, 0, 0, 0))
    assert out.dtype == np.int64
    assert np.array_equal(out, int64_conv(x, w))
    assert out[0, 0, 0] == c * rs * rs * (1 << 14)


@pytest.mark.parametrize("c,rs", [(1024, 1), (128, 3), (512, 3), (7, 5)])
@pytest.mark.parametrize("low,high", [(-128, 128), (-128, -100)], ids=["full", "extreme"])
def test_int8_conv_exact_on_random_data(c, rs, low, high):
    """Random int8 data, over the whole range and at the negative
    extreme, where products are large and odd sums pass 2^24 within
    one output: one float32 GEMM over 4608 terms would lose bits."""
    rng = np.random.default_rng(c + rs)
    x = rng.integers(low, high, size=(c, rs + 2, rs + 3), dtype=np.int8)
    w = rng.integers(low, high, size=(4, c, rs, rs), dtype=np.int8)
    out = conv2d_direct(x, w, (1, 1), (0, 0, 0, 0))
    assert np.array_equal(out, int64_conv(x, w))
    # A kernel already cast to the GEMM dtype computes the same.
    assert np.array_equal(conv2d_direct(x, w.astype(np.float32), (1, 1), (0, 0, 0, 0)), out)


def test_grouped_conv_equals_one_call_per_group(rng):
    x = rng.integers(-128, 128, size=(5, 8, 7, 7), dtype=np.int8)
    w = rng.integers(-128, 128, size=(5, 8, 8, 3, 3), dtype=np.int8)
    out = conv2d_direct(x, w, (2, 1), (1, 0, 1, 2))
    for g in range(5):
        assert np.array_equal(out[g], conv2d_direct(x[g], w[g], (2, 1), (1, 0, 1, 2)))
    with pytest.raises(ConfigurationError):
        conv2d_direct(x, w[:4], (1, 1), (0, 0, 0, 0))


def old_requantize_int8(acc, multiplier, shift):
    """The converter formula the in-place kernel must reproduce."""
    scaled = acc.astype(np.int64) * int(multiplier)
    if shift > 0:
        half = np.int64(1) << (shift - 1)
        scaled = (scaled + np.sign(scaled) * half) >> shift
    return np.clip(scaled, -128, 127).astype(np.int8)


@pytest.mark.parametrize("multiplier", [1, 3, 255, (1 << 16) - 1])
@pytest.mark.parametrize("shift", [0, 1, 2, 7, 16, 31])
def test_requantize_pinned_to_formula(multiplier, shift):
    half = (1 << shift) >> 1
    unit = 1 << shift
    values = {0, 1, -1, half, -half, (1 << 40), -(1 << 40)}
    for q in (0, 1, 2, 5, 126, 127, 128, 129, 1000):
        for delta in (-half - 1, -half, -half + 1, -1, 0, 1, half - 1, half, half + 1):
            values.update({q * unit + delta, -(q * unit + delta)})
    acc = np.array(sorted(values), dtype=np.int64).reshape(1, 1, -1)
    expected = old_requantize_int8(acc, multiplier, shift)
    assert np.array_equal(requantize_int8(acc.copy(), multiplier, shift), expected)
    # Per-group converter values broadcast along a leading axis.
    grouped = np.stack([acc, acc])
    out = requantize_int8(
        grouped.copy(),
        np.array([multiplier, 1]).reshape(2, 1, 1, 1),
        np.array([shift, 0]).reshape(2, 1, 1, 1),
    )
    assert np.array_equal(out[0], expected)
    assert np.array_equal(out[1], old_requantize_int8(acc, 1, 0))


def test_requantize_saturates_both_ends():
    acc = np.array([[[-(1 << 40), -129, -128, 127, 128, 1 << 40]]], dtype=np.int64)
    assert list(requantize_int8(acc, 1, 0).flatten()) == [-128, -128, -128, 127, 127, 127]


def _converter_values(shifts) -> list[int]:
    """Ties, both sides of every rounding step and both saturation
    ends, for each shift in ``shifts``."""
    values = {0, 1, -1, 1 << 40, -(1 << 40)}
    for shift in shifts:
        half = (1 << shift) >> 1
        unit = 1 << shift
        values.update({half, -half})
        for q in (0, 1, 2, 5, 126, 127, 128, 129, 1000):
            for delta in (-half - 1, -half, -half + 1, -1, 0, 1, half - 1, half, half + 1):
                values.update({q * unit + delta, -(q * unit + delta)})
    return sorted(values)


@pytest.mark.parametrize("relu_only", [False, True], ids=["signed", "relu-only"])
def test_requantize_broadcasts_per_launch_values_over_requests(relu_only):
    """A (launch, request, K, H, W) accumulator with one multiplier and
    shift per launch, shaped (G, 1, 1, 1, 1): every request's cube is
    converted with its launch's values, as the pinned formula does.
    ReLU-only accumulators (no negative value) may take the
    ``nonnegative`` branch and must give the same bytes."""
    launches = [(1, 0), (3, 1), (255, 7), ((1 << 16) - 1, 16), (1, 31), (7, 31)]
    values = np.array(_converter_values(shift for _, shift in launches), dtype=np.int64)
    if relu_only:
        values = values[values >= 0]
    rng = np.random.default_rng(27)
    requests = 3
    acc = np.stack([
        np.stack([rng.permutation(values).reshape(1, 1, -1) for _ in range(requests)])
        for _ in launches
    ])
    assert acc.shape == (len(launches), requests, 1, 1, len(values))
    multiplier = np.array([m for m, _ in launches], dtype=np.int64).reshape(-1, 1, 1, 1, 1)
    shift = np.array([s for _, s in launches], dtype=np.int64).reshape(-1, 1, 1, 1, 1)
    expected = np.stack([
        np.stack([old_requantize_int8(cube, m, s) for cube in per_request])
        for (m, s), per_request in zip(launches, acc)
    ])
    assert np.array_equal(requantize_int8(acc.copy(), multiplier, shift), expected)
    if relu_only:
        out = requantize_int8(acc.copy(), multiplier, shift, nonnegative=True)
        assert np.array_equal(out, expected)
        assert expected.max() == 127 and expected.min() == 0  # the high end saturates


@pytest.mark.parametrize("budget", [None, 1], ids=["one-gemm", "gemm-per-image"])
def test_batched_conv_equals_one_call_per_image(rng, monkeypatch, budget):
    """A batch axis before C convolves each image with its group's
    weights; splitting the im2col matrix by images (the BATCH_BYTES
    bound) changes nothing."""
    from repro.nvdla import compute

    if budget is not None:
        monkeypatch.setattr(compute, "BATCH_BYTES", budget)
    x = rng.integers(-128, 128, size=(3, 4, 8, 7, 7), dtype=np.int8)
    w = rng.integers(-128, 128, size=(3, 8, 8, 3, 3), dtype=np.int8)
    out = conv2d_direct(x, w, (2, 1), (1, 0, 1, 2))
    assert out.shape[:2] == (3, 4)
    for g in range(3):
        for b in range(4):
            single = conv2d_direct(x[g, b], w[g], (2, 1), (1, 0, 1, 2))
            assert np.array_equal(out[g, b], single)
    # Without a group axis: BCHW input, KCRS weights.
    ungrouped = conv2d_direct(x[0], w[0], (2, 1), (1, 0, 1, 2))
    assert np.array_equal(ungrouped, out[0])
    with pytest.raises(ConfigurationError):
        conv2d_direct(x[0, 0, 0], w[0], (1, 1), (0, 0, 0, 0))


def test_batched_conv_exact_across_the_float32_chunk_boundary():
    """C*R*S = 4608 terms of -128 x -128 in a batch: the chunked int64
    path runs per image group exactly as in a single call."""
    x = np.full((2, 512, 4, 4), -128, dtype=np.int8)
    x[1] = 127
    w = np.full((2, 512, 3, 3), -128, dtype=np.int8)
    out = conv2d_direct(x, w, (1, 1), (0, 0, 0, 0))
    for b in range(2):
        assert np.array_equal(out[b], int64_conv(x[b], w))
