"""Numeric equivalence of fused vs materialised residual adds.

The INT8 ERDMA operand converter must keep the fused schedule's output
close to both the unfused schedule and the float reference — the
property that justified enabling the fusion for INT8.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import CompileOptions, compile_network
from repro.nn import ReferenceExecutor
from repro.nn.zoo import resnet18_cifar
from repro.nvdla import NV_SMALL
from repro.vp import NvdlaRuntime, VirtualPlatform


def _run_vp(net, loadable, image):
    platform = VirtualPlatform(NV_SMALL, trace=False)
    runtime = NvdlaRuntime(platform)
    runtime.deploy(loadable)
    runtime.set_input(image)
    return runtime.execute()


@pytest.fixture(scope="module")
def fused_vs_unfused(residual_net_module=None):
    from tests.conftest import DirectDbbPort  # noqa: F401  (fixture style parity)

    from repro.nn.graph import Network

    net = Network("residual_eq", seed=21)
    data = net.add_input("data", (8, 8, 8))
    conv1 = net.add_conv("conv1", data, num_output=8, kernel_size=3, pad=1)
    relu1 = net.add_relu("relu1", conv1)
    conv2 = net.add_conv("conv2", relu1, num_output=8, kernel_size=3, pad=1)
    added = net.add_eltwise("add", conv2, data)
    relu2 = net.add_relu("relu2", added)
    net.add_fc("fc", relu2, num_output=4)
    net.validate()

    rng = np.random.default_rng(17)
    image = rng.uniform(-1, 1, net.input_shape).astype(np.float32)
    fused = compile_network(net, NV_SMALL, CompileOptions())
    unfused = compile_network(net, NV_SMALL, CompileOptions(fusion="off"))
    return net, image, _run_vp(net, fused, image), _run_vp(net, unfused, image), fused, unfused


def test_fusion_reduces_op_count(fused_vs_unfused):
    _, _, _, _, fused, unfused = fused_vs_unfused
    # The add rides conv2's SDP pass; unfused, both ReLUs and the add
    # are standalone SDP ops.
    assert fused.hw_op_count() == unfused.hw_op_count() - 3


def test_fused_matches_unfused_numerically(fused_vs_unfused):
    _, _, fused_result, unfused_result, _, _ = fused_vs_unfused
    scale = np.abs(unfused_result.output).max() + 1e-9
    delta = np.abs(fused_result.output - unfused_result.output).max()
    # Only the ERDMA rounding differs between the two schedules.
    assert delta <= 0.06 * scale


def test_fused_matches_float_reference(fused_vs_unfused):
    net, image, fused_result, _, _, _ = fused_vs_unfused
    executor = ReferenceExecutor(net)
    executor.run(image, record_blobs=True)
    expected = executor.blobs["fc"]
    correlation = np.corrcoef(fused_result.output.flatten(), expected.flatten())[0, 1]
    assert correlation > 0.95


def test_fusion_saves_memory_traffic_on_resnet18():
    net = resnet18_cifar()
    fused = compile_network(net, NV_SMALL, CompileOptions())
    unfused = compile_network(net, NV_SMALL, CompileOptions(fusion="off"))
    # fusion="off" materialises the 8 residual adds and the 17 ReLUs as
    # standalone SDP ops, and keeps the global-avg pool standalone.
    assert fused.hw_op_count() == unfused.hw_op_count() - 26
