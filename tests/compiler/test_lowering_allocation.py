"""Lowering, allocation, weight packing and the loadable container."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler import CompileOptions, compile_network
from repro.compiler.allocator import allocate_memory
from repro.compiler.loadable import Loadable
from repro.compiler.ops import ConvOp, CpuSoftmaxOp, LrnOp, PoolOp, SdpOp
from repro.errors import CompilerError
from repro.nn.graph import Network
from repro.nn.zoo import ZOO, mobilenet_v1
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision


def _op_kinds(loadable):
    return [op.kind for op in loadable.schedule.ops]


def _eltwise_op(ops):
    return next(op for op in ops if isinstance(op, SdpOp) and op.eltwise is not None)


def test_tiny_net_lowering(tiny_net):
    loadable = compile_network(tiny_net, NV_SMALL)
    kinds = _op_kinds(loadable)
    # conv(+relu absorbed, +pool pulled in as a fused PDP epilogue),
    # fc-as-conv, cpu softmax
    assert kinds == ["conv", "conv", "cpusoftmax"]
    conv = loadable.schedule.ops[0]
    assert conv.relu  # absorbed
    assert conv.has_pool_epilogue  # descriptor fusion collapsed the pool
    fc = loadable.schedule.ops[1]
    assert fc.kernel_shape == (4, 8, 3, 3)  # kernel spans the pooled cube
    # Graph-level fusion keeps the standalone pool chain.
    graph = compile_network(tiny_net, NV_SMALL, CompileOptions(fusion="graph"))
    assert _op_kinds(graph) == ["conv", "pool", "conv", "cpusoftmax"]


def test_residual_net_int8_fuses_eltwise_with_operand_converter(residual_net):
    loadable = compile_network(residual_net, NV_SMALL)
    kinds = _op_kinds(loadable)
    assert "sdp" not in kinds  # the residual add rides conv2's SDP pass
    conv2 = next(op for op in loadable.schedule.ops if op.name == "conv2")
    assert conv2.eltwise is not None and conv2.relu
    # The ERDMA converter must rescale the int8 operand into the
    # accumulator domain: factor = s_operand / (s_in * s_w).
    expected = conv2.eltwise_input.scale / (conv2.input.scale * conv2.weight_scale)
    got = conv2.ew_cvt_mult / (1 << conv2.ew_cvt_shift)
    assert got == pytest.approx(expected, rel=0.02)


def test_residual_net_fusion_can_be_disabled(residual_net):
    loadable = compile_network(residual_net, NV_SMALL, CompileOptions(fusion="off"))
    ops = loadable.schedule.ops
    sdp = _eltwise_op(ops)  # materialised eltwise op
    # fusion="off" keeps the trailing ReLU as an SDP op of its own.
    assert not sdp.relu
    relu = ops[ops.index(sdp) + 1]
    assert isinstance(relu, SdpOp) and relu.relu and relu.eltwise is None


def test_residual_net_fp16_fuses_eltwise(residual_net):
    loadable = compile_network(
        residual_net, NV_FULL, CompileOptions(precision=Precision.FP16)
    )
    kinds = _op_kinds(loadable)
    assert "sdp" not in kinds  # the residual add rides conv2's SDP pass
    conv2 = next(op for op in loadable.schedule.ops if op.name == "conv2")
    assert conv2.eltwise is not None
    assert conv2.relu
    assert (conv2.ew_cvt_mult, conv2.ew_cvt_shift) == (1, 0)  # fp16: identity


def test_eltwise_operands_share_scale(residual_net):
    loadable = compile_network(residual_net, NV_SMALL, CompileOptions(fusion="off"))
    sdp = _eltwise_op(loadable.schedule.ops)
    assert sdp.input.scale == sdp.eltwise_input.scale == sdp.output.scale


def test_concat_is_zero_copy(branchy_net):
    loadable = compile_network(branchy_net, NV_SMALL)
    ops = {op.name: op for op in loadable.schedule.ops}
    left, right = ops["left"], ops["right"]
    assert left.output.blob == right.output.blob == "cat"
    assert right.output.address == left.output.address + 8 * 6 * 6  # one surface block
    tail = ops["tail"]
    assert tail.input.blob == "cat"
    # concat group shares one scale
    assert left.output.scale == right.output.scale == tail.input.scale


@pytest.mark.slow
def test_depthwise_lowered_to_channel_blocks():
    net = mobilenet_v1()
    loadable = compile_network(net, NV_SMALL)
    dw2 = [op for op in loadable.schedule.ops if op.name.startswith("conv3_dw_b")]
    # conv3_dw has 64 channels -> 8 blocks of atomic_c=8 on nv_small
    assert len(dw2) == 8
    block = dw2[0]
    assert block.kernel_shape == (8, 8, 3, 3)
    # block-diagonal: off-diagonal weights must be zero
    w = block.q_weight
    for i in range(8):
        for j in range(8):
            if i != j:
                assert not w[i, j].any()


@pytest.mark.slow
def test_grouped_conv_split_per_group():
    net = ZOO["alexnet"]()
    loadable = compile_network(
        net, NV_FULL, CompileOptions(precision=Precision.FP16)
    )
    conv2_parts = [op for op in loadable.schedule.ops if op.name.startswith("conv2_g")]
    assert len(conv2_parts) == 2
    a, b = conv2_parts
    assert a.input.channel_offset == 0
    assert b.input.channel_offset == 48
    assert a.output.channel_offset == 0
    assert b.output.channel_offset == 128


def test_lrn_alpha_scaled_for_int8():
    net = Network("lrn", seed=9)
    net.add_input("data", (8, 4, 4))
    net.add_lrn("norm", "data", local_size=5, alpha=1e-4)
    net.add_fc("fc", "norm", num_output=2)
    loadable = compile_network(net, NV_SMALL)
    lrn_op = next(op for op in loadable.schedule.ops if isinstance(op, LrnOp))
    scale = lrn_op.input.scale
    assert lrn_op.alpha == pytest.approx(1e-4 * scale * scale)


def test_quantisation_constants_present(tiny_net):
    loadable = compile_network(tiny_net, NV_SMALL)
    for op in loadable.schedule.ops:
        if isinstance(op, ConvOp):
            assert op.q_weight is not None
            assert 1 <= op.cvt_mult < (1 << 16)
            assert 0 <= op.cvt_shift <= 31


def test_fp16_needs_capable_config(tiny_net):
    with pytest.raises(CompilerError):
        compile_network(tiny_net, NV_SMALL, CompileOptions(precision=Precision.FP16))


def test_allocator_regions_ordered_and_disjoint(tiny_net):
    loadable = compile_network(tiny_net, NV_SMALL)
    mm = loadable.memory_map
    assert mm.weights.address >= mm.base + 0x1000  # status page reserved
    assert mm.input.address >= mm.weights.end
    assert mm.activations.address >= mm.input.end


def test_allocator_rejects_schedule_without_input_or_output(tiny_net):
    schedule = compile_network(tiny_net, NV_SMALL).schedule
    for missing in ("input_tensor", "output_tensor"):
        broken = dataclasses.replace(schedule, **{missing: None})
        with pytest.raises(CompilerError, match="no network input or output"):
            allocate_memory(broken, NV_SMALL, 0)


def test_allocator_reuses_buffers():
    """A long chain must not allocate one buffer per layer."""
    net = Network("chain", seed=2)
    blob = net.add_input("data", (8, 16, 16))
    for index in range(12):
        blob = net.add_conv(f"conv{index}", blob, num_output=8, kernel_size=3, pad=1)
    net.validate()
    loadable = compile_network(net, NV_SMALL)
    one_tensor = 8 * 16 * 16
    arena = loadable.memory_map.activations.size
    assert arena < one_tensor * 6  # ping-pong-ish reuse, not 12 buffers


def test_allocator_respects_liveness_of_shortcut(residual_net):
    """The eltwise shortcut (input tensor) must not be overwritten by
    intermediate buffers before the add executes."""
    loadable = compile_network(residual_net, NV_SMALL, CompileOptions(fusion="off"))
    ops = loadable.schedule.ops
    sdp = _eltwise_op(ops)
    shortcut_addr = sdp.eltwise_input.address
    for op in ops[: ops.index(sdp)]:
        for out in op.outputs():
            assert out.address != shortcut_addr or out.blob == sdp.eltwise_input.blob


def test_weight_packer_aligns_offsets(tiny_net):
    loadable = compile_network(tiny_net, NV_SMALL)
    for op in loadable.schedule.ops:
        if isinstance(op, ConvOp):
            assert op.weight_offset % 64 == 0
            assert op.weight_offset + op.weight_bytes <= len(loadable.weight_blob)
            if op.bias_offset is not None:
                assert op.bias_offset % 64 == 0


def test_loadable_roundtrip_preserves_ops(residual_net):
    loadable = compile_network(residual_net, NV_SMALL)
    back = Loadable.from_bytes(loadable.to_bytes())
    assert back.network == loadable.network
    assert back.weight_blob == loadable.weight_blob
    assert len(back.schedule.ops) == len(loadable.schedule.ops)
    for original, restored in zip(loadable.schedule.ops, back.schedule.ops):
        assert original.kind == restored.kind
        assert original.name == restored.name
        if isinstance(original, ConvOp):
            assert restored.kernel_shape == original.kernel_shape
            assert restored.weight_offset == original.weight_offset
            assert restored.input.address == original.input.address
    assert back.output_tensor.address == loadable.output_tensor.address


def test_loadable_rejects_garbage():
    from repro.errors import LoadableError

    with pytest.raises(LoadableError):
        Loadable.from_bytes(b"NOPE" + b"\x00" * 32)


def test_standalone_batchnorm_rejected():
    net = Network("bad")
    net.add_input("data", (2, 2, 2))
    bn = net.add_batchnorm("bn", "data")  # nothing to fold into
    net.add_fc("fc", bn, num_output=2)
    with pytest.raises(CompilerError):
        compile_network(net, NV_SMALL)
