"""Descriptor validation paths not covered elsewhere."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.nvdla.config import Precision
from repro.nvdla.descriptors import (
    BdmaDescriptor,
    CdpDescriptor,
    ConvDescriptor,
    EltwiseOp,
    PdpDescriptor,
    PoolMode,
    RubikDescriptor,
    SdpDescriptor,
    SdpSource,
    TensorDesc,
    bits_to_f32,
    f32_to_bits,
)


def _tensor(c=8, h=4, w=4, address=0x1000):
    return TensorDesc(address=address, width=w, height=h, channels=c, precision=Precision.INT8)


def test_f32_bits_roundtrip():
    for value in (0.0, 1.0, -2.5, 1e-4, 0.75, 3.14159):
        assert bits_to_f32(f32_to_bits(value)) == pytest.approx(value, rel=1e-6)


def test_tensor_desc_properties():
    t = _tensor(c=20, h=3, w=5)
    assert t.shape == (20, 3, 5)
    assert t.elements == 300
    assert t.packed_bytes(8) == 3 * 3 * 5 * 8  # 3 surfaces


def test_conv_descriptor_channel_mismatch():
    with pytest.raises(ConfigurationError):
        ConvDescriptor(
            input=_tensor(c=8),
            weight_address=0,
            kernel_k=4,
            kernel_c=16,  # != input channels
            kernel_r=1,
            kernel_s=1,
            stride_x=1,
            stride_y=1,
            pad_left=0,
            pad_top=0,
            pad_right=0,
            pad_bottom=0,
            precision=Precision.INT8,
            out_width=4,
            out_height=4,
        )


def test_conv_descriptor_macs_and_padding():
    desc = ConvDescriptor(
        input=_tensor(c=3, h=6, w=6),
        weight_address=0,
        kernel_k=5,
        kernel_c=3,
        kernel_r=3,
        kernel_s=3,
        stride_x=1,
        stride_y=1,
        pad_left=0,
        pad_top=0,
        pad_right=0,
        pad_bottom=0,
        precision=Precision.INT8,
        out_width=4,
        out_height=4,
    )
    assert desc.macs == 5 * 3 * 9 * 16
    assert desc.padded_macs(8, 8) == 8 * 8 * 9 * 16


def test_pdp_descriptor_channel_change_rejected():
    with pytest.raises(ConfigurationError):
        PdpDescriptor(
            input=_tensor(c=8),
            output=_tensor(c=16, h=2, w=2, address=0x2000),
            mode=PoolMode.MAX,
            kernel_w=2,
            kernel_h=2,
            stride_x=2,
            stride_y=2,
        )


def test_cdp_descriptor_validation():
    with pytest.raises(ConfigurationError):
        CdpDescriptor(
            input=_tensor(),
            output=_tensor(address=0x2000),
            local_size=4,  # must be odd
            alpha=1e-4,
            beta=0.75,
            k=1.0,
        )
    with pytest.raises(ConfigurationError):
        CdpDescriptor(
            input=_tensor(),
            output=_tensor(h=2, address=0x2000),  # shape change
            local_size=5,
            alpha=1e-4,
            beta=0.75,
            k=1.0,
        )


def test_bdma_descriptor_geometry():
    desc = BdmaDescriptor(src_address=0, dst_address=0x100, line_bytes=64, lines=4)
    assert desc.total_bytes == 256
    with pytest.raises(ConfigurationError):
        BdmaDescriptor(src_address=0, dst_address=0, line_bytes=0, lines=1)


def test_rubik_descriptor_element_preservation():
    with pytest.raises(ConfigurationError):
        RubikDescriptor(
            input=_tensor(c=8, h=4, w=4),
            output=_tensor(c=8, h=4, w=2, address=0x2000),  # fewer elements
        )
    with pytest.raises(ConfigurationError):
        RubikDescriptor(input=_tensor(), output=_tensor(address=0x2000), mode="rotate")


def test_sdp_descriptor_converter_ranges():
    with pytest.raises(ConfigurationError):
        SdpDescriptor(
            source=SdpSource.FLYING,
            output=_tensor(),
            out_precision=Precision.INT8,
            cvt_multiplier=1 << 16,
        )
    with pytest.raises(ConfigurationError):
        SdpDescriptor(
            source=SdpSource.FLYING,
            output=_tensor(),
            out_precision=Precision.INT8,
            ew_cvt_shift=40,
        )


def test_sdp_descriptor_requires_its_surfaces():
    """`units/sdp.execute` relies on these: a memory-sourced SDP has an
    input surface and an eltwise stage has an operand surface."""
    with pytest.raises(ConfigurationError, match="needs an input tensor"):
        SdpDescriptor(source=SdpSource.MEMORY, output=_tensor(), out_precision=Precision.INT8)
    with pytest.raises(ConfigurationError, match="second operand"):
        SdpDescriptor(
            source=SdpSource.FLYING,
            output=_tensor(),
            out_precision=Precision.INT8,
            eltwise=EltwiseOp.ADD,
        )
