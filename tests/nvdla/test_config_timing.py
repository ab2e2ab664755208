"""Hardware configs, CBUF model and the analytic timing model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TilingError
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.cbuf import Cbuf
from repro.nvdla.config import HardwareConfig, Precision, get_config
from repro.nvdla.descriptors import ConvDescriptor, SdpDescriptor, SdpSource, TensorDesc
from repro.nvdla.mcif import Mcif
from repro.nvdla.timing import op_timing
from repro.nvdla.descriptors import PdpDescriptor, PoolMode

from repro.mem import SparseMemory
from tests.conftest import DirectDbbPort


# ----------------------------------------------------------------------
# Configurations.
# ----------------------------------------------------------------------


def test_published_config_parameters():
    assert NV_SMALL.mac_cells == 64
    assert NV_SMALL.cbuf_bytes == 32 * 1024
    assert NV_SMALL.precisions == (Precision.INT8,)
    assert NV_FULL.mac_cells == 2048
    assert NV_FULL.cbuf_bytes == 512 * 1024
    assert NV_FULL.supports(Precision.FP16)


def test_fp16_halves_kernel_atoms():
    assert NV_FULL.macs_per_cycle(Precision.INT8) == 2048
    assert NV_FULL.macs_per_cycle(Precision.FP16) == 1024
    ac, ak = NV_FULL.atoms(Precision.FP16)
    assert (ac, ak) == (64, 16)


def test_atom_channels_follow_memory_atom():
    assert NV_SMALL.atom_channels(Precision.INT8) == 8
    assert NV_FULL.atom_channels(Precision.INT8) == 32
    assert NV_FULL.atom_channels(Precision.FP16) == 16


def test_unsupported_precision_raises():
    with pytest.raises(ConfigurationError):
        NV_SMALL.macs_per_cycle(Precision.FP16)


def test_get_config_lookup():
    assert get_config("nv_small") is NV_SMALL
    with pytest.raises(ConfigurationError):
        get_config("nv_medium")


def test_custom_config_validation():
    with pytest.raises(ConfigurationError):
        HardwareConfig(name="bad", atomic_c=0, atomic_k=8, cbuf_banks=8, cbuf_bank_bytes=1024)
    with pytest.raises(ConfigurationError):
        HardwareConfig(name="bad", atomic_c=8, atomic_k=8, cbuf_banks=8, cbuf_bank_bytes=1024, precisions=())


def test_describe_mentions_key_parameters():
    text = NV_SMALL.describe()
    assert "64 INT8 MACs" in text and "32 KiB" in text


# ----------------------------------------------------------------------
# CBUF.
# ----------------------------------------------------------------------


def test_cbuf_default_split_covers_weights():
    cbuf = Cbuf(NV_SMALL)
    alloc = cbuf.default_split(weight_bytes=4 * 1024)
    assert alloc.weight_bytes >= 4 * 1024
    assert alloc.data_banks + alloc.weight_banks == NV_SMALL.cbuf_banks


def test_cbuf_weight_partition_capped_at_half():
    cbuf = Cbuf(NV_SMALL)
    alloc = cbuf.default_split(weight_bytes=10 * 1024 * 1024)
    assert alloc.weight_banks == NV_SMALL.cbuf_banks // 2


def test_cbuf_kernel_splits():
    cbuf = Cbuf(NV_SMALL)
    alloc = cbuf.default_split(weight_bytes=100 * 1024)
    splits = cbuf.kernel_splits(100 * 1024, alloc.weight_banks)
    assert splits == -(-100 * 1024 // alloc.weight_bytes)
    assert cbuf.kernel_splits(1024, alloc.weight_banks) == 1


def test_cbuf_over_allocation_rejected():
    cbuf = Cbuf(NV_SMALL)
    with pytest.raises(TilingError):
        cbuf.allocate(data_banks=30, weight_banks=10)
    with pytest.raises(TilingError):
        cbuf.allocate(data_banks=0, weight_banks=1)


# ----------------------------------------------------------------------
# Timing model.
# ----------------------------------------------------------------------


def _conv_desc(k=8, c=8, hw=8, ks=3, precision=Precision.INT8):
    input_desc = TensorDesc(address=0x1000, width=hw, height=hw, channels=c, precision=precision)
    out = hw - ks + 1
    return ConvDescriptor(
        input=input_desc,
        weight_address=0x8000,
        kernel_k=k,
        kernel_c=c,
        kernel_r=ks,
        kernel_s=ks,
        stride_x=1,
        stride_y=1,
        pad_left=0,
        pad_top=0,
        pad_right=0,
        pad_bottom=0,
        precision=precision,
        out_width=out,
        out_height=out,
    )


def _sdp_desc(k=8, hw=6, precision=Precision.INT8, source=SdpSource.FLYING):
    out = TensorDesc(address=0x20000, width=hw, height=hw, channels=k, precision=precision)
    input_desc = None
    if source is SdpSource.MEMORY:
        input_desc = TensorDesc(address=0x1000, width=hw, height=hw, channels=k, precision=precision)
    return SdpDescriptor(source=source, output=out, out_precision=precision, input=input_desc)


def _mcif():
    return Mcif(DirectDbbPort(SparseMemory(1 << 22)), dma_efficiency=1.0)


def test_conv_timing_has_all_components():
    timing = op_timing(
        {"conv": _conv_desc(), "sdp": _sdp_desc()}, NV_SMALL, Cbuf(NV_SMALL), _mcif()
    )
    assert timing.total > timing.fixed
    assert timing.weight_dma > 0
    assert timing.compute > 0
    assert timing.detail["kernel_splits"] == 1


def test_conv_timing_scales_with_kernel_count():
    small = op_timing(
        {"conv": _conv_desc(k=8), "sdp": _sdp_desc(k=8)}, NV_SMALL, Cbuf(NV_SMALL), _mcif()
    )
    large = op_timing(
        {"conv": _conv_desc(k=64), "sdp": _sdp_desc(k=64)}, NV_SMALL, Cbuf(NV_SMALL), _mcif()
    )
    assert large.total > small.total


def test_conv_timing_padding_inefficiency():
    """One input channel wastes 7/8 of the nv_small atoms: padded MACs
    must exceed true MACs by that factor."""
    desc = _conv_desc(c=1)
    timing = op_timing({"conv": desc, "sdp": _sdp_desc()}, NV_SMALL, Cbuf(NV_SMALL), _mcif())
    assert timing.detail["padded_macs"] == 8 * timing.detail["macs"]


def test_conv_timing_kernel_splits_multiply_input_traffic():
    mcif = _mcif()
    big = _conv_desc(k=512, c=64, hw=16, ks=3)  # 512*64*9 = 288 KiB > 16 KiB partition
    timing = op_timing(
        {"conv": big, "sdp": _sdp_desc(k=512, hw=14)}, NV_SMALL, Cbuf(NV_SMALL), mcif
    )
    assert timing.detail["kernel_splits"] > 1


def test_fp16_compute_slower_than_int8_on_same_geometry():
    int8 = op_timing(
        {
            "conv": _conv_desc(k=64, c=64, precision=Precision.INT8),
            "sdp": _sdp_desc(k=64, precision=Precision.INT8),
        },
        NV_FULL, Cbuf(NV_FULL), _mcif(),
    )
    fp16 = op_timing(
        {
            "conv": _conv_desc(k=64, c=64, precision=Precision.FP16),
            "sdp": _sdp_desc(k=64, precision=Precision.FP16),
        },
        NV_FULL, Cbuf(NV_FULL), _mcif(),
    )
    assert fp16.detail["mac_cycles"] >= int8.detail["mac_cycles"]


def test_sdp_standalone_timing():
    timing = op_timing(
        {"sdp": _sdp_desc(source=SdpSource.MEMORY)}, NV_SMALL, Cbuf(NV_SMALL), _mcif()
    )
    assert timing.input_dma > 0 and timing.output_dma > 0
    assert timing.total >= timing.input_dma + timing.output_dma


def test_pdp_timing_tracks_input_elements():
    def pool_desc(hw):
        return PdpDescriptor(
            input=TensorDesc(address=0, width=hw, height=hw, channels=8, precision=Precision.INT8),
            output=TensorDesc(address=0x4000, width=hw // 2, height=hw // 2, channels=8, precision=Precision.INT8),
            mode=PoolMode.MAX,
            kernel_w=2, kernel_h=2, stride_x=2, stride_y=2,
        )

    small = op_timing({"pdp": pool_desc(8)}, NV_SMALL, Cbuf(NV_SMALL), _mcif())
    large = op_timing({"pdp": pool_desc(32)}, NV_SMALL, Cbuf(NV_SMALL), _mcif())
    assert large.total > small.total


def test_mcif_efficiency_derates_streams():
    fast = Mcif(DirectDbbPort(SparseMemory(1 << 16)), dma_efficiency=1.0)
    slow = Mcif(DirectDbbPort(SparseMemory(1 << 16)), dma_efficiency=0.5)
    assert slow.stream_cycles(0, 4096) == 2 * fast.stream_cycles(0, 4096)
    with pytest.raises(ValueError):
        Mcif(DirectDbbPort(SparseMemory(16)), dma_efficiency=0.0)


def test_descriptor_validation_catches_geometry_errors():
    with pytest.raises(ConfigurationError):
        _conv_desc(ks=9)  # kernel larger than input
    with pytest.raises(ConfigurationError):
        TensorDesc(address=0, width=0, height=1, channels=1, precision=Precision.INT8)
    with pytest.raises(ConfigurationError):
        SdpDescriptor(
            source=SdpSource.MEMORY,
            output=TensorDesc(address=0, width=1, height=1, channels=1, precision=Precision.INT8),
            out_precision=Precision.INT8,
        )
