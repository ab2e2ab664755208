"""Property tests for the analytic timing model.

Every tier reports these prices as SoC latency, so the model
must behave like physics, not like a lookup table: more work can never
cost fewer cycles (monotonicity in spatial and channel dims), a layer
with almost no work costs only the fixed programming/launch overhead,
and repeated evaluation of the same descriptor is exactly
deterministic.
"""

from __future__ import annotations

import pytest

from repro.mem import SparseMemory
from repro.nvdla import NV_SMALL
from repro.nvdla.cbuf import Cbuf
from repro.nvdla.config import Precision
from repro.nvdla.descriptors import (
    ConvDescriptor,
    PdpDescriptor,
    PoolMode,
    SdpDescriptor,
    SdpSource,
    TensorDesc,
)
from repro.nvdla.mcif import Mcif
from repro.nvdla.timing import TimingParams, op_timing

from tests.conftest import DirectDbbPort

PARAMS = TimingParams()


def _mcif() -> Mcif:
    return Mcif(DirectDbbPort(SparseMemory(1 << 24)))


def _tensor(c: int, h: int, w: int, address: int = 0x10000) -> TensorDesc:
    return TensorDesc(address=address, width=w, height=h, channels=c, precision=Precision.INT8)


def _conv_timing(c: int, h: int, w: int, k: int, kernel: int = 3):
    out_h, out_w = h - kernel + 1, w - kernel + 1
    conv = ConvDescriptor(
        input=_tensor(c, h, w),
        weight_address=0x40000,
        kernel_k=k,
        kernel_c=c,
        kernel_r=kernel,
        kernel_s=kernel,
        stride_x=1,
        stride_y=1,
        pad_left=0,
        pad_top=0,
        pad_right=0,
        pad_bottom=0,
        precision=Precision.INT8,
        out_width=out_w,
        out_height=out_h,
    )
    sdp = SdpDescriptor(
        source=SdpSource.FLYING,
        output=_tensor(k, out_h, out_w, address=0x80000),
        out_precision=Precision.INT8,
    )
    return op_timing({"conv": conv, "sdp": sdp}, NV_SMALL, Cbuf(NV_SMALL), _mcif())


# ----------------------------------------------------------------------
# Monotonicity.
# ----------------------------------------------------------------------


def test_conv_timing_monotonic_in_spatial_dims():
    totals = [_conv_timing(8, size, size, 8).total for size in (8, 12, 16, 24, 32, 48)]
    assert totals == sorted(totals)
    assert totals[-1] > totals[0]  # strictly more work eventually costs more


def test_conv_timing_monotonic_in_channels():
    totals = [_conv_timing(c, 16, 16, 8).total for c in (8, 16, 32, 64, 128)]
    assert totals == sorted(totals)
    assert totals[-1] > totals[0]


def test_conv_timing_monotonic_in_output_channels():
    totals = [_conv_timing(8, 16, 16, k).total for k in (8, 16, 32, 64, 128)]
    assert totals == sorted(totals)
    assert totals[-1] > totals[0]


def test_pdp_timing_monotonic_in_spatial_dims():
    totals = []
    for size in (8, 16, 32, 64):
        desc = PdpDescriptor(
            input=_tensor(8, size, size),
            output=_tensor(8, size // 2, size // 2, address=0x80000),
            mode=PoolMode.MAX,
            kernel_w=2,
            kernel_h=2,
            stride_x=2,
            stride_y=2,
        )
        totals.append(op_timing({"pdp": desc}, NV_SMALL, Cbuf(NV_SMALL), _mcif()).total)
    assert totals == sorted(totals)
    assert totals[-1] > totals[0]


def test_sdp_timing_monotonic_in_channels():
    totals = []
    for c in (8, 16, 64, 256):
        desc = SdpDescriptor(
            source=SdpSource.MEMORY,
            input=_tensor(c, 8, 8),
            output=_tensor(c, 8, 8, address=0x80000),
            out_precision=Precision.INT8,
            relu=True,
        )
        totals.append(op_timing({"sdp": desc}, NV_SMALL, Cbuf(NV_SMALL), _mcif()).total)
    assert totals == sorted(totals)
    assert totals[-1] > totals[0]


# ----------------------------------------------------------------------
# Zero-work floor.
# ----------------------------------------------------------------------


def test_minimal_layer_costs_only_fixed_overhead():
    """A 1×1×1 layer's busy time is noise next to launch + drain."""
    desc = SdpDescriptor(
        source=SdpSource.MEMORY,
        input=_tensor(1, 1, 1),
        output=_tensor(1, 1, 1, address=0x80000),
        out_precision=Precision.INT8,
    )
    timing = op_timing({"sdp": desc}, NV_SMALL, Cbuf(NV_SMALL), _mcif())
    assert timing.fixed == PARAMS.op_fixed_cycles + PARAMS.op_drain_cycles
    # The non-fixed part is a handful of DMA beats, not real work.
    assert timing.total - timing.fixed <= 16
    assert timing.total >= timing.fixed


def test_minimal_conv_costs_only_fixed_overhead():
    timing = _conv_timing(8, 1, 1, 8, kernel=1)
    assert timing.total - timing.fixed <= 64
    assert timing.detail["kernel_splits"] == 1


# ----------------------------------------------------------------------
# Determinism.
# ----------------------------------------------------------------------


def test_timing_estimates_are_deterministic():
    reference = _conv_timing(16, 24, 24, 32)
    for _ in range(3):
        again = _conv_timing(16, 24, 24, 32)
        assert again.total == reference.total
        assert again.as_dict() == reference.as_dict()


def test_whole_bundle_estimate_deterministic_across_executors(tiny_net):
    """Two independent executors price one bundle identically."""
    from repro.baremetal import generate_baremetal
    from repro.core import FastPathExecutor
    from repro.nvdla import NV_SMALL as CFG

    bundle = generate_baremetal(tiny_net, CFG)
    first = FastPathExecutor(CFG).estimate(bundle)
    second = FastPathExecutor(CFG).estimate(bundle)
    assert first.total_cycles == second.total_cycles
    assert [r.timing.total for r in first.op_records] == [
        r.timing.total for r in second.op_records
    ]
