"""AHB-Lite, APB and AXI width-converter timing models and the bridges."""

from __future__ import annotations

import pytest

from repro.bus import (
    AhbLiteBus,
    AhbToApbBridge,
    AhbToAxiBridge,
    ApbBus,
    ApbToCsbAdapter,
    AxiWidthConverter,
)
from repro.bus.types import AccessType, Transfer
from tests.bus.loopback import LoopbackPort


def test_ahb_single_transfer_cost():
    bus = AhbLiteBus(LoopbackPort())
    reply = bus.read(0x10)
    # address phase (1) + one data cycle from the zero-wait slave
    assert reply.cycles == 2


def test_ahb_counts_traffic_per_master():
    bus = AhbLiteBus(LoopbackPort())
    bus.read(0, master="cpu")
    bus.read(4, master="cpu")
    bus.read(8, master="dma")
    assert bus.stats.by_master == {"cpu": 2, "dma": 1}
    assert bus.stats.bytes == 12


def test_apb_setup_access_phases():
    bus = ApbBus(LoopbackPort())
    reply = bus.write(0x10, 0x1234)
    assert reply.cycles == 2  # SETUP + ACCESS, zero wait states
    assert bus.stats.transfers == 1


def test_apb_no_burst_support_sequences_beats():
    bus = ApbBus(LoopbackPort())
    xfer = Transfer(address=0, size=4, burst_len=4, access=AccessType.WRITE, data=b"\x01" * 16)
    reply = bus.transfer(xfer)
    assert reply.cycles == 4 * 2
    assert bus.stats.transfers == 4


def test_apb_wait_states_from_slow_completer():
    class Slow(LoopbackPort):
        def transfer(self, xfer):
            reply = super().transfer(xfer)
            reply.cycles = 3  # 2 wait states
            return reply

    bus = ApbBus(Slow())
    assert bus.read(0).cycles == 2 + 2


@pytest.mark.parametrize("bridge_cls", [AhbToApbBridge, AhbToAxiBridge, ApbToCsbAdapter])
def test_bridges_add_crossing_latency(bridge_cls):
    plain = LoopbackPort()
    bridged = bridge_cls(LoopbackPort())
    assert bridged.read(0).cycles == plain.read(0).cycles + bridge_cls.CROSSING_CYCLES
    assert bridged.transfers == 1


def test_bridge_preserves_data():
    bridge = AhbToApbBridge(LoopbackPort())
    bridge.write(0x40, 0xCAFED00D)
    assert bridge.read(0x40).value() == 0xCAFED00D


def test_register_path_stack_cost():
    """The full CPU→CSB path: AHB → AHB/APB bridge → APB → CSB adapter."""
    csb = LoopbackPort()
    path = AhbLiteBus(AhbToApbBridge(ApbBus(ApbToCsbAdapter(csb))))
    reply = path.write(0x10, 1)
    # 1 AHB addr + (APB 2 + adapter-crossed completer... ) — just pin it:
    assert 5 <= reply.cycles <= 10


def test_width_converter_down_conversion_paces_narrow_side():
    converter = AxiWidthConverter(LoopbackPort(1 << 13), 64, 32)
    xfer = Transfer(address=0, size=4, burst_len=16, access=AccessType.READ)  # 64B
    reply = converter.transfer(xfer)
    assert reply.cycles >= 16  # 16 narrow beats
    assert converter.stats.slave_beats == 16
    assert converter.stats.master_beats == 8
    assert converter.ratio == 2.0


def test_width_converter_stream_cycles():
    converter = AxiWidthConverter(LoopbackPort(), 64, 32)
    # narrow side dominates: 1 KiB / 4 B = 256 beats (+ packing)
    assert converter.stream_cycles(1024) == 257
    wide = AxiWidthConverter(LoopbackPort(), 64, 512)
    # up-conversion: master side dominates: 1 KiB / 8 B = 128
    assert wide.stream_cycles(1024) == 129


def test_width_converter_rejects_bad_widths():
    with pytest.raises(ValueError):
        AxiWidthConverter(LoopbackPort(), 0, 32)
