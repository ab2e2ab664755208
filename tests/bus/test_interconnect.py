"""Address decoder, SmartConnect mux, clock-crossing interconnect."""

from __future__ import annotations

import pytest

from repro.bus.interconnect import AddressDecoder, AxiInterconnect, AxiSmartConnect, Region
from repro.bus.types import AccessType, Transfer
from repro.errors import AddressDecodeError, BusError
from tests.bus.loopback import LoopbackPort


def _decoder():
    a, b = LoopbackPort(0x1000), LoopbackPort(0x1000)
    decoder = AddressDecoder(
        [Region("nvdla", 0x0, 0xFFF, a), Region("dram", 0x100000, 0x100FFF, b)]
    )
    return decoder, a, b


def test_decoder_routes_by_window():
    decoder, a, b = _decoder()
    decoder.write(0x10, 1)
    decoder.write(0x100010, 2)
    assert a.read(0x10).value() == 1
    assert b.read(0x10).value() == 2  # rebased into the slave's space
    assert decoder.routed == {"nvdla": 1, "dram": 1}


def test_unmapped_address_raises():
    decoder, _, _ = _decoder()
    with pytest.raises(AddressDecodeError):
        decoder.read(0x500000)


def test_burst_crossing_region_boundary_rejected():
    decoder, _, _ = _decoder()
    xfer = Transfer(address=0xFF8, size=4, burst_len=4, access=AccessType.READ)
    with pytest.raises(AddressDecodeError):
        decoder.transfer(xfer)


def test_overlapping_regions_rejected_at_construction():
    with pytest.raises(BusError):
        AddressDecoder(
            [
                Region("a", 0x0, 0xFFF, LoopbackPort()),
                Region("b", 0x800, 0x1FFF, LoopbackPort()),
            ]
        )


def test_region_limit_below_base_rejected():
    with pytest.raises(BusError):
        Region("bad", 0x100, 0x0, LoopbackPort())


def test_smartconnect_exclusive_ownership():
    memory = LoopbackPort(0x1000)
    mux = AxiSmartConnect(memory)
    assert mux.selected == "zynq"
    mux.transfer(
        Transfer(address=0, size=4, access=AccessType.WRITE, data=b"\x01\x00\x00\x00", master="zynq")
    )
    with pytest.raises(BusError):
        mux.read(0, master="soc")
    mux.select("soc")
    assert mux.read(0, master="soc").value() == 1
    assert mux.switches == 1


def test_smartconnect_unknown_owner():
    mux = AxiSmartConnect(LoopbackPort())
    with pytest.raises(BusError):
        mux.select("dsp")


def test_smartconnect_reselect_same_owner_not_counted():
    mux = AxiSmartConnect(LoopbackPort())
    mux.select("zynq")
    assert mux.switches == 0


def test_interconnect_scales_slow_side_cycles():
    class Slow(LoopbackPort):
        def transfer(self, xfer):
            reply = super().transfer(xfer)
            reply.cycles = 10  # slow-domain cycles
            return reply

    cdc = AxiInterconnect(Slow())
    reply = cdc.read(0, master="zynq")
    assert reply.cycles == 10 * 3 + 2
    assert AxiInterconnect.RATIO == 3.0

