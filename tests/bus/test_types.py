"""Transfer/Reply invariants and the single-beat port helpers."""

from __future__ import annotations

import pytest

from repro.bus.types import AccessType, Reply, Transfer
from repro.errors import AlignmentError, BusError
from tests.bus.loopback import LoopbackPort


def test_read_transfer_defaults():
    xfer = Transfer(address=0x100)
    assert xfer.size == 4
    assert xfer.access is AccessType.READ
    assert xfer.total_bytes == 4
    assert xfer.end_address == 0x104


def test_write_requires_matching_payload():
    Transfer(address=0, access=AccessType.WRITE, data=b"\x00" * 4)
    with pytest.raises(BusError):
        Transfer(address=0, access=AccessType.WRITE, data=b"\x00" * 3)
    with pytest.raises(BusError):
        Transfer(address=0, access=AccessType.WRITE, data=None)


def test_read_must_not_carry_data():
    with pytest.raises(BusError):
        Transfer(address=0, access=AccessType.READ, data=b"\x00\x00\x00\x00")


def test_alignment_enforced():
    with pytest.raises(AlignmentError):
        Transfer(address=2, size=4)
    Transfer(address=2, size=2)  # fine


def test_invalid_beat_size_rejected():
    with pytest.raises(BusError):
        Transfer(address=0, size=3)


def test_burst_geometry():
    xfer = Transfer(address=0x10, size=4, burst_len=8, access=AccessType.WRITE, data=b"\xAA" * 32)
    assert xfer.total_bytes == 32
    assert xfer.end_address == 0x30
    with pytest.raises(BusError):
        Transfer(address=0, burst_len=0)


def test_reply_value_little_endian():
    assert Reply(data=b"\x78\x56\x34\x12").value() == 0x12345678


def test_port_read_write_convenience():
    port = LoopbackPort(256)
    port.write(0x10, 0xDEADBEEF)
    assert port.read(0x10).value() == 0xDEADBEEF
    port.write(0x20, 0xAB, size=1)
    assert port.read(0x20, size=1).value() == 0xAB

