"""Sparse memory, DRAM timing, BRAM and .mem loading."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryError_
from repro.mem import Bram, Dram, DramTiming, SparseMemory
from repro.mem.dram import BANKS, CONTROLLER_LATENCY, ROW_BYTES
from repro.bus.types import AccessType, Transfer


# ----------------------------------------------------------------------
# SparseMemory.
# ----------------------------------------------------------------------


def test_sparse_read_unwritten_returns_fill():
    memory = SparseMemory(1024, fill=0xAB)
    assert memory.read(100, 4) == b"\xab" * 4


def test_sparse_rw_roundtrip_across_pages():
    memory = SparseMemory(1 << 20)
    blob = bytes(range(256)) * 512  # 128 KiB spanning pages
    memory.write(0xFF00, blob)  # crosses the 64 KiB page boundary
    assert memory.read(0xFF00, len(blob)) == blob


def test_sparse_bounds_checked():
    memory = SparseMemory(128)
    with pytest.raises(MemoryError_):
        memory.read(120, 16)
    with pytest.raises(MemoryError_):
        memory.write(-1, b"\x00")


def test_sparse_scalar_accessors():
    memory = SparseMemory(64)
    memory.write(0, b"\xef\xbe\xad\xde\x01")
    assert memory.read_u32(0) == 0xDEADBEEF  # little-endian
    assert memory.read_u32(4) == 0x01


def test_sparse_resident_is_lazy():
    memory = SparseMemory(1 << 30)
    assert memory.resident_bytes == 0
    memory.write(0x10000000, b"\x01")
    assert memory.resident_bytes == 1 << 16  # one page


def test_clear_resets_content():
    memory = SparseMemory(256)
    memory.write(0, (7).to_bytes(4, "little"))
    memory.clear()
    assert memory.read_u32(0) == 0


def test_overlay_copies_on_write_and_never_writes_through():
    """An overlay reads its base until it writes a page; the first write
    copies the whole base page, and the base never changes."""
    page = 1 << 16
    base = SparseMemory(4 * page)
    base.write(page - 4, b"ABCDEFGH")  # straddles pages 0 and 1
    base.write(3 * page, b"tail")
    first, second = SparseMemory(base.size, base=base), SparseMemory(base.size, base=base)
    assert first.read(page - 4, 8) == b"ABCDEFGH"
    first.write(page + 2, b"xy")  # copies page 1 only
    assert first.read(page - 4, 8) == b"ABCDEFxy"
    assert first.read(3 * page, 4) == b"tail"  # still the base's page
    assert first.resident_bytes == page
    assert base.read(page - 4, 8) == second.read(page - 4, 8) == b"ABCDEFGH"
    second.write(2 * page, b"new page")  # not in the base: fill, then data
    assert second.read(2 * page, 10) == b"new page\x00\x00"
    assert base.read(2 * page, 8) == bytes(8) and base.resident_bytes == 3 * page
    first.clear()
    assert first.read(page - 4, 8) == b"ABCDEFGH"  # reads its base again
    with pytest.raises(MemoryError_):
        SparseMemory(base.size // 2, base=base)


@given(st.binary(min_size=1, max_size=1024), st.integers(0, 1 << 17))
def test_sparse_roundtrip_property(blob, address):
    memory = SparseMemory(1 << 18)
    if address + len(blob) > memory.size:
        address = memory.size - len(blob)
    memory.write(address, blob)
    assert memory.read(address, len(blob)) == blob


# ----------------------------------------------------------------------
# DRAM.
# ----------------------------------------------------------------------


def test_dram_transfer_latency_includes_controller():
    dram = Dram(size=1 << 20)
    reply = dram.read(0x100)
    assert reply.cycles >= CONTROLLER_LATENCY


def test_dram_row_hit_cheaper_than_miss():
    dram = Dram(size=1 << 20)
    first = dram.read(0x0).cycles  # opens the row
    second = dram.read(0x8).cycles  # same row
    far = dram.read(ROW_BYTES * BANKS).cycles  # same bank, new row
    assert second < first
    assert far > second
    assert dram.stats.row_hits >= 1
    assert dram.stats.row_misses >= 2


def test_dram_stream_moves_data_and_prices_it():
    dram = Dram(size=1 << 20)
    blob = bytes(range(256)) * 16
    cycles = dram.stream_write(0x1000, blob)
    data, read_cycles = dram.stream_read(0x1000, len(blob))
    assert data == blob
    assert cycles > 0 and read_cycles > 0


def test_dram_streaming_beats_random_access():
    dram = Dram(size=1 << 22)
    nbytes = 16 * 1024
    _, stream_cycles = dram.stream_read(0, nbytes)
    # The same 16 KiB fetched as single-word reads pays the controller
    # latency per access instead of per burst.
    word_cycles = sum(dram.read(i * 4).cycles for i in range(nbytes // 4))
    assert stream_cycles < word_cycles / 2


def test_dram_width_affects_bandwidth():
    narrow = Dram(size=1 << 20, timing=DramTiming(data_width_bits=32))
    wide = Dram(size=1 << 20, timing=DramTiming(data_width_bits=64))
    nbytes = 1 << 20
    assert wide.timing.stream_cycles(nbytes) < narrow.timing.stream_cycles(nbytes)


def test_dram_write_transfer():
    dram = Dram(size=1 << 16)
    dram.transfer(
        Transfer(address=0x40, size=4, access=AccessType.WRITE, data=b"\x01\x02\x03\x04")
    )
    assert dram.storage.read(0x40, 4) == b"\x01\x02\x03\x04"
    assert dram.stats.bytes_written == 4


# ----------------------------------------------------------------------
# BRAM.
# ----------------------------------------------------------------------


def test_bram_single_cycle():
    bram = Bram(1 << 12)
    assert bram.read(0).cycles == 1
