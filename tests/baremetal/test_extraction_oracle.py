"""Differential oracle for weight extraction.

``reference_extract_initial_memory`` is the original byte-at-a-time
extractor — a dict of first-read bytes and a set of written addresses,
walked in trace order, then coalesced — kept here as the executable
specification.  The vectorised :func:`extract_initial_memory` must
return exactly the same segments on every DBB trace.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baremetal.weight_extract import MemorySegment, extract_initial_memory
from repro.errors import TraceError
from repro.vp.trace_log import TraceLog


def reference_extract_initial_memory(trace: TraceLog) -> list[MemorySegment]:
    initial: dict[int, int] = {}
    written: set[int] = set()
    for txn in trace.dbb:
        if txn.iswrite:
            written.update(range(txn.address, txn.address + len(txn.data)))
            continue
        for offset, byte in enumerate(txn.data):
            address = txn.address + offset
            if address in written or address in initial:
                continue  # intermediate data / duplicate read
            initial[address] = byte
    return _coalesce(initial)


def _coalesce(bytes_by_address: dict[int, int]) -> list[MemorySegment]:
    if not bytes_by_address:
        return []
    segments: list[MemorySegment] = []
    addresses = sorted(bytes_by_address)
    start = prev = addresses[0]
    chunk = bytearray([bytes_by_address[start]])
    for address in addresses[1:]:
        if address == prev + 1:
            chunk.append(bytes_by_address[address])
        else:
            segments.append(MemorySegment(start, bytes(chunk)))
            start = address
            chunk = bytearray([bytes_by_address[address]])
        prev = address
    segments.append(MemorySegment(start, bytes(chunk)))
    return segments


def _trace(transactions) -> TraceLog:
    log = TraceLog()
    for cycle, (address, data, iswrite) in enumerate(transactions):
        # One line each (not split by log_dbb) so lengths above the
        # 64-byte line split and empty payloads reach the extractor.
        log.log_dbb_line(cycle, address, data, iswrite)
    return log


# A small address window makes overlaps, read-after-write, duplicate
# and partial re-reads frequent; any length makes them unaligned.
_transaction = st.tuples(
    st.integers(min_value=0, max_value=192),
    st.binary(min_size=0, max_size=80),
    st.booleans(),
)
# A far-away base exercises large bus addresses and segment gaps.
_base = st.sampled_from([0, 0x100000, 0x7FFF_FF00])


@settings(max_examples=300, deadline=None)
@given(st.lists(_transaction, max_size=24), _base)
def test_matches_byte_walk_reference(transactions, base):
    trace = _trace((base + address, data, iswrite) for address, data, iswrite in transactions)
    assert extract_initial_memory(trace) == reference_extract_initial_memory(trace)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 64), st.binary(max_size=16)), max_size=12))
def test_reads_only_match_reference(reads):
    """Duplicate and partial re-reads without any write in between."""
    trace = _trace((address, data, False) for address, data in reads)
    assert extract_initial_memory(trace) == reference_extract_initial_memory(trace)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, 16, 64, 70]),
            st.sampled_from([0, 1, 16, 64]),
            st.booleans(),
            st.integers(0, 255),
        ),
        max_size=16,
    )
)
def test_repeated_ranges_match_reference(ranges):
    """Exact repeats of earlier (address, length) ranges, in both
    directions: the extractor drops them before its per-byte pass."""
    trace = _trace(
        (address, bytes([fill]) * length, iswrite)
        for address, length, iswrite, fill in ranges
    )
    assert extract_initial_memory(trace) == reference_extract_initial_memory(trace)


def test_edge_cases_match_reference():
    cases = [
        [],  # empty trace
        [(0x10, b"", False), (0x10, b"", True)],  # empty payloads only
        [(0x10, b"\x01\x02", True), (0x10, b"\x03\x04\x05", False)],  # read after write
        [(0x11, b"\xaa", True), (0x10, b"\x01\x02\x03", False)],  # hole punched by a write
        [(0x10, b"\x01\x02\x03", False), (0x11, b"\x09\x09\x09", False)],  # partial re-read
        [(0x10, b"\x01", False), (0x10, b"\x02", True), (0x10, b"\x03", False)],  # write after read
        [(0x10, b"\x01\x02", True), (0x10, b"\x03\x04", False)],  # exact re-read of a write
        [(0x10, b"\x01\x02", False), (0x10, b"\x03\x04", False)],  # exact duplicate read
    ]
    for transactions in cases:
        trace = _trace(transactions)
        assert extract_initial_memory(trace) == reference_extract_initial_memory(trace)


def test_unpackable_address_span_is_a_trace_error():
    """Address offsets and trace rows share one int64 sort key; a trace
    too wide for it is refused with a typed error, not mis-extracted."""
    trace = _trace([(0, b"\x01", False), (1 << 62, b"\x02", False)])
    with pytest.raises(TraceError):
        extract_initial_memory(trace)
