"""Differential oracle for weight extraction.

``reference_extract_initial_memory`` is the original byte-at-a-time
extractor — a dict of first-read bytes and a set of written addresses,
walked in trace order, then coalesced — kept here as the executable
specification.  The vectorised :func:`extract_initial_memory` must
return exactly the same segments on every DBB trace.

The extractor takes lines that overlap no other line whole and sends
only overlapping lines through its per-byte pass; the structured
strategies below build both kinds on purpose and check that the
per-byte pass sees exactly the overlapping lines.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.baremetal import weight_extract
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


def _overlapping_lines(transactions) -> int:
    """How many lines the per-byte pass must see, by brute force:
    non-empty lines, exact repeats of an earlier range dropped, that
    overlap another such line."""
    kept: list[tuple[int, int]] = []
    for address, data, _ in transactions:
        line = (address, address + len(data))
        if data and line not in kept:
            kept.append(line)
    return sum(
        any(lo < other_hi and other_lo < hi for other_lo, other_hi in kept[:i] + kept[i + 1 :])
        for i, (lo, hi) in enumerate(kept)
    )


def _check_against_reference(transactions) -> tuple[int, int]:
    """Extract with the per-byte pass spied on; returns (lone lines,
    lines through the per-byte pass)."""
    trace = _trace(transactions)
    with mock.patch.object(
        weight_extract, "_first_reads", wraps=weight_extract._first_reads
    ) as spy:
        segments = extract_initial_memory(trace)
    assert segments == reference_extract_initial_memory(trace)
    per_byte = sum(len(call.args[0]) for call in spy.call_args_list)
    assert per_byte == _overlapping_lines(transactions)
    assert spy.call_count <= 1
    kept = {(address, len(data)) for address, data, _ in transactions if data}
    return len(kept) - per_byte, per_byte


@st.composite
def _related_lines(draw):
    """Lines placed against earlier ones: sub-ranges (write then read
    of part of it, read then write), partial overlaps, lines straddling
    two earlier lines, zero-length lines, and unrelated lines."""
    lines: list[tuple[int, bytes, bool]] = []
    for _ in range(draw(st.integers(1, 12))):
        move = draw(st.sampled_from(
            ["fresh", "sub", "partial", "straddle", "empty"] if lines else ["fresh"]
        ))
        if move == "fresh":
            start = draw(st.integers(0, 400))
            length = draw(st.integers(1, 40))
        elif move == "empty":
            start, length = draw(st.integers(0, 400)), 0
        else:
            lo, data, _ = draw(st.sampled_from(lines))
            hi = lo + max(len(data), 1)
            if move == "sub":
                start = draw(st.integers(lo, hi - 1))
                length = draw(st.integers(1, hi - start))
            elif move == "partial":
                start = draw(st.integers(lo, hi - 1))
                length = hi - start + draw(st.integers(1, 16))
            else:  # straddle: from inside this line to inside another
                other_lo, other_data, _ = draw(st.sampled_from(lines))
                other_hi = other_lo + max(len(other_data), 1)
                start = draw(st.integers(min(lo, other_lo), min(hi, other_hi) - 1))
                end = draw(st.integers(max(lo, other_lo), max(hi, other_hi) - 1)) + 1
                length = max(end - start, 1)
        data = draw(st.binary(min_size=length, max_size=length))
        lines.append((start, data, draw(st.booleans())))
    return lines


@st.composite
def _disjoint_lines(draw):
    """Lines that overlap no other line, some abutting, logged in any
    order."""
    lines, cursor = [], draw(st.integers(0, 64))
    for _ in range(draw(st.integers(0, 12))):
        length = draw(st.integers(1, 24))
        data = draw(st.binary(min_size=length, max_size=length))
        lines.append((cursor, data, draw(st.booleans())))
        cursor += length + draw(st.sampled_from([0, 0, 1, 7]))
    return draw(st.permutations(lines))


def test_structured_overlaps_match_reference():
    seen = {"lone": 0, "per_byte": 0}

    @settings(max_examples=300, deadline=None)
    @given(_related_lines())
    def check(transactions):
        lone, per_byte = _check_against_reference(transactions)
        seen["lone"] += lone > 0
        seen["per_byte"] += per_byte > 0

    check()
    assert seen["lone"] and seen["per_byte"], seen


@settings(max_examples=150, deadline=None)
@given(_disjoint_lines())
def test_disjoint_lines_skip_the_per_byte_pass(transactions):
    lone, per_byte = _check_against_reference(transactions)
    assert per_byte == 0
    assert lone == len(transactions)


def test_lone_and_overlapping_lines_in_one_trace():
    """A contained line after a long one is flagged although it does
    not overlap its address-order predecessor; lone reads abutting the
    per-byte bytes join one segment; a lone write contributes nothing."""
    transactions = [
        (0x30, b"\x07" * 4, False),  # inside the long read, logged first
        (0x00, bytes(range(0x40)), False),  # long read over both others
        (0x10, b"\xee" * 4, True),  # write inside the long read
        (0x40, b"\x55" * 8, False),  # lone read abutting the long one
        (0x80, b"\x66" * 8, True),  # lone write
    ]
    assert _check_against_reference(transactions) == (2, 3)
    [segment] = extract_initial_memory(_trace(transactions))
    assert segment.address == 0 and len(segment.data) == 0x48
    assert segment.data[0x30:0x34] == b"\x07" * 4


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
