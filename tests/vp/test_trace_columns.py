"""The columnar trace log against per-line reference models.

``TraceLog`` keeps DBB traffic as columns plus one payload buffer.
These tests rebuild the same log from plain per-line tuples — an
independent 64-byte split and a reference binary encoder — so the
column bookkeeping, the logged order and the store's ``trace``
section bytes are all pinned from outside the implementation.
"""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.vp.trace_log import CsbTransaction, DbbTransaction, TraceLog, parse_trace

_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("csb"),
            st.integers(0, 2**40),
            st.integers(0, 2**32 - 1),
            st.integers(0, 2**32 - 1),
            st.booleans(),
        ),
        st.tuples(
            st.just("dbb"),
            st.integers(0, 2**40),
            st.integers(0, 2**33),
            st.binary(min_size=0, max_size=200),
            st.booleans(),
        ),
    ),
    max_size=24,
)


def _reference_lines(events) -> list[tuple]:
    """Per-transaction tuples in logged order; DBB split every 64 B."""
    lines = []
    for kind, cycle, address, data, iswrite in events:
        if kind == "csb":
            lines.append(("csb", cycle, address, data, iswrite))
            continue
        for offset in range(0, len(data), 64):
            lines.append(("dbb", cycle, address + offset, data[offset : offset + 64], iswrite))
    return lines


def _reference_encode(lines) -> bytes:
    """The version-1 binary trace, written from per-line tuples."""
    csb = [line[1:] for line in lines if line[0] == "csb"]
    dbb = [line[1:] for line in lines if line[0] == "dbb"]

    def column(values) -> bytes:
        return struct.pack(f"<{len(values)}q", *values)

    columns = b"".join((
        bytes(line[0] == "dbb" for line in lines),
        *(column([int(t[i]) for t in csb]) for i in range(4)),
        column([t[0] for t in dbb]),
        column([t[1] for t in dbb]),
        column([len(t[2]) for t in dbb]),
        column([int(t[3]) for t in dbb]),
    ))
    packed = zlib.compress(columns, 1)
    header = struct.pack("<4sBIIQ", b"VPTB", 1, len(csb), len(dbb), len(packed))
    return header + packed + b"".join(t[2] for t in dbb)


def _transaction(line):
    kind, *fields = line
    return CsbTransaction(*fields) if kind == "csb" else DbbTransaction(*fields)


@settings(max_examples=200, deadline=None)
@given(_events)
def test_columns_match_a_per_line_reference(events):
    log = TraceLog()
    for kind, cycle, address, data, iswrite in events:
        (log.log_csb if kind == "csb" else log.log_dbb)(cycle, address, data, iswrite)
    lines = _reference_lines(events)

    assert list(log.dbb) == [_transaction(line) for line in lines if line[0] == "dbb"]
    assert list(log.transactions()) == [_transaction(line) for line in lines]
    assert len(log) == len(lines)
    blob = log.to_bytes()
    assert TraceLog.from_bytes(blob) == log
    assert blob == _reference_encode(lines)
    assert parse_trace(log.render()) == log


def test_dbb_view_indexes_like_a_list():
    log = TraceLog()
    log.log_dbb(7, 0x1000, bytes(range(150)), True)
    lines = list(log.dbb)
    assert [len(t.data) for t in lines] == [64, 64, 22]
    assert log.dbb[-1] == lines[2] == DbbTransaction(7, 0x1080, bytes(range(128, 150)), True)
    assert log.dbb[1:] == lines[1:]
    assert log.dbb and not TraceLog().dbb
    with pytest.raises(IndexError):
        log.dbb[3]


def test_unsplit_line_keeps_any_length():
    """``log_dbb_line`` appends one line as given: empty, or longer
    than the 64-byte split (parsed text traces and hand-built tests)."""
    log = TraceLog()
    log.log_dbb_line(1, 0x40, b"", False)
    log.log_dbb_line(2, 0x80, bytes(100), True)
    log.log_csb(3, 0xC, 4, False)
    assert [len(t.data) for t in log.dbb] == [0, 100]
    assert [type(t).__name__ for t in log.transactions()] == [
        "DbbTransaction", "DbbTransaction", "CsbTransaction",
    ]
    assert TraceLog.from_bytes(log.to_bytes()) == log
    assert parse_trace(log.render()) == log
