"""The columnar trace log against per-line reference models.

``TraceLog`` keeps CSB accesses and DBB traffic as columns plus one
payload buffer.  These tests rebuild the same log from plain per-line
tuples — an independent 64-byte split, a reference binary encoder and
a reference register-command conversion — so the column bookkeeping,
the logged order, the store's ``trace`` section bytes and the
configuration file are all pinned from outside the implementation.
"""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.baremetal.config_file import ConfigCommand
from repro.baremetal.trace_to_config import trace_to_config
from repro.nvdla.csb import UNIT_BASES
from repro.nvdla.units.glb import INTR_STATUS
from repro.vp.trace_log import CsbTransaction, DbbTransaction, TraceLog, parse_trace

_INTR_STATUS = UNIT_BASES["GLB"] + INTR_STATUS

_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("csb"),
            st.integers(0, 2**40),
            st.one_of(st.just(_INTR_STATUS), st.integers(0, 2**32 - 1)),
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


def _reference_config(lines) -> list[ConfigCommand]:
    """Register commands from the CSB tuples: writes replay, reads
    expect their value, and an interrupt-status read with a nonzero
    value polls only its set bits."""
    commands = []
    for kind, _, address, data, iswrite in lines:
        if kind != "csb":
            continue
        if iswrite:
            commands.append(ConfigCommand("write_reg", address, data))
        else:
            polls = address == _INTR_STATUS and data != 0
            commands.append(
                ConfigCommand("read_reg", address, data, data if polls else 0xFFFFFFFF)
            )
    return commands


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

    csb = [_transaction(line) for line in lines if line[0] == "csb"]
    assert list(log.csb) == csb
    assert len(log.csb) == len(csb)
    assert [log.csb[i] for i in range(-len(csb), len(csb))] == csb + csb
    assert list(log.dbb) == [_transaction(line) for line in lines if line[0] == "dbb"]
    assert list(log.transactions()) == [_transaction(line) for line in lines]
    assert len(log) == len(lines)
    blob = log.to_bytes()
    back = TraceLog.from_bytes(blob)
    assert back == log
    assert list(back.csb) == csb
    assert blob == _reference_encode(lines)
    assert parse_trace(log.render()) == log
    assert trace_to_config(log) == trace_to_config(back) == _reference_config(lines)


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


def test_csb_view_indexes_like_a_list():
    log = TraceLog()
    log.log_csb(3, 0x10, 0x1_0000_00FF, True)  # data is kept to 32 bits
    log.log_dbb(4, 0x1000, bytes(8), False)
    log.log_csb(5, 0x14, 7, False)
    lines = list(log.csb)
    assert lines == [CsbTransaction(3, 0x10, 0xFF, True), CsbTransaction(5, 0x14, 7, False)]
    assert log.csb[-1] == lines[1] and log.csb[0].iswrite is True
    assert log.csb[1:] == lines[1:] and log.csb[::-1] == lines[::-1]
    assert log.csb and not TraceLog().csb
    with pytest.raises(IndexError):
        log.csb[2]
    with pytest.raises(IndexError):
        log.csb[-3]
