"""VP trace-log format, writer and parser.

The NVDLA virtual platform logs one line per interface transaction;
the paper's scripts filter on the adaptor keywords::

    12 nvdla.csb_adaptor: addr=0x0000b010 data=0x00000001 iswrite=1
    15 nvdla.csb_adaptor: addr=0x0000000c data=0x00000004 iswrite=0
    20 nvdla.dbb_adaptor: addr=0x00100000 len=64 iswrite=0 data=a1b2...

CSB lines carry one 32-bit register access; DBB lines carry up to
``DBB_LINE_BYTES`` of memory traffic with hex payload (reads log the
data returned — that is what weight extraction reconstructs).

In memory, :class:`TraceLog` keeps both sides as columns:

- one kind byte per transaction, in logged order (0 csb, 1 dbb);
- per CSB access, four ``int64`` columns: cycle, address, data and
  iswrite;
- per DBB line, four ``int64`` columns: cycle, address, length and
  iswrite;
- one payload buffer holding every DBB line's data back to back.

A DMA transfer appends all of its lines to the columns at once.  The
``csb`` and ``dbb`` attributes are read-only views that build a
:class:`CsbTransaction` or :class:`DbbTransaction` only for a line
that is indexed or iterated; bulk readers (configuration-file
generation, weight extraction) take the columns as arrays.  The
binary form, which the store keeps as a bundle's ``trace`` section, is
the same layout, so encoding writes the columns and decoding adopts
them without building an object per line::

    header: "VPTB" | version (u8) | n_csb (u32) | n_dbb (u32) |
            compressed-columns length (u64), little-endian
    zlib:   kind bytes | csb cycle | csb address | csb data |
            csb iswrite | dbb cycle | dbb address | dbb length |
            dbb iswrite   (each csb/dbb column little-endian int64)
    raw:    the DBB payload
"""

from __future__ import annotations

import re
import struct
import zlib
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TypeVar, overload

import numpy as np

from repro.errors import TraceError

CSB_KEYWORD = "nvdla.csb_adaptor"
DBB_KEYWORD = "nvdla.dbb_adaptor"
DBB_LINE_BYTES = 64

_BINARY_MAGIC = b"VPTB"
_BINARY_VERSION = 1
_BINARY_HEADER = struct.Struct("<4sBIIQ")
_COLUMN = np.dtype("<i8")
_ZLIB_LEVEL = 1  # fixed: the store content-addresses these bytes


@dataclass(frozen=True)
class CsbTransaction:
    """One register access on the configuration space bus."""

    cycle: int
    address: int  # byte offset in the NVDLA register window
    data: int
    iswrite: bool

    def render(self) -> str:
        return (
            f"{self.cycle} {CSB_KEYWORD}: addr=0x{self.address:08x} "
            f"data=0x{self.data:08x} iswrite={int(self.iswrite)}"
        )


@dataclass(frozen=True)
class DbbTransaction:
    """One memory transaction on the data backbone."""

    cycle: int
    address: int  # absolute bus address
    data: bytes
    iswrite: bool

    def render(self) -> str:
        return (
            f"{self.cycle} {DBB_KEYWORD}: addr=0x{self.address:08x} "
            f"len={len(self.data)} iswrite={int(self.iswrite)} data={self.data.hex()}"
        )


_Line = TypeVar("_Line", CsbTransaction, DbbTransaction)


class _LineView(Sequence[_Line]):
    """Read-only sequence view of one side of a log's columns; builds
    a transaction object only for a line that is indexed or iterated."""

    __slots__ = ("_log",)
    _side = ""

    def __init__(self, log: TraceLog) -> None:
        self._log = log

    def _line(self, index: int) -> _Line:
        raise NotImplementedError

    @overload
    def __getitem__(self, index: int) -> _Line: ...

    @overload
    def __getitem__(self, index: slice) -> list[_Line]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"{self._side} line index out of range")
        return self._line(index)


class CsbLines(_LineView[CsbTransaction]):
    """The CSB accesses of a log; bulk readers use
    :meth:`TraceLog.csb_arrays`."""

    __slots__ = ()
    _side = "CSB"

    def __len__(self) -> int:
        return len(self._log._csb_cycles)

    def _line(self, index: int) -> CsbTransaction:
        log = self._log
        return CsbTransaction(
            log._csb_cycles[index],
            log._csb_addresses[index],
            log._csb_data[index],
            bool(log._csb_writes[index]),
        )

    def __iter__(self) -> Iterator[CsbTransaction]:
        log = self._log
        for cycle, address, data, iswrite in zip(
            log._csb_cycles, log._csb_addresses, log._csb_data, log._csb_writes
        ):
            yield CsbTransaction(cycle, address, data, bool(iswrite))


class DbbLines(_LineView[DbbTransaction]):
    """The DBB lines of a log; bulk readers use
    :meth:`TraceLog.dbb_arrays`."""

    __slots__ = ()
    _side = "DBB"

    def __len__(self) -> int:
        return len(self._log._dbb_lengths)

    def _line(self, index: int) -> DbbTransaction:
        log = self._log
        start = sum(log._dbb_lengths[:index])
        return DbbTransaction(
            log._dbb_cycles[index],
            log._dbb_addresses[index],
            bytes(log._payload[start : start + log._dbb_lengths[index]]),
            bool(log._dbb_writes[index]),
        )

    def __iter__(self) -> Iterator[DbbTransaction]:
        log = self._log
        start = 0
        for cycle, address, length, iswrite in zip(
            log._dbb_cycles, log._dbb_addresses, log._dbb_lengths, log._dbb_writes
        ):
            yield DbbTransaction(
                cycle, address, bytes(log._payload[start : start + length]), bool(iswrite)
            )
            start += length


class TraceLog:
    """An append-only transaction log with text and binary round-tripping.

    Both sides are kept in columns (see the module docstring) and read
    through the :attr:`csb` and :attr:`dbb` views or, in bulk, through
    :meth:`csb_arrays` and :meth:`dbb_arrays`.
    """

    def __init__(self) -> None:
        self._kinds = bytearray()  # per transaction: 0 csb, 1 dbb
        self._csb_cycles = array("q")  # per CSB access, like the next three
        self._csb_addresses = array("q")
        self._csb_data = array("q")
        self._csb_writes = array("q")
        self._dbb_cycles = array("q")  # per DBB line, like the next three
        self._dbb_addresses = array("q")
        self._dbb_lengths = array("q")
        self._dbb_writes = array("q")
        self._payload = bytearray()  # the DBB lines' data, back to back

    @property
    def csb(self) -> CsbLines:
        return CsbLines(self)

    @property
    def dbb(self) -> DbbLines:
        return DbbLines(self)

    def _csb_columns(self) -> tuple[array, array, array, array]:
        return self._csb_cycles, self._csb_addresses, self._csb_data, self._csb_writes

    def _dbb_columns(self) -> tuple[array, array, array, array]:
        return self._dbb_cycles, self._dbb_addresses, self._dbb_lengths, self._dbb_writes

    def _columns(self) -> tuple:
        return (self._kinds, *self._csb_columns(), *self._dbb_columns(), self._payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceLog):
            return NotImplemented
        return self._columns() == other._columns()

    def __repr__(self) -> str:
        return (
            f"TraceLog({len(self._csb_cycles)} csb, {len(self._dbb_lengths)} dbb lines, "
            f"{len(self._payload)} payload bytes)"
        )

    def log_csb(self, cycle: int, address: int, data: int, iswrite: bool) -> None:
        self._kinds.append(0)
        self._csb_cycles.append(cycle)
        self._csb_addresses.append(address)
        self._csb_data.append(data & 0xFFFFFFFF)
        self._csb_writes.append(int(iswrite))

    def log_dbb(self, cycle: int, address: int, data: bytes, iswrite: bool) -> None:
        """Log one DMA transfer as ``DBB_LINE_BYTES`` lines (the last
        one shorter); an empty transfer logs nothing."""
        lines = -(-len(data) // DBB_LINE_BYTES)
        if not lines:
            return
        self._kinds.extend(b"\x01" * lines)
        self._dbb_cycles.extend(array("q", (cycle,)) * lines)
        self._dbb_addresses.extend(range(address, address + len(data), DBB_LINE_BYTES))
        self._dbb_lengths.extend(array("q", (DBB_LINE_BYTES,)) * (lines - 1))
        self._dbb_lengths.append(len(data) - DBB_LINE_BYTES * (lines - 1))
        self._dbb_writes.extend(array("q", (int(iswrite),)) * lines)
        self._payload += data

    def log_dbb_line(self, cycle: int, address: int, data: bytes, iswrite: bool) -> None:
        """Log ``data`` as one DBB line, whatever its length (a parsed
        trace line, or a hand-built trace in a test)."""
        self._kinds.append(1)
        self._dbb_cycles.append(cycle)
        self._dbb_addresses.append(address)
        self._dbb_lengths.append(len(data))
        self._dbb_writes.append(int(iswrite))
        self._payload += data

    def csb_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the CSB columns for bulk readers: per-access
        register addresses and data (int64) and write flags (bool), in
        log order."""
        return (
            np.array(self._csb_addresses, dtype=np.int64),
            np.array(self._csb_data, dtype=np.int64),
            np.array(self._csb_writes, dtype=bool),
        )

    def dbb_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the DBB columns for bulk readers: per-line start
        addresses and lengths (int64) and write flags (bool), plus the
        payload (uint8), all in log order."""
        return (
            np.array(self._dbb_addresses, dtype=np.int64),
            np.array(self._dbb_lengths, dtype=np.int64),
            np.array(self._dbb_writes, dtype=bool),
            np.array(self._payload, dtype=np.uint8),
        )

    def transactions(self) -> Iterator[CsbTransaction | DbbTransaction]:
        """All transactions in logged order."""
        csb, dbb = iter(self.csb), iter(self.dbb)
        for kind in self._kinds:
            yield next(dbb) if kind else next(csb)

    def render(self) -> str:
        return "\n".join(t.render() for t in self.transactions()) + ("\n" if self._kinds else "")

    def __len__(self) -> int:
        return len(self._kinds)

    def to_bytes(self) -> bytes:
        """The binary form (see the module docstring); deterministic."""
        columns = zlib.compress(
            b"".join((
                self._kinds,
                *(
                    np.array(column, dtype=_COLUMN).tobytes()
                    for column in (*self._csb_columns(), *self._dbb_columns())
                ),
            )),
            _ZLIB_LEVEL,
        )
        header = _BINARY_HEADER.pack(
            _BINARY_MAGIC, _BINARY_VERSION, len(self._csb_cycles),
            len(self._dbb_lengths), len(columns),
        )
        return b"".join((header, columns, self._payload))

    @classmethod
    def from_bytes(cls, blob: bytes) -> TraceLog:
        """Inverse of :meth:`to_bytes`; malformed input raises
        :class:`~repro.errors.TraceError`."""
        if len(blob) < _BINARY_HEADER.size:
            raise TraceError(f"binary trace truncated to {len(blob)} bytes")
        magic, version, n_csb, n_dbb, columns_len = _BINARY_HEADER.unpack_from(blob)
        if magic != _BINARY_MAGIC or version != _BINARY_VERSION:
            raise TraceError(f"not a version-{_BINARY_VERSION} binary trace")
        payload_start = _BINARY_HEADER.size + columns_len
        if payload_start > len(blob):
            raise TraceError("binary trace columns overrun the blob")
        try:
            columns = zlib.decompress(blob[_BINARY_HEADER.size : payload_start])
        except zlib.error as exc:
            raise TraceError(f"binary trace columns do not decompress: {exc}") from exc
        count = n_csb + n_dbb
        if len(columns) != count + 4 * _COLUMN.itemsize * count:
            raise TraceError(
                f"binary trace columns hold {len(columns)} bytes, "
                f"not the size of {n_csb} csb + {n_dbb} dbb transactions"
            )
        kinds = np.frombuffer(columns, dtype=np.uint8, count=count)
        csb = np.frombuffer(columns, dtype=_COLUMN, count=4 * n_csb, offset=count)
        dbb = np.frombuffer(
            columns, dtype=_COLUMN, offset=count + 4 * _COLUMN.itemsize * n_csb
        )
        csb, dbb = csb.reshape(4, n_csb), dbb.reshape(4, n_dbb)
        if np.any(kinds > 1) or np.count_nonzero(kinds) != n_dbb:
            raise TraceError("binary trace kind bytes disagree with its counts")
        if np.any(csb < 0) or np.any(dbb < 0) or np.any(csb[3] > 1) or np.any(dbb[3] > 1):
            raise TraceError("binary trace column value out of range")
        payload_len = len(blob) - payload_start
        if int(dbb[2].sum()) != payload_len:
            raise TraceError(
                f"binary trace payload holds {payload_len} bytes, "
                f"its dbb lengths sum to {int(dbb[2].sum())}"
            )
        log = cls()
        log._kinds = bytearray(kinds)
        (
            log._csb_cycles, log._csb_addresses, log._csb_data, log._csb_writes,
            log._dbb_cycles, log._dbb_addresses, log._dbb_lengths, log._dbb_writes,
        ) = (array("q", column.astype(np.int64).tobytes()) for column in (*csb, *dbb))
        log._payload = bytearray(memoryview(blob)[payload_start:])
        return log

    def to_spans(self, frequency_hz: float = 100e6) -> list[dict]:
        """The log as ``repro.obs`` span dicts on the simulated clock.

        Each transaction becomes a one-cycle span (the VP logs instants,
        not durations) with cycles converted to seconds at
        ``frequency_hz``; CSB traffic lands on lane 0, DBB on lane 1,
        so both exporters (`repro trace export/vp`) and Perfetto show
        the register programming interleaved with memory traffic.
        """
        period = 1.0 / frequency_hz
        spans = []
        for t in self.transactions():
            is_csb = isinstance(t, CsbTransaction)
            attrs = {
                "cycle": t.cycle,
                "address": f"0x{t.address:08x}",
                "iswrite": t.iswrite,
            }
            if is_csb:
                attrs["data"] = f"0x{t.data:08x}"
            else:
                attrs["bytes"] = len(t.data)
            spans.append({
                "name": ("csb.write" if t.iswrite else "csb.read") if is_csb
                        else ("dbb.write" if t.iswrite else "dbb.read"),
                "trace_id": "vp",
                "span_id": f"vp-{len(spans)}",
                "parent_id": None,
                "start_s": t.cycle * period,
                "end_s": (t.cycle + 1) * period,
                "process": 0 if is_csb else 1,
                "attrs": attrs,
            })
        return spans

    def to_trace_events(self, frequency_hz: float = 100e6) -> dict:
        """Chrome trace-event JSON of the log, loadable in Perfetto."""
        from repro.obs.export import to_chrome_trace

        return to_chrome_trace(
            self.to_spans(frequency_hz),
            process_names={0: "csb", 1: "dbb"},
        )


_CSB_RE = re.compile(
    rf"^(\d+)\s+{re.escape(CSB_KEYWORD)}:\s+addr=0x([0-9a-fA-F]+)\s+"
    rf"data=0x([0-9a-fA-F]+)\s+iswrite=([01])\s*$"
)
_DBB_RE = re.compile(
    rf"^(\d+)\s+{re.escape(DBB_KEYWORD)}:\s+addr=0x([0-9a-fA-F]+)\s+"
    rf"len=(\d+)\s+iswrite=([01])\s+data=([0-9a-fA-F]*)\s*$"
)


def parse_trace(text: str) -> TraceLog:
    """Parse a rendered trace; non-matching lines are skipped, like
    the paper's grep-based scripts skip unrelated VP output."""
    log = TraceLog()
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if CSB_KEYWORD in line:
            match = _CSB_RE.match(line)
            if not match:
                raise TraceError(f"line {line_no}: malformed csb_adaptor entry")
            cycle, address, data, iswrite = match.groups()
            log.log_csb(int(cycle), int(address, 16), int(data, 16), iswrite == "1")
        elif DBB_KEYWORD in line:
            match = _DBB_RE.match(line)
            if not match:
                raise TraceError(f"line {line_no}: malformed dbb_adaptor entry")
            cycle, address, length, iswrite, data = match.groups()
            payload = bytes.fromhex(data)
            if len(payload) != int(length):
                raise TraceError(
                    f"line {line_no}: dbb payload length {len(payload)} != len={length}"
                )
            log.log_dbb_line(int(cycle), int(address, 16), payload, iswrite == "1")
    return log
