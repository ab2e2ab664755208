"""VP trace-log format, writer and parser.

The NVDLA virtual platform logs one line per interface transaction;
the paper's scripts filter on the adaptor keywords::

    12 nvdla.csb_adaptor: addr=0x0000b010 data=0x00000001 iswrite=1
    15 nvdla.csb_adaptor: addr=0x0000000c data=0x00000004 iswrite=0
    20 nvdla.dbb_adaptor: addr=0x00100000 len=64 iswrite=0 data=a1b2...

CSB lines carry one 32-bit register access; DBB lines carry up to
``DBB_LINE_BYTES`` of memory traffic with hex payload (reads log the
data returned — that is what weight extraction reconstructs).
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable

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
_KINDS = ("csb", "dbb")


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


@dataclass
class TraceLog:
    """An append-only transaction log with text round-tripping."""

    csb: list[CsbTransaction] = field(default_factory=list)
    dbb: list[DbbTransaction] = field(default_factory=list)
    _order: list[tuple[str, int]] = field(default_factory=list)

    def log_csb(self, cycle: int, address: int, data: int, iswrite: bool) -> None:
        self.csb.append(CsbTransaction(cycle, address, data & 0xFFFFFFFF, iswrite))
        self._order.append(("csb", len(self.csb) - 1))

    def log_dbb(self, cycle: int, address: int, data: bytes, iswrite: bool) -> None:
        for offset in range(0, len(data), DBB_LINE_BYTES):
            chunk = data[offset : offset + DBB_LINE_BYTES]
            self.dbb.append(DbbTransaction(cycle, address + offset, chunk, iswrite))
            self._order.append(("dbb", len(self.dbb) - 1))

    def transactions(self) -> Iterable[CsbTransaction | DbbTransaction]:
        """All transactions in logged order."""
        for kind, index in self._order:
            yield self.csb[index] if kind == "csb" else self.dbb[index]

    def render(self) -> str:
        return "\n".join(t.render() for t in self.transactions()) + ("\n" if self._order else "")

    def __len__(self) -> int:
        return len(self._order)

    def to_bytes(self) -> bytes:
        """The binary form (see the module docstring); deterministic."""

        def column(values: Iterable[int], count: int) -> bytes:
            return np.fromiter(values, dtype=_COLUMN, count=count).tobytes()

        csb, dbb = self.csb, self.dbb
        columns = zlib.compress(
            b"".join((
                bytes(kind == "dbb" for kind, _ in self._order),
                column((t.cycle for t in csb), len(csb)),
                column((t.address for t in csb), len(csb)),
                column((t.data for t in csb), len(csb)),
                column((t.iswrite for t in csb), len(csb)),
                column((t.cycle for t in dbb), len(dbb)),
                column((t.address for t in dbb), len(dbb)),
                column((len(t.data) for t in dbb), len(dbb)),
                column((t.iswrite for t in dbb), len(dbb)),
            )),
            _ZLIB_LEVEL,
        )
        header = _BINARY_HEADER.pack(
            _BINARY_MAGIC, _BINARY_VERSION, len(csb), len(dbb), len(columns)
        )
        return b"".join((header, columns, *(t.data for t in dbb)))

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
        payload = blob[payload_start:]
        if int(dbb[2].sum()) != len(payload):
            raise TraceError(
                f"binary trace payload holds {len(payload)} bytes, "
                f"its dbb lengths sum to {int(dbb[2].sum())}"
            )
        ends = np.cumsum(dbb[2]).tolist()
        cycles, addresses, lengths, writes = dbb.tolist()
        # The n-th logged transaction of a kind sits at index n of its list.
        is_dbb = kinds.astype(np.int64)
        indices = np.where(is_dbb, np.cumsum(is_dbb), np.cumsum(1 - is_dbb)) - 1
        return cls(
            csb=[
                CsbTransaction(cycle, address, data, bool(iswrite))
                for cycle, address, data, iswrite in zip(*csb.tolist())
            ],
            dbb=[
                DbbTransaction(cycle, address, payload[end - length : end], bool(iswrite))
                for cycle, address, length, end, iswrite in zip(
                    cycles, addresses, lengths, ends, writes
                )
            ],
            _order=[
                (_KINDS[kind], index)
                for kind, index in zip(kinds.tolist(), indices.tolist())
            ],
        )

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
            log.dbb.append(
                DbbTransaction(int(cycle), int(address, 16), payload, iswrite == "1")
            )
            log._order.append(("dbb", len(log.dbb) - 1))
    return log
