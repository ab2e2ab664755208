"""DDR4 DRAM model (the MIG-controlled 512 MB of the ZCU102 setup).

Storage is a :class:`~repro.mem.sparse_memory.SparseMemory`; timing is
a compact DDR model: a fixed controller latency per transaction, one
cycle per data-bus beat, and a row-activation penalty whenever a
transaction opens a different row than the last one in its bank.

The model is deliberately first-order — the quantity that matters for
the paper's results is sustained streaming bandwidth (weights in,
activations in/out) versus random single-beat latency (CPU loads and
register polling), both of which this reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.types import AccessType, BusPort, Reply, Transfer
from repro.mem.sparse_memory import SparseMemory


@dataclass(frozen=True)
class DramTiming:
    """Timing parameters, in memory-controller clock cycles.

    Defaults approximate a DDR4-2400 MIG running its user interface at
    100 MHz with a 32-bit user data path (the paper's configuration:
    "the DDR4 runs at 100 MHz" behind a 32-bit data memory port).
    """

    controller_latency: int = 10
    beat_cycles: int = 1
    row_hit_extra: int = 0
    row_miss_extra: int = 8
    row_bytes: int = 2048
    banks: int = 16
    data_width_bits: int = 32

    @property
    def width_bytes(self) -> int:
        return self.data_width_bits // 8

    def beats(self, nbytes: int) -> int:
        """Data-bus beats of an ``nbytes`` transfer (at least one)."""
        return max(1, -(-nbytes // self.width_bytes))

    def stream_cycles(self, nbytes: int, burst_bytes: int = 256) -> int:
        """Cycles to stream ``nbytes`` in ``burst_bytes`` bursts: the
        controller latency per burst, a row activation per row the
        block spans, and one beat per data-bus word.  The one DDR
        stream formula: DMA pricing and the DRAM's own stream
        accounting both use it."""
        bursts = max(1, -(-nbytes // burst_bytes))
        rows = max(1, -(-nbytes // self.row_bytes))
        return (
            bursts * self.controller_latency
            + rows * self.row_miss_extra
            + self.beats(nbytes) * self.beat_cycles
        )


@dataclass
class DramStats:
    transactions: int = 0
    beats: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_cycles: int = 0


class Dram(BusPort):
    """DRAM with first-order DDR timing.

    The port-level :meth:`transfer` serves CPU-side traffic; bulk DMA
    uses :meth:`stream_read` / :meth:`stream_write`, which move whole
    blocks functionally and report an analytic cycle cost so that
    100 MB-class weight streams do not require beat-level simulation.
    """

    def __init__(self, size: int = 512 * 1024 * 1024, timing: DramTiming | None = None) -> None:
        self.storage = SparseMemory(size)
        self.timing = timing or DramTiming()
        self.stats = DramStats()
        self._open_rows: dict[int, int] = {}

    @property
    def size(self) -> int:
        return self.storage.size

    def _row_cycles(self, address: int) -> int:
        """Account a row-buffer lookup and return its extra cycles."""
        row = address // self.timing.row_bytes
        bank = row % self.timing.banks
        if self._open_rows.get(bank) == row:
            self.stats.row_hits += 1
            return self.timing.row_hit_extra
        self._open_rows[bank] = row
        self.stats.row_misses += 1
        return self.timing.row_miss_extra

    def transfer(self, xfer: Transfer) -> Reply:
        beats = self.timing.beats(xfer.total_bytes)
        cycles = self.timing.controller_latency + self._row_cycles(xfer.address)
        cycles += beats * self.timing.beat_cycles
        self.stats.transactions += 1
        self.stats.beats += beats
        self.stats.busy_cycles += cycles
        if xfer.access is AccessType.WRITE:
            # Transfer.__post_init__ rejects a write without a payload.
            self.storage.write(xfer.address, xfer.data)
            self.stats.bytes_written += xfer.total_bytes
            return Reply(cycles=cycles)
        data = self.storage.read(xfer.address, xfer.total_bytes)
        self.stats.bytes_read += xfer.total_bytes
        return Reply(data=data, cycles=cycles)

    def _stream_cycles(self, nbytes: int, burst_bytes: int) -> int:
        cycles = self.timing.stream_cycles(nbytes, burst_bytes)
        self.stats.transactions += max(1, -(-nbytes // burst_bytes))
        self.stats.beats += self.timing.beats(nbytes)
        self.stats.busy_cycles += cycles
        return cycles

    def stream_read(self, address: int, nbytes: int, burst_bytes: int = 256) -> tuple[bytes, int]:
        """Read a block, returning ``(data, cycles)`` with burst timing."""
        cycles = self._stream_cycles(nbytes, burst_bytes)
        self.stats.bytes_read += nbytes
        return self.storage.read(address, nbytes), cycles

    def stream_write(self, address: int, data: bytes, burst_bytes: int = 256) -> int:
        """Write a block, returning its cycle cost with burst timing."""
        cycles = self._stream_cycles(len(data), burst_bytes)
        self.stats.bytes_written += len(data)
        self.storage.write(address, data)
        return cycles

    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Ideal data-bus limit, ignoring controller overheads."""
        return self.timing.width_bytes / self.timing.beat_cycles

    def effective_stream_bandwidth(self, nbytes: int = 1 << 20, burst_bytes: int = 256) -> float:
        """Sustained streaming bytes/cycle for a ``nbytes`` block."""
        return nbytes / self.timing.stream_cycles(nbytes, burst_bytes)
