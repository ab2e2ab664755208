"""DDR4 DRAM model (the MIG-controlled 512 MB of the ZCU102 setup).

Storage is a :class:`~repro.mem.sparse_memory.SparseMemory`; timing is
a compact DDR model: a fixed controller latency per transaction, one
cycle per data-bus beat, and a row-activation penalty whenever a
transaction opens a different row than the last one in its bank.

The paper's SoC has one memory system, so its prices are module
constants, in memory-controller clock cycles at the 100 MHz system
clock ("the DDR4 runs at 100 MHz"); they approximate a DDR4-2400 MIG
user interface.  Only the data-bus width is a parameter
(:class:`DramTiming`): the published SoC has a 32-bit data memory port,
and Table III and the width ablation widen it up to 512 bits.

The model is deliberately first-order — the quantity that matters for
the paper's results is sustained streaming bandwidth (weights in,
activations in/out) versus random single-beat latency (CPU loads and
register polling), both of which this reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.types import AccessType, BusPort, Reply, Transfer
from repro.core.address_map import DRAM_SIZE
from repro.mem.sparse_memory import SparseMemory

#: Controller latency of every transaction (command to first data).
CONTROLLER_LATENCY = 10
#: Cycles per data-bus beat.
BEAT_CYCLES = 1
#: Extra cycles when the row is already open in its bank.
ROW_HIT_EXTRA = 0
#: Extra cycles to activate a row (precharge + activate).
ROW_MISS_EXTRA = 8
#: Row-buffer size per bank.
ROW_BYTES = 2048
#: Banks, each with one open row.
BANKS = 16
#: Burst size of a bulk stream: each burst pays the controller latency.
BURST_BYTES = 256


@dataclass(frozen=True)
class DramTiming:
    """The DDR stream formula over the one settable value: the width of
    the data bus (32 bits in the published SoC)."""

    data_width_bits: int = 32

    @property
    def width_bytes(self) -> int:
        return self.data_width_bits // 8

    def beats(self, nbytes: int) -> int:
        """Data-bus beats of an ``nbytes`` transfer (at least one)."""
        return max(1, -(-nbytes // self.width_bytes))

    def stream_cycles(self, nbytes: int) -> int:
        """Cycles to stream ``nbytes`` in :data:`BURST_BYTES` bursts:
        :data:`CONTROLLER_LATENCY` per burst, :data:`ROW_MISS_EXTRA`
        per :data:`ROW_BYTES` row the block spans, and
        :data:`BEAT_CYCLES` per data-bus word.  The one DDR stream
        formula: DMA pricing and the DRAM's own stream accounting both
        use it."""
        bursts = max(1, -(-nbytes // BURST_BYTES))
        rows = max(1, -(-nbytes // ROW_BYTES))
        return (
            bursts * CONTROLLER_LATENCY
            + rows * ROW_MISS_EXTRA
            + self.beats(nbytes) * BEAT_CYCLES
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

    def __init__(self, size: int = DRAM_SIZE, timing: DramTiming | None = None) -> None:
        self.storage = SparseMemory(size)
        self.timing = timing or DramTiming()
        self.stats = DramStats()
        self._open_rows: dict[int, int] = {}

    @property
    def size(self) -> int:
        return self.storage.size

    def _row_cycles(self, address: int) -> int:
        """Account a row-buffer lookup and return its extra cycles."""
        row = address // ROW_BYTES
        bank = row % BANKS
        if self._open_rows.get(bank) == row:
            self.stats.row_hits += 1
            return ROW_HIT_EXTRA
        self._open_rows[bank] = row
        self.stats.row_misses += 1
        return ROW_MISS_EXTRA

    def transfer(self, xfer: Transfer) -> Reply:
        beats = self.timing.beats(xfer.total_bytes)
        cycles = CONTROLLER_LATENCY + self._row_cycles(xfer.address) + beats * BEAT_CYCLES
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

    def _stream_cycles(self, nbytes: int) -> int:
        cycles = self.timing.stream_cycles(nbytes)
        self.stats.transactions += max(1, -(-nbytes // BURST_BYTES))
        self.stats.beats += self.timing.beats(nbytes)
        self.stats.busy_cycles += cycles
        return cycles

    def stream_read(self, address: int, nbytes: int) -> tuple[bytes, int]:
        """Read a block, returning ``(data, cycles)`` with burst timing."""
        cycles = self._stream_cycles(nbytes)
        self.stats.bytes_read += nbytes
        return self.storage.read(address, nbytes), cycles

    def stream_write(self, address: int, data: bytes) -> int:
        """Write a block, returning its cycle cost with burst timing."""
        cycles = self._stream_cycles(len(data))
        self.stats.bytes_written += len(data)
        self.storage.write(address, data)
        return cycles
