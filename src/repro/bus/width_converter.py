"""AXI data-width converter.

NVDLA's data backbone (DBB) is 64 bits wide in the paper's SoC while
the shared data memory is 32 bits wide, so every DBB beat is split into
two beats on the memory side.  This halves the effective streaming
bandwidth of the accelerator — one of the first-order terms in the
nv_small inference latencies of Table II — and is the parameter the
paper's conclusion proposes widening (64 → 512 bits) to support
nv_full.

The converter is symmetric: it can also pack narrow-side beats into
wide-side beats when the master is narrower than the slave.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.types import BusPort, Reply, Transfer


@dataclass
class WidthConverterStats:
    transactions: int = 0
    master_beats: int = 0
    slave_beats: int = 0
    cycles: int = 0


class AxiWidthConverter(BusPort):
    """Converts between a master-side and a slave-side AXI width.

    Parameters
    ----------
    downstream:
        The slave-side port (e.g. the DRAM arbiter).
    master_width_bits / slave_width_bits:
        Data widths of the two sides; both must be powers of two
        multiples of a byte.  They are the converter's only parameters:
        Table III and the width ablation sweep them.

    Every transaction also pays :attr:`PACKING_LATENCY`, the fixed
    cycles to fill/drain the internal packing register.
    """

    PACKING_LATENCY = 1

    def __init__(
        self,
        downstream: BusPort,
        master_width_bits: int = 64,
        slave_width_bits: int = 32,
    ) -> None:
        for width in (master_width_bits, slave_width_bits):
            if width < 8 or width % 8 != 0:
                raise ValueError(f"invalid AXI width {width}")
        self._downstream = downstream
        self.master_width_bits = master_width_bits
        self.slave_width_bits = slave_width_bits
        self._master_bytes = master_width_bits // 8
        self._slave_bytes = slave_width_bits // 8
        self.stats = WidthConverterStats()

    @property
    def downstream(self) -> BusPort:
        return self._downstream

    @property
    def ratio(self) -> float:
        """Slave beats generated per master beat (may be fractional)."""
        return self._master_bytes / self._slave_bytes

    def transfer(self, xfer: Transfer) -> Reply:
        master_beats = max(1, -(-xfer.total_bytes // self._master_bytes))
        slave_beats = max(1, -(-xfer.total_bytes // self._slave_bytes))
        reply = self._downstream.transfer(xfer)
        # The slave side paces the transaction whenever it needs more
        # beats than the master side supplied (the down-conversion case
        # in the paper: 64-bit DBB feeding a 32-bit memory).
        pacing_beats = max(master_beats, slave_beats)
        local_cycles = self.PACKING_LATENCY + pacing_beats
        total = max(local_cycles, reply.cycles + self.PACKING_LATENCY)
        self.stats.transactions += 1
        self.stats.master_beats += master_beats
        self.stats.slave_beats += slave_beats
        self.stats.cycles += total
        return Reply(data=reply.data, cycles=total, ok=reply.ok)

    def stream_cycles(self, nbytes: int) -> int:
        """Pacing cost of ``nbytes`` of bulk traffic through the converter."""
        wide = -(-nbytes // self._master_bytes)
        narrow = -(-nbytes // self._slave_bytes)
        return self.PACKING_LATENCY + max(wide, narrow)
