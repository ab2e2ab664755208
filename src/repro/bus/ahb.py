"""AHB-Lite protocol model.

The µRISC-V core talks AHB-Lite to both program memory and the system
bus.  AHB-Lite pipelines the address and data phases, so back-to-back
transfers cost one cycle each plus any wait states inserted by the
downstream slave; the very first transfer of a sequence additionally
pays the address phase.

This transaction-level model charges, per transaction:

``cycles = ADDRESS_PHASE_CYCLES + split * downstream_cycles``

where ``downstream_cycles`` is what the wrapped port reports and
``split`` is the number of :data:`DATA_WIDTH_BITS`-wide beats a wider
beat is sequenced as.  That reproduces AHB's defining property —
pipelined single-cycle transfers into zero-wait-state slaves — without
simulating the HTRANS/HREADY signal pair.  Both are constants of the
µRISC-V's 32-bit AHB-Lite port, the only AHB master in the SoC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bus.types import BusPort, Reply, Transfer


@dataclass
class AhbStats:
    """Cumulative traffic counters for one AHB segment."""

    bytes: int = 0
    by_master: dict[str, int] = field(default_factory=dict)


class AhbLiteBus(BusPort):
    """An AHB-Lite segment in front of ``downstream`` (a slave or decoder)."""

    #: The (non-overlapped) address phase that starts every transaction.
    ADDRESS_PHASE_CYCLES = 1
    #: Width of the data phase; beats wider than the bus are split.
    DATA_WIDTH_BITS = 32

    def __init__(self, downstream: BusPort) -> None:
        self._downstream = downstream
        self.stats = AhbStats()

    @property
    def downstream(self) -> BusPort:
        return self._downstream

    def transfer(self, xfer: Transfer) -> Reply:
        # Beats wider than the physical bus are sequenced as multiple
        # bus-width beats (matching an AHB master's narrow-bus behaviour).
        split = max(1, -(-xfer.size // (self.DATA_WIDTH_BITS // 8)))
        reply = self._downstream.transfer(xfer)
        data_cycles = reply.cycles * split
        total = self.ADDRESS_PHASE_CYCLES + data_cycles
        self.stats.bytes += xfer.total_bytes
        self.stats.by_master[xfer.master] = self.stats.by_master.get(xfer.master, 0) + 1
        return Reply(data=reply.data, cycles=total, ok=reply.ok)
