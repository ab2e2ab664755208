"""AHB-Lite protocol model.

The µRISC-V core talks AHB-Lite to both program memory and the system
bus.  AHB-Lite pipelines the address and data phases, so back-to-back
transfers cost one cycle each plus any wait states inserted by the
downstream slave; the very first transfer of a sequence additionally
pays the address phase.

This transaction-level model charges:

``cycles = address_phase (1) + burst_len * (1 + downstream_extra)``

where ``downstream_extra`` is whatever the wrapped port reports beyond
its own ideal single-cycle data phase.  That reproduces AHB's defining
property — pipelined single-cycle transfers into zero-wait-state
slaves — without simulating the HTRANS/HREADY signal pair.
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
    """An AHB-Lite segment in front of a downstream port.

    Parameters
    ----------
    downstream:
        The slave (or decoder) reached through this segment.
    address_phase_cycles:
        Cost of the (non-overlapped) address phase that starts every
        transaction; :attr:`ADDRESS_PHASE_CYCLES` for a standard
        AHB-Lite master.
    data_width_bits:
        Width of the data phase; beats wider than the bus are split.
    """

    ADDRESS_PHASE_CYCLES = 1

    def __init__(
        self,
        downstream: BusPort,
        address_phase_cycles: int = ADDRESS_PHASE_CYCLES,
        data_width_bits: int = 32,
    ) -> None:
        if data_width_bits % 8 != 0:
            raise ValueError("data width must be a whole number of bytes")
        self._downstream = downstream
        self._address_phase = address_phase_cycles
        self._width_bytes = data_width_bits // 8
        self.stats = AhbStats()

    @property
    def downstream(self) -> BusPort:
        return self._downstream

    def transfer(self, xfer: Transfer) -> Reply:
        # Beats wider than the physical bus are sequenced as multiple
        # bus-width beats (matching an AHB master's narrow-bus behaviour).
        split = max(1, -(-xfer.size // self._width_bytes))
        reply = self._downstream.transfer(xfer)
        data_cycles = reply.cycles * split
        total = self._address_phase + data_cycles
        self.stats.bytes += xfer.total_bytes
        self.stats.by_master[xfer.master] = self.stats.by_master.get(xfer.master, 0) + 1
        return Reply(data=reply.data, cycles=total, ok=reply.ok)
