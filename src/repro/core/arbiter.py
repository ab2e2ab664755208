"""The DRAM arbiter (paper §IV-A2).

"The arbiter component coordinates DRAM access between the NVDLA (via
its DBB interface) and the RISC-V processor (via its AHB interface),
ensuring mutual exclusion and efficient memory utilization."

Model: CPU-side transfers pay :data:`GRANT_PENALTY` cycles whenever an
NVDLA DMA window is active at that simulation instant (the accelerator
holds the bank); NVDLA streams pay a small fixed arbitration cost per
burst (folded into :data:`repro.nvdla.mcif.DMA_EFFICIENCY`).  Mutual
exclusion is exact in function — both masters address the same
backing store through one port — and first-order in timing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.types import BusPort, Reply, Transfer
from repro.clock import Clock
from repro.mem.dram import Dram
from repro.nvdla.mcif import Mcif

#: Cycles a CPU transfer waits for the grant while an NVDLA DMA window
#: holds the DRAM.
GRANT_PENALTY = 4


@dataclass
class ArbiterStats:
    cpu_grants: int = 0
    nvdla_streams: int = 0
    cpu_stall_cycles: int = 0
    contended_grants: int = 0


class DramArbiter(BusPort):
    """Two-master front end over the DRAM."""

    def __init__(self, dram: Dram) -> None:
        self.dram = dram
        self.stats = ArbiterStats()
        self._clock: Clock | None = None
        self._mcif: Mcif | None = None

    def attach_contention_source(self, mcif: Mcif, clock: Clock) -> None:
        """Wire in the NVDLA's DMA-window log for contention checks."""
        self._mcif = mcif
        self._clock = clock

    # ------------------------------------------------------------------
    # CPU-side port (through the AHB→AXI bridge).
    # ------------------------------------------------------------------

    def transfer(self, xfer: Transfer) -> Reply:
        reply = self.dram.transfer(xfer)
        cycles = reply.cycles
        self.stats.cpu_grants += 1
        if self._busy_now():
            cycles += GRANT_PENALTY
            self.stats.contended_grants += 1
            self.stats.cpu_stall_cycles += GRANT_PENALTY
        return Reply(data=reply.data, cycles=cycles, ok=reply.ok)

    def _busy_now(self) -> bool:
        if self._mcif is None or self._clock is None:
            return False
        return self._mcif.busy_during(self._clock.now)

    # ------------------------------------------------------------------
    # NVDLA-side bulk port (behind the width converter).
    # ------------------------------------------------------------------

    def stream_read(self, address: int, nbytes: int) -> tuple[bytes, int]:
        self.stats.nvdla_streams += 1
        return self.dram.stream_read(address, nbytes)

    def stream_write(self, address: int, data: bytes) -> int:
        self.stats.nvdla_streams += 1
        return self.dram.stream_write(address, data)
