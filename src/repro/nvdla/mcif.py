"""MCIF — the memory-controller interface behind NVDLA's DBB port.

Every unit's DMA engine funnels through MCIF, which arbitrates access
to the single external DBB AXI port.  The model separates the two
concerns:

- **functional** — :meth:`Mcif.read`/:meth:`Mcif.write` move real
  bytes through the attached :class:`DbbPort` (the SoC wrapper's
  64→32-bit converter path, or the VP's direct memory),
- **timing** — :meth:`Mcif.stream_cycles` prices bulk traffic with
  the port's own price, derated by the constant
  :data:`DMA_EFFICIENCY`.  On the SoC the port is the wrapper's DBB
  port (:meth:`repro.core.nvdla_wrapper.WrapperDbbPort.stream_cycles`),
  whose price is the slower of the DRAM stream formula
  (:meth:`repro.mem.dram.DramTiming.stream_cycles`, over the
  :mod:`repro.mem.dram` constants) and the width converter's pacing;
  the VP's port has a simple ideal-memory price that only orders its
  trace.  The engine logs each op's DMA busy
  window here (:meth:`Mcif.record_window`), which the SoC arbiter
  reads to charge the µRISC-V core for contention.

The byte counters in :class:`McifStats` count functional traffic
(:meth:`Mcif.read`/:meth:`Mcif.write`) only: a timing-fidelity run
prices its streams but moves no bytes, so they stay at zero there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol


class DbbPort(Protocol):
    """What NVDLA needs from the external memory system."""

    def read(self, address: int, nbytes: int) -> bytes:
        """Functional block read."""
        ...

    def write(self, address: int, data: bytes) -> None:
        """Functional block write."""
        ...

    def stream_cycles(self, address: int, nbytes: int) -> int:
        """Cycle cost of streaming ``nbytes`` at ``address``."""
        ...


@dataclass
class McifStats:
    bytes_read: int = 0
    bytes_written: int = 0


@dataclass
class DmaWindow:
    """One DMA busy interval, for arbiter contention modelling."""

    start: int
    cycles: int

    @property
    def end(self) -> int:
        return self.start + self.cycles


#: Fraction of the memory port's burst throughput MCIF sustains.  Two
#: mechanisms cost the rest: request-queue bubbles (MCIF arbitrates
#: every unit's DMA client onto the one DBB port and issues a bounded
#: number of outstanding requests, ``CFG_RD_OUTSTANDING``, so the
#: queue drains between bursts) and read/write turnarounds (a layer
#: interleaves its read streams with its write-back on the same port,
#: and each direction change idles the bus).  One value serves the SoC
#: and the VP engine.
DMA_EFFICIENCY = 0.5


class Mcif:
    """MCIF model: functional forwarding plus DMA cycle pricing.

    ``port`` is the external memory port (SoC wrapper or VP memory).
    """

    def __init__(self, port: DbbPort) -> None:
        self.port = port
        self.stats = McifStats()
        self.windows: list[DmaWindow] = []

    # Functional ---------------------------------------------------------

    def read(self, address: int, nbytes: int) -> bytes:
        self.stats.bytes_read += nbytes
        return self.port.read(address, nbytes)

    def write(self, address: int, data: bytes) -> None:
        self.stats.bytes_written += len(data)
        self.port.write(address, data)

    # Timing -------------------------------------------------------------

    def stream_cycles(self, address: int, nbytes: int) -> int:
        """Price a bulk stream: the port's price over
        :data:`DMA_EFFICIENCY`."""
        if nbytes <= 0:
            return 0
        raw = self.port.stream_cycles(address, nbytes)
        return int(round(raw / DMA_EFFICIENCY))

    def record_window(self, start: int, cycles: int) -> None:
        """Log a busy interval on the DBB for arbiter contention."""
        self.windows.append(DmaWindow(start=start, cycles=cycles))

    def busy_during(self, cycle: int) -> bool:
        """Whether a DMA window covers ``cycle`` (linear scan of the
        recent tail; windows are appended in start order)."""
        for window in reversed(self.windows[-8:]):
            if window.start <= cycle < window.end:
                return True
        return False
