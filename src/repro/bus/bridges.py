"""Protocol bridges used by the NVDLA wrapper (paper Fig. 2).

Three bridges stitch the µRISC-V's AHB-Lite world to NVDLA:

- :class:`AhbToApbBridge` — the open-source ARM design the paper
  reuses; it resynchronises each AHB transfer into an APB setup/access
  pair.
- :class:`ApbToCsbAdapter` — shipped with the NVDLA package; turns APB
  reads/writes into CSB request/response cycles.
- :class:`AhbToAxiBridge` — lets the core reach the AXI data memory.

Each bridge is a :class:`~repro.bus.types.BusPort` wrapping another
port and adding its crossing latency, so fabric topology is expressed
by plain object composition.
"""

from __future__ import annotations

from repro.bus.types import BusPort, Reply, Transfer


class _LatencyBridge(BusPort):
    """Base for bridges that add a fixed per-transfer crossing cost."""

    CROSSING_CYCLES = 1

    def __init__(self, downstream: BusPort) -> None:
        self._downstream = downstream
        self.transfers = 0

    @property
    def downstream(self) -> BusPort:
        return self._downstream

    @classmethod
    def crossed(cls, downstream_cycles: int) -> int:
        """Cycles of a transfer whose far side takes ``downstream_cycles``."""
        return downstream_cycles + cls.CROSSING_CYCLES

    def transfer(self, xfer: Transfer) -> Reply:
        reply = self._downstream.transfer(xfer)
        self.transfers += 1
        return Reply(data=reply.data, cycles=self.crossed(reply.cycles), ok=reply.ok)


class AhbToApbBridge(_LatencyBridge):
    """AHB-Lite → APB bridge (ARM open-source design).

    The bridge registers the AHB address/data phases and replays them
    on APB, costing one cycle of resynchronisation on top of the APB
    transfer itself.
    """

    CROSSING_CYCLES = 1


class AhbToAxiBridge(_LatencyBridge):
    """AHB-Lite → AXI bridge for the core's data-memory path.

    Packs each AHB transfer into an AXI transaction; the extra cycle
    covers the AW/AR channel issue on the far side.
    """

    CROSSING_CYCLES = 1


class ApbToCsbAdapter(_LatencyBridge):
    """APB → CSB adapter from the NVDLA release.

    CSB is NVDLA's simple valid/ready request interface with a single
    outstanding transaction; the adapter holds PREADY low for one CSB
    round-trip cycle.
    """

    CROSSING_CYCLES = 1
