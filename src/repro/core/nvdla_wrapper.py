"""The custom NVDLA wrapper (paper §III, Fig. 2).

"The NVDLA wrapper encapsulates the accelerator hardware alongside
interface bridges and a data width converter to address mismatches
between the µRISC-V and NVDLA interfaces."

Two paths through the wrapper:

- **register path** — AHB-Lite (from the system bus) → AHB→APB bridge
  → APB → APB→CSB adapter → the engine's CSB port.  None of those hops
  holds state a single-beat access can observe, so the SoC's data port
  calls the engine directly and charges
  :data:`REGISTER_PATH_CYCLES`, the latency the hops compose to;
  :class:`CsbPort` is the CSB end of the hop-by-hop model,
- **data path** — the engine's 64-bit DBB → AXI 64→32 width converter
  → the DRAM arbiter.  DMA is priced ``Mcif.stream_cycles`` →
  :meth:`WrapperDbbPort.stream_cycles` → ``DramTiming.stream_cycles``.

NVDLA descriptors use absolute bus addresses while the arbiter/DRAM
pair is zero-based, so the DBB port rebases every access with
:func:`~repro.core.address_map.dram_offset`, the one rebase the fast
tier and the SoC's preload share.
"""

from __future__ import annotations

from repro.bus.apb import ApbBus
from repro.bus.bridges import AhbToApbBridge, ApbToCsbAdapter
from repro.bus.types import AccessType, BusPort, Reply, Transfer
from repro.bus.width_converter import AxiWidthConverter
from repro.clock import Clock
from repro.core.address_map import dram_offset
from repro.core.arbiter import DramArbiter
from repro.errors import BusError
from repro.nvdla.config import HardwareConfig
from repro.nvdla.engine import NvdlaEngine

CSB_WIDTH_ERROR = "CSB supports single 32-bit accesses only"


class CsbPort(BusPort):
    """Bus-port adapter over the engine's CSB interface."""

    CSB_CYCLES = 2  # request + response on the single-outstanding CSB

    def __init__(self, engine: NvdlaEngine) -> None:
        self._engine = engine

    def transfer(self, xfer: Transfer) -> Reply:
        if xfer.size != 4 or xfer.burst_len != 1:
            raise BusError(CSB_WIDTH_ERROR, xfer.address)
        engine = self._engine
        if xfer.access is AccessType.WRITE:
            # Transfer.__post_init__ rejects a write without a payload.
            engine.csb_write(xfer.address, int.from_bytes(xfer.data, "little"))
            return Reply(cycles=self.CSB_CYCLES)
        value = engine.csb_read(xfer.address)
        return Reply(data=value.to_bytes(4, "little"), cycles=self.CSB_CYCLES)


#: Cycles one register access holds the wrapper's AHB side: the
#: AHB→APB crossing, then one APB setup/access pair whose ACCESS phase
#: waits out the APB→CSB adapter and the CSB round trip.
REGISTER_PATH_CYCLES = AhbToApbBridge.crossed(
    ApbBus.beat_cycles(ApbToCsbAdapter.crossed(CsbPort.CSB_CYCLES))
)


class WrapperDbbPort:
    """The engine-facing memory port: converter + arbiter + rebase."""

    def __init__(self, arbiter: DramArbiter, converter: AxiWidthConverter) -> None:
        self._arbiter = arbiter
        self._converter = converter

    def read(self, address: int, nbytes: int) -> bytes:
        data, _ = self._arbiter.stream_read(dram_offset(address), nbytes)
        return data

    def write(self, address: int, data: bytes) -> None:
        self._arbiter.stream_write(dram_offset(address), data)

    def stream_cycles(self, address: int, nbytes: int) -> int:
        """DMA pacing: the slower of the DRAM's stream price and the
        width-converter's narrow side.  The address is only checked
        (below the DRAM window is a bus error): the price does not
        depend on it."""
        dram_offset(address)
        dram_cycles = self._arbiter.dram.timing.stream_cycles(nbytes)
        return max(dram_cycles, self._converter.stream_cycles(nbytes))


class NvdlaWrapper:
    """NVDLA engine plus its interface bridges.

    Owns the DBB path into the arbiter; the register path is priced by
    :data:`REGISTER_PATH_CYCLES` (see the module docstring).
    """

    def __init__(
        self,
        config: HardwareConfig,
        arbiter: DramArbiter,
        clock: Clock,
        fidelity: str = "functional",
        memory_bus_width_bits: int = 32,
    ) -> None:
        self.config = config
        self.width_converter = AxiWidthConverter(
            downstream=arbiter,
            master_width_bits=config.dbb_width_bits,
            slave_width_bits=memory_bus_width_bits,
        )
        self.dbb_port = WrapperDbbPort(arbiter, self.width_converter)
        self.engine = NvdlaEngine(
            config,
            dbb=self.dbb_port,
            clock=clock,
            fidelity=fidelity,
        )
        arbiter.attach_contention_source(self.engine.mcif, clock)

    @property
    def irq_asserted(self) -> bool:
        return self.engine.irq_asserted

    def describe(self) -> str:
        return (
            f"NVDLA wrapper: {self.config.describe()}; "
            f"DBB {self.config.dbb_width_bits}-bit → "
            f"{self.width_converter.slave_width_bits}-bit memory"
        )
