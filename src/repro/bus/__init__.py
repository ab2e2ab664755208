"""Transaction-level models of the SoC bus fabric.

The paper's SoC (Fig. 2) mixes three on-chip protocols:

- **AHB-Lite** — the Codasip µRISC-V master interface,
- **APB** — the register path into NVDLA's configuration space bus
  (CSB), through an AHB→APB bridge and the APB→CSB adapter shipped
  with NVDLA,
- **AXI** — the data path: NVDLA's 64-bit DBB interface, a 64→32-bit
  data-width converter, and the AHB→AXI bridge in front of the shared
  data memory.

AHB, APB and the bridges charge a per-transfer cycle cost that
reflects their handshake (AHB pipelining, APB setup+access phases, one
crossing cycle per bridge), which prices register programming over
CSB.  On the AXI side only the width converter and the interconnects
are modelled: NVDLA's bulk DMA streams are priced, not simulated beat
by beat, by the wrapper's DBB port
(:class:`repro.core.nvdla_wrapper.WrapperDbbPort`) as the slower of
the DRAM's stream formula
(:meth:`repro.mem.dram.DramTiming.stream_cycles`) and the converter's
narrow-side pacing (:meth:`AxiWidthConverter.stream_cycles`).
"""

from repro.bus.types import AccessType, BusPort, Reply, Transfer
from repro.bus.ahb import AhbLiteBus
from repro.bus.apb import ApbBus
from repro.bus.bridges import AhbToApbBridge, AhbToAxiBridge, ApbToCsbAdapter
from repro.bus.width_converter import AxiWidthConverter
from repro.bus.interconnect import AddressDecoder, AxiInterconnect, AxiSmartConnect, Region

__all__ = [
    "AccessType",
    "AddressDecoder",
    "AhbLiteBus",
    "AhbToApbBridge",
    "AhbToAxiBridge",
    "ApbBus",
    "ApbToCsbAdapter",
    "AxiInterconnect",
    "AxiSmartConnect",
    "AxiWidthConverter",
    "BusPort",
    "Region",
    "Reply",
    "Transfer",
]
