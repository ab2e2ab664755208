"""The full ZCU102 test setup (paper Fig. 4).

Around the SoC proper, the bring-up system adds:

- the **Zynq UltraScale+ PS** — initialises the DDR4 and preloads the
  weight and image ``.bin`` files before releasing the SoC,
- an **AXI SmartConnect** — "functions as a multiplexer": at any time
  the DRAM belongs either to the Zynq (preload phase) or to the SoC
  (inference phase),
- an **AXI Interconnect** — reconciles the clock-domain mismatch
  between the PS-side AXI (300 MHz) and the MIG DDR4 user interface
  (100 MHz),
- the **MIG DDR4 controller** — the :class:`~repro.mem.dram.Dram`
  model inside the SoC, reached at bus addresses rebased by
  :func:`~repro.core.address_map.dram_offset`.

The setup is one fixed composition: its clocks and crossing latencies
are the constants of :class:`~repro.bus.interconnect.AxiInterconnect`
and :class:`~repro.bus.interconnect.AxiSmartConnect`, and the Zynq runs
on the interconnect's fast side.  `run_experiment` reproduces the
published procedure: preload via the Zynq path (timed), flip the
SmartConnect to the SoC, run inference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baremetal.pipeline import BaremetalBundle
from repro.bus.interconnect import AxiInterconnect, AxiSmartConnect
from repro.bus.types import AccessType, Transfer
from repro.core.address_map import dram_offset
from repro.core.soc import Soc, SocRunResult


@dataclass
class PreloadResult:
    """Timing of the Zynq preload phase."""

    bytes_loaded: int
    zynq_cycles: int
    seconds: float


class ZynqPreloader:
    """The PS-side master that initialises DRAM through SmartConnect."""

    def __init__(self, smartconnect: AxiSmartConnect) -> None:
        self.smartconnect = smartconnect

    def preload(self, images: list[tuple[int, bytes]]) -> PreloadResult:
        """Write (address, data) images through the Zynq path."""
        self.smartconnect.select("zynq")
        total_cycles = 0
        total_bytes = 0
        for address, data in images:
            # 4 KiB AXI bursts, like the PS DMA configuration.
            offset = 0
            while offset < len(data):
                chunk = bytes(data[offset : offset + 4096])
                aligned = len(chunk) - len(chunk) % 4
                if aligned:
                    xfer = Transfer(
                        address=address + offset,
                        size=4,
                        access=AccessType.WRITE,
                        data=chunk[:aligned],
                        burst_len=aligned // 4,
                        master="zynq",
                    )
                    total_cycles += self.smartconnect.transfer(xfer).cycles
                for i, byte in enumerate(chunk[aligned:]):
                    xfer = Transfer(
                        address=address + offset + aligned + i,
                        size=1,
                        access=AccessType.WRITE,
                        data=bytes([byte]),
                        master="zynq",
                    )
                    total_cycles += self.smartconnect.transfer(xfer).cycles
                offset += len(chunk)
            total_bytes += len(data)
        return PreloadResult(
            bytes_loaded=total_bytes,
            zynq_cycles=total_cycles,
            seconds=total_cycles / AxiInterconnect.FAST_HZ,
        )


class _RebasedDramPort:
    """Zynq-side view of the SoC DRAM (bus addresses → DRAM-local)."""

    def __init__(self, soc: Soc) -> None:
        self._soc = soc

    def transfer(self, xfer: Transfer):
        rebased = Transfer(
            address=dram_offset(xfer.address),
            size=xfer.size,
            access=xfer.access,
            data=xfer.data,
            burst_len=xfer.burst_len,
            master=xfer.master,
        )
        return self._soc.dram.transfer(rebased)


class TestSystem:
    """The complete Fig. 4 block design."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, soc: Soc) -> None:
        self.soc = soc
        # Zynq → SmartConnect → AXI Interconnect (CDC) → MIG DDR4.
        self.axi_interconnect = AxiInterconnect(_RebasedDramPort(soc))
        self.smartconnect = AxiSmartConnect(self.axi_interconnect)
        self.zynq = ZynqPreloader(self.smartconnect)
        self.preload_result: PreloadResult | None = None

    def run_experiment(self, bundle: BaremetalBundle) -> SocRunResult:
        """Preload via the Zynq, hand DRAM to the SoC, run inference.

        Reusable: each experiment starts from SoC power-on state (the
        serving layer and sweeps run many bundles through one system),
        then replays the published procedure — Zynq preload, flip the
        SmartConnect, release the CPU.
        """
        self.soc.reset_for_run(scrub_dram=True)
        images = [(img.load_address, img.data) for img in bundle.images.preload]
        self.preload_result = self.zynq.preload(images)
        self.smartconnect.select("soc")
        self.soc.load_program(bundle.program)
        return self.soc.run_inference(bundle)

    def describe(self) -> str:
        if self.preload_result is None:
            preload = "not yet preloaded"
        else:
            preload = (
                f"preloaded {self.preload_result.bytes_loaded / 1024:.1f} KiB in "
                f"{self.preload_result.seconds * 1e3:.2f} ms"
            )
        return (
            "ZCU102 test system: Zynq PS (300 MHz) → SmartConnect → "
            "AXI Interconnect (300/100 MHz CDC) → MIG DDR4; " + preload
        )

