"""Address decoding and AXI interconnect components.

:class:`AddressDecoder` is the system-bus decoder of the paper's SoC:
it assigns disjoint address windows to the NVDLA configuration space
(``0x0 -- 0xFFFFF``) and the DRAM data memory (``0x100000 --
0x200FFFFF``) and routes each transfer to the owning slave, rebased
into the slave's local space.  Decoding is combinational: it adds no
cycles.

:class:`AxiSmartConnect` models the Vivado SmartConnect of the test
setup (paper Fig. 4), which "functions as a multiplexer" between the
Zynq PS (during preload) and the SoC (during inference).
:class:`AxiInterconnect` models the clock-domain-crossing interconnect
between the 300 MHz PS-side AXI and the 100 MHz MIG DDR4 controller.
Every latency and clock here is a class constant of the one published
composition; nothing sets them per instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.types import BusPort, Reply, Transfer
from repro.errors import AddressDecodeError, BusError


@dataclass(frozen=True)
class Region:
    """One decoder window: ``[base, limit]`` inclusive, like Vivado maps."""

    name: str
    base: int
    limit: int
    port: BusPort

    def __post_init__(self) -> None:
        if self.limit < self.base:
            raise BusError(f"region {self.name!r}: limit below base")

    def contains(self, address: int) -> bool:
        return self.base <= address <= self.limit

    @property
    def size(self) -> int:
        return self.limit - self.base + 1


class AddressDecoder(BusPort):
    """Routes transfers to slave regions by address.

    Overlapping regions are rejected at construction time; transfers
    that straddle a region boundary are rejected at run time, matching
    the behaviour of a real bus decoder (a burst must stay inside one
    slave's window).
    """

    def __init__(self, regions: list[Region]) -> None:
        ordered = sorted(regions, key=lambda r: r.base)
        for left, right in zip(ordered, ordered[1:]):
            if right.base <= left.limit:
                raise BusError(f"regions {left.name!r} and {right.name!r} overlap")
        self._regions = ordered
        self.routed: dict[str, int] = {r.name: 0 for r in ordered}

    @property
    def regions(self) -> list[Region]:
        return list(self._regions)

    def region_for(self, address: int) -> Region:
        for region in self._regions:
            if region.contains(address):
                return region
        raise AddressDecodeError(f"no slave mapped at 0x{address:08x}", address)

    def transfer(self, xfer: Transfer) -> Reply:
        region = self.region_for(xfer.address)
        if not region.contains(xfer.end_address - 1):
            raise AddressDecodeError(
                f"burst 0x{xfer.address:08x}+{xfer.total_bytes} crosses out of region {region.name!r}",
                xfer.address,
            )
        routed = Transfer(
            address=xfer.address - region.base,
            size=xfer.size,
            access=xfer.access,
            data=xfer.data,
            burst_len=xfer.burst_len,
            master=xfer.master,
        )
        reply = region.port.transfer(routed)
        self.routed[region.name] += 1
        return reply


class AxiSmartConnect(BusPort):
    """Two-upstream multiplexer in front of the DDR4 controller.

    Exactly one of :attr:`OWNERS` owns the memory at a time, the Zynq
    first; the owner is switched by :meth:`select`.  Transfers from the
    non-selected master raise, reproducing the exclusive-access design
    of the paper's test setup.
    """

    CROSSING_CYCLES = 1
    OWNERS = ("zynq", "soc")

    def __init__(self, downstream: BusPort) -> None:
        self._downstream = downstream
        self._selected = self.OWNERS[0]
        self.switches = 0

    @property
    def selected(self) -> str:
        return self._selected

    def select(self, owner: str) -> None:
        if owner not in self.OWNERS:
            raise BusError(f"unknown SmartConnect upstream {owner!r}")
        if owner != self._selected:
            self._selected = owner
            self.switches += 1

    def transfer(self, xfer: Transfer) -> Reply:
        if xfer.master != self._selected:
            raise BusError(
                f"SmartConnect: master {xfer.master!r} is not selected (owner is {self._selected!r})"
            )
        reply = self._downstream.transfer(xfer)
        return Reply(data=reply.data, cycles=reply.cycles + self.CROSSING_CYCLES, ok=reply.ok)


class AxiInterconnect(BusPort):
    """Clock-domain-crossing interconnect (PS-side 300 MHz ↔ MIG 100 MHz).

    Cycle costs reported by the downstream (measured in slow-side
    cycles) are scaled by :attr:`RATIO` into fast-side cycles, plus
    :attr:`SYNC_CYCLES` of synchroniser penalty per transaction.
    """

    FAST_HZ = 300e6
    SLOW_HZ = 100e6
    RATIO = FAST_HZ / SLOW_HZ
    SYNC_CYCLES = 2

    def __init__(self, downstream: BusPort) -> None:
        self._downstream = downstream

    def transfer(self, xfer: Transfer) -> Reply:
        reply = self._downstream.transfer(xfer)
        fast_cycles = int(round(reply.cycles * self.RATIO)) + self.SYNC_CYCLES
        return Reply(data=reply.data, cycles=fast_cycles, ok=reply.ok)
