"""Address decoding and AXI interconnect components.

:class:`AddressDecoder` is the system-bus decoder of the paper's SoC:
it assigns disjoint address windows to the NVDLA configuration space
(``0x0 -- 0xFFFFF``) and the DRAM data memory (``0x100000 --
0x200FFFFF``) and routes each transfer to the owning slave, optionally
rebasing the address into the slave's local space.

:class:`AxiSmartConnect` models the Vivado SmartConnect of the test
setup (paper Fig. 4), which "functions as a multiplexer" between the
Zynq PS (during preload) and the SoC (during inference).
:class:`AxiInterconnect` models the clock-domain-crossing interconnect
between the 300 MHz SoC and the 100 MHz MIG DDR4 controller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.types import AccessType, BusPort, Reply, Transfer
from repro.errors import AddressDecodeError, BusError


@dataclass(frozen=True)
class Region:
    """One decoder window: ``[base, limit]`` inclusive, like Vivado maps."""

    name: str
    base: int
    limit: int
    port: BusPort
    rebase: bool = True

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

    def __init__(self, regions: list[Region], decode_cycles: int = 0) -> None:
        ordered = sorted(regions, key=lambda r: r.base)
        for left, right in zip(ordered, ordered[1:]):
            if right.base <= left.limit:
                raise BusError(f"regions {left.name!r} and {right.name!r} overlap")
        self._regions = ordered
        self._decode_cycles = decode_cycles
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
        address = xfer.address - region.base if region.rebase else xfer.address
        routed = Transfer(
            address=address,
            size=xfer.size,
            access=xfer.access,
            data=xfer.data,
            burst_len=xfer.burst_len,
            master=xfer.master,
        )
        reply = region.port.transfer(routed)
        self.routed[region.name] += 1
        return Reply(data=reply.data, cycles=reply.cycles + self._decode_cycles, ok=reply.ok)


class AxiSmartConnect(BusPort):
    """Two-upstream multiplexer in front of the DDR4 controller.

    Exactly one upstream (``"zynq"`` or ``"soc"``) owns the memory at a
    time; the owner is switched by :meth:`select`.  Transfers from the
    non-selected master raise, reproducing the exclusive-access design
    of the paper's test setup.
    """

    CROSSING_CYCLES = 1

    def __init__(self, downstream: BusPort, owners: tuple[str, str] = ("zynq", "soc")) -> None:
        self._downstream = downstream
        self._owners = owners
        self._selected = owners[0]
        self.switches = 0

    @property
    def selected(self) -> str:
        return self._selected

    def select(self, owner: str) -> None:
        if owner not in self._owners:
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
    """Clock-domain-crossing interconnect (SoC 300 MHz ↔ MIG 100 MHz).

    Cycle costs reported by the downstream (measured in slow-side
    cycles) are scaled by the clock ratio into fast-side cycles, plus a
    fixed synchroniser penalty per transaction.
    """

    def __init__(self, downstream: BusPort, fast_hz: float = 300e6, slow_hz: float = 100e6, sync_cycles: int = 2) -> None:
        if fast_hz <= 0 or slow_hz <= 0:
            raise ValueError("clock frequencies must be positive")
        self._downstream = downstream
        self.fast_hz = fast_hz
        self.slow_hz = slow_hz
        self._ratio = fast_hz / slow_hz
        self._sync_cycles = sync_cycles

    @property
    def ratio(self) -> float:
        return self._ratio

    def transfer(self, xfer: Transfer) -> Reply:
        reply = self._downstream.transfer(xfer)
        fast_cycles = int(round(reply.cycles * self._ratio)) + self._sync_cycles
        return Reply(data=reply.data, cycles=fast_cycles, ok=reply.ok)


class LoopbackPort(BusPort):
    """Minimal test double: a little-endian register array.

    Kept in the library (rather than the test tree) because examples
    and diagnostics also use it as a stand-in slave.
    """

    def __init__(self, nbytes: int = 4096) -> None:
        self._store = bytearray(nbytes)

    def transfer(self, xfer: Transfer) -> Reply:
        end = xfer.end_address
        if end > len(self._store):
            raise AddressDecodeError(f"loopback access beyond 0x{len(self._store):x}", xfer.address)
        cycles = max(1, xfer.burst_len)  # ideal slave: one cycle per beat
        if xfer.access is AccessType.WRITE:
            # Transfer.__post_init__ rejects a write without a payload.
            self._store[xfer.address : end] = xfer.data
            return Reply(cycles=cycles)
        return Reply(data=bytes(self._store[xfer.address : end]), cycles=cycles)
