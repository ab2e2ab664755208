"""A test double slave for the bus-layer tests."""

from __future__ import annotations

from repro.bus.types import AccessType, BusPort, Reply, Transfer
from repro.errors import AddressDecodeError


class LoopbackPort(BusPort):
    """A little-endian register array: one cycle per beat."""

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
