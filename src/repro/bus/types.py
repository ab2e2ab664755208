"""Core transaction types shared by every bus protocol model.

A :class:`Transfer` is one bus transaction: a single beat or an
incrementing burst.  A :class:`Reply` carries read data plus the number
of cycles the transaction occupied the initiating port, which masters
use to advance the simulation clock.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

from repro.errors import AlignmentError, BusError

_VALID_BEAT_SIZES = (1, 2, 4, 8)


def check_beat(address: int, size: int, sizes: tuple[int, ...] = _VALID_BEAT_SIZES) -> None:
    """Reject a beat size outside ``sizes`` or an address it does not divide."""
    if size not in sizes:
        raise BusError(f"unsupported beat size {size}", address)
    if address % size != 0:
        raise AlignmentError(
            f"address 0x{address:08x} not aligned to {size}-byte beat", address
        )


class AccessType(Enum):
    """Direction of a bus transfer."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Transfer:
    """A single bus transaction (one beat, or an incrementing burst).

    Attributes
    ----------
    address:
        Byte address of the first beat.
    size:
        Bytes per beat (1, 2, 4 or 8); must divide the address.
    access:
        Read or write.
    data:
        Payload for writes, ``len(data) == size * burst_len``.
    burst_len:
        Number of beats; addresses increment by ``size``.
    master:
        Initiator name, used by arbiters and tracing.
    """

    address: int
    size: int = 4
    access: AccessType = AccessType.READ
    data: bytes | None = None
    burst_len: int = 1
    master: str = "cpu"

    def __post_init__(self) -> None:
        check_beat(self.address, self.size)
        if self.burst_len < 1:
            raise BusError("burst_len must be at least 1", self.address)
        if self.access is AccessType.WRITE:
            if self.data is None or len(self.data) != self.size * self.burst_len:
                got = None if self.data is None else len(self.data)
                raise BusError(
                    f"write payload must be size*burst_len={self.size * self.burst_len} bytes, got {got}",
                    self.address,
                )
        elif self.data is not None:
            raise BusError("read transfers must not carry data", self.address)

    @property
    def total_bytes(self) -> int:
        """Total payload bytes across all beats."""
        return self.size * self.burst_len

    @property
    def end_address(self) -> int:
        """One past the last byte touched by the burst."""
        return self.address + self.total_bytes


@dataclass
class Reply:
    """Result of a transfer: read data and cycle cost.

    ``cycles`` is the number of clock cycles the transaction held the
    initiating port, including every protocol hop downstream.
    """

    data: bytes = b""
    cycles: int = 1
    ok: bool = True

    def value(self) -> int:
        """Interpret the read data as a little-endian unsigned integer."""
        return int.from_bytes(self.data, "little")


class BusPort(ABC):
    """Anything that can accept bus transfers.

    Protocol models, bridges, decoders, peripherals and memories all
    implement this single-method interface, which makes the fabric
    freely composable: a bridge is a port that wraps another port.
    """

    @abstractmethod
    def transfer(self, xfer: Transfer) -> Reply:
        """Execute ``xfer`` and return data plus cycle cost."""

    def read(self, address: int, size: int = 4, master: str = "cpu") -> Reply:
        """Convenience single-beat read."""
        return self.transfer(Transfer(address=address, size=size, access=AccessType.READ, master=master))

    def write(self, address: int, value: int, size: int = 4, master: str = "cpu") -> Reply:
        """Convenience single-beat write of an unsigned integer."""
        data = int(value).to_bytes(size, "little")
        return self.transfer(
            Transfer(address=address, size=size, access=AccessType.WRITE, data=data, master=master)
        )

    def read_block(self, address: int, nbytes: int, master: str = "dma", beat: int = 4) -> Reply:
        """Burst-read ``nbytes`` starting at ``address``.

        The block is split into maximal aligned bursts of ``beat``-byte
        beats; replies are concatenated and cycle costs summed.
        """
        chunks: list[bytes] = []
        cycles = 0
        remaining = nbytes
        addr = address
        while remaining > 0:
            size = beat if addr % beat == 0 and remaining >= beat else 1
            beats = max(1, remaining // size) if size == beat else 1
            xfer = Transfer(address=addr, size=size, access=AccessType.READ, burst_len=beats, master=master)
            reply = self.transfer(xfer)
            chunks.append(reply.data)
            cycles += reply.cycles
            addr += xfer.total_bytes
            remaining -= xfer.total_bytes
        return Reply(data=b"".join(chunks), cycles=cycles)

    def write_block(self, address: int, data: bytes, master: str = "dma", beat: int = 4) -> Reply:
        """Burst-write ``data`` starting at ``address``."""
        cycles = 0
        addr = address
        view = memoryview(data)
        while view:
            size = beat if addr % beat == 0 and len(view) >= beat else 1
            beats = max(1, len(view) // size) if size == beat else 1
            payload = bytes(view[: size * beats])
            xfer = Transfer(
                address=addr,
                size=size,
                access=AccessType.WRITE,
                data=payload,
                burst_len=beats,
                master=master,
            )
            reply = self.transfer(xfer)
            cycles += reply.cycles
            addr += xfer.total_bytes
            view = view[xfer.total_bytes :]
        return Reply(cycles=cycles)
