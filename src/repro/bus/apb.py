"""APB protocol model.

APB is the low-cost register-access bus between the AHB→APB bridge and
the NVDLA CSB adapter.  Every APB transfer takes at least two cycles —
a SETUP phase and an ACCESS phase — plus any wait states the completer
inserts via PREADY.  APB does not support bursts; burst transfers are
sequenced as independent setup/access pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.types import AccessType, BusPort, Reply, Transfer


@dataclass
class ApbStats:
    transfers: int = 0


class ApbBus(BusPort):
    """An APB segment in front of a register-style completer."""

    SETUP_CYCLES = 1
    ACCESS_CYCLES = 1

    def __init__(self, downstream: BusPort) -> None:
        self._downstream = downstream
        self.stats = ApbStats()

    @property
    def downstream(self) -> BusPort:
        return self._downstream

    @classmethod
    def beat_cycles(cls, completer_cycles: int) -> int:
        """Cycles of one beat whose completer takes ``completer_cycles``.

        The completer's own cost beyond one ideal cycle shows up as
        PREADY wait states inside the ACCESS phase.
        """
        return cls.SETUP_CYCLES + cls.ACCESS_CYCLES + max(0, completer_cycles - 1)

    def transfer(self, xfer: Transfer) -> Reply:
        total_cycles = 0
        data = bytearray()
        for beat in range(xfer.burst_len):
            address = xfer.address + beat * xfer.size
            if xfer.access is AccessType.WRITE:
                # Transfer.__post_init__ rejects a write without a payload.
                payload = xfer.data[beat * xfer.size : (beat + 1) * xfer.size]
                beat_xfer = Transfer(
                    address=address,
                    size=xfer.size,
                    access=AccessType.WRITE,
                    data=payload,
                    master=xfer.master,
                )
            else:
                beat_xfer = Transfer(
                    address=address, size=xfer.size, access=AccessType.READ, master=xfer.master
                )
            reply = self._downstream.transfer(beat_xfer)
            total_cycles += self.beat_cycles(reply.cycles)
            data.extend(reply.data)
        self.stats.transfers += xfer.burst_len
        return Reply(data=bytes(data), cycles=total_cycles)
