"""Block-RAM program memory.

The bare-metal machine code is held in FPGA block RAM (Table I row
"Program Memory": 232 BRAM tiles) and read by the µRISC-V core over
AHB-Lite with single-cycle access.  The core decodes its program at
load, so this model is the reference its fetch price
(:data:`repro.riscv.cpu.FETCH_CYCLES`) is checked against; the
``.mem`` initialisation files of the paper's flow are
:meth:`repro.riscv.program.Program.to_mem_file` /
:meth:`~repro.riscv.program.Program.from_mem_file`.
"""

from __future__ import annotations

from repro.bus.types import AccessType, BusPort, Reply, Transfer
from repro.mem.sparse_memory import SparseMemory


class Bram(BusPort):
    """Single-cycle on-chip RAM of a fixed size."""

    ACCESS_CYCLES = 1

    def __init__(self, size: int = 1 << 20) -> None:
        self.storage = SparseMemory(size)

    @property
    def size(self) -> int:
        return self.storage.size

    def transfer(self, xfer: Transfer) -> Reply:
        if xfer.access is AccessType.WRITE:
            # Transfer.__post_init__ rejects a write without a payload.
            self.storage.write(xfer.address, xfer.data)
            return Reply(cycles=self.ACCESS_CYCLES)
        data = self.storage.read(xfer.address, xfer.total_bytes)
        return Reply(data=data, cycles=self.ACCESS_CYCLES)
