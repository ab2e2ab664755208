"""Block-RAM program memory.

The bare-metal machine code is held in FPGA block RAM (Table I row
"Program Memory": 232 BRAM tiles) and read by the µRISC-V core over
AHB-Lite with single-cycle access.  The model also implements the
``.mem`` initialisation-file format the paper's flow loads into the
BRAMs at bitstream/boot time.
"""

from __future__ import annotations

from repro.bus.types import AccessType, BusPort, Reply, Transfer
from repro.errors import MemoryError_
from repro.mem.sparse_memory import SparseMemory


class Bram(BusPort):
    """Single-cycle on-chip RAM of a fixed size."""

    ACCESS_CYCLES = 1

    def __init__(self, size: int = 1 << 20, read_only: bool = False) -> None:
        self.storage = SparseMemory(size)
        self.read_only = read_only

    @property
    def size(self) -> int:
        return self.storage.size

    def transfer(self, xfer: Transfer) -> Reply:
        if xfer.access is AccessType.WRITE:
            if self.read_only:
                raise MemoryError_("program memory is read-only at run time")
            # Transfer.__post_init__ rejects a write without a payload.
            self.storage.write(xfer.address, xfer.data)
            return Reply(cycles=self.ACCESS_CYCLES)
        data = self.storage.read(xfer.address, xfer.total_bytes)
        return Reply(data=data, cycles=self.ACCESS_CYCLES)

    def load_image(self, image: bytes, base: int = 0) -> None:
        """Load a raw binary image (ignores the read-only latch)."""
        self.storage.write(base, image)

    def load_mem_file(self, text: str, base: int = 0) -> int:
        """Load a Vivado-style ``.mem`` file.

        Format: optional ``@ADDRESS`` (hex, word address) directives
        followed by whitespace-separated 32-bit hex words.  Returns the
        number of words loaded.
        """
        word_address = base // 4
        words = 0
        for raw_line in text.splitlines():
            line = raw_line.split("//")[0].strip()
            if not line:
                continue
            for token in line.split():
                if token.startswith("@"):
                    word_address = int(token[1:], 16)
                    continue
                value = int(token, 16)
                self.storage.write_u32(word_address * 4, value)
                word_address += 1
                words += 1
        return words

    def dump_mem_file(self, nbytes: int, base: int = 0) -> str:
        """Serialise ``nbytes`` starting at ``base`` as a ``.mem`` file."""
        if nbytes % 4 != 0:
            raise MemoryError_(".mem dumps must be whole words")
        lines = [f"@{base // 4:08X}"]
        for offset in range(0, nbytes, 4):
            lines.append(f"{self.storage.read_u32(base + offset):08X}")
        return "\n".join(lines) + "\n"
