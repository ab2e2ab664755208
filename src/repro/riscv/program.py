"""Machine-code program images.

The paper's flow ships programs to the FPGA as ``.mem`` files loaded
into BRAM program memory and weight/input blobs as ``.bin`` files
preloaded into DDR4.  :class:`Program` is the in-memory form of the
former, with serialisers for both file formats.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import IsaError


@dataclass
class Program:
    """An assembled machine-code image.

    Attributes
    ----------
    base:
        Load address of the first byte.
    words:
        Little-endian 32-bit instruction/data words.
    symbols:
        Label → absolute address map (debugging, tests, codegen).
    entry:
        Initial program counter; defaults to ``base``.
    source:
        Optional assembly source the image was built from.
    """

    base: int = 0
    words: list[int] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    entry: int | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if self.base % 4 != 0:
            raise IsaError("program base must be word-aligned")
        if self.entry is None:
            self.entry = self.base

    @property
    def size_bytes(self) -> int:
        return len(self.words) * 4

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    def word_at(self, address: int) -> int:
        if address % 4 != 0:
            raise IsaError(f"unaligned program address 0x{address:08x}")
        index = (address - self.base) // 4
        if not 0 <= index < len(self.words):
            raise IsaError(f"address 0x{address:08x} outside program image")
        return self.words[index]

    def to_bytes(self) -> bytes:
        return struct.pack(f"<{len(self.words)}I", *self.words)

    def to_bin_file(self) -> bytes:
        """Raw ``.bin`` image (what the Zynq preloads into memory)."""
        return self.to_bytes()

    def to_mem_file(self) -> str:
        """Vivado ``.mem`` format: ``@word_address`` then hex words."""
        lines = [f"@{self.base // 4:08X}"]
        lines.extend(f"{word:08X}" for word in self.words)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_bytes(cls, blob: bytes, base: int = 0) -> "Program":
        if len(blob) % 4 != 0:
            raise IsaError("program image must be a whole number of words")
        return cls(base=base, words=list(struct.unpack(f"<{len(blob) // 4}I", blob)))

    @classmethod
    def from_mem_file(cls, text: str) -> "Program":
        base: int | None = None
        words: list[int] = []
        for raw_line in text.splitlines():
            line = raw_line.split("//")[0].strip()
            if not line:
                continue
            for token in line.split():
                if not token.startswith("@"):
                    words.append(int(token, 16))
                    continue
                address = int(token[1:], 16) * 4
                if base is None and not words:
                    base = address
                elif address != (base or 0) + 4 * len(words):
                    raise IsaError(".mem images with holes are not supported")
        return cls(base=base or 0, words=words)
