"""The SoC memory map (paper §IV-A2): the one statement of it.

Two slave windows on the system-bus decoder, exactly as published:

- **NVDLA**: ``0x0 -- 0xFFFFF`` — "covering all configuration
  register addresses of the NVDLA" (the CSB space proper ends at
  0x10FFF; the window is generous),
- **DRAM**: ``0x100000 -- 0x200FFFFF`` — 512 MB of data memory.

This mapping lets the RISC-V program NVDLA with ordinary load/store
instructions — no custom instructions — which is what makes the
generated bare-metal assembly portable to any RV32 core.

The first DRAM page is the bare-metal status page.  Every layer reads
this one statement: the compiler's placement, the code generator's
status writes, the VP's memory, the SoC's DRAM and status decode, and
the analyzer.  :func:`dram_offset` is the one rebase from a bus address
to a DRAM byte offset: the SoC's DBB port and preload, the fast tier's
image port, the status and output decodes and the test setup's
preloader all call it, so they reject an address below the window with
the same :class:`~repro.errors.BusError`.  :class:`AddressMap` is the
decoder's view, which the SoC takes only so tests can build a decoder
with other limits.  This module imports only :mod:`repro.errors`, so
any layer can read it first.

Program memory hangs off the core's instruction-side AHB port, so it
does not occupy a data window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BusError

NVDLA_BASE = 0x0
NVDLA_LIMIT = 0xFFFFF
DRAM_BASE = 0x100000
DRAM_SIZE = 512 * 1024 * 1024
DRAM_LIMIT = DRAM_BASE + DRAM_SIZE - 1

PROGRAM_MEMORY_SIZE = 1 << 20  # 1 MiB of BRAM (232 tiles in Table I)

STATUS_PAGE_BASE = DRAM_BASE  # bare-metal status words (first DRAM page)
STATUS_PAGE_SIZE = 0x1000

# Status-page layout (offsets from STATUS_PAGE_BASE).
STATUS_RESULT = 0x00
STATUS_FAIL_INDEX = 0x04
STATUS_FAIL_ADDR = 0x08
STATUS_CYCLES_LO = 0x10
STATUS_CYCLES_HI = 0x14
STATUS_WORDS_BYTES = STATUS_CYCLES_HI + 4  # every status word the program writes


def dram_offset(address: int) -> int:
    """The DRAM byte offset of bus ``address`` (DRAM itself is zero-based)."""
    if address < DRAM_BASE:
        raise BusError(f"access at 0x{address:08x} below the DRAM window", address)
    return address - DRAM_BASE


@dataclass(frozen=True)
class AddressMap:
    """The SoC decoder windows.

    The DRAM window always starts at :data:`DRAM_BASE`, where every
    :func:`dram_offset` rebase puts it; only the limits may move.
    """

    nvdla_base: int = NVDLA_BASE
    nvdla_limit: int = NVDLA_LIMIT
    dram_limit: int = DRAM_LIMIT

    @property
    def dram_base(self) -> int:
        return DRAM_BASE

    @property
    def dram_size(self) -> int:
        return self.dram_limit - self.dram_base + 1

    def describe(self) -> str:
        return (
            f"NVDLA 0x{self.nvdla_base:x}..0x{self.nvdla_limit:x}, "
            f"DRAM 0x{self.dram_base:x}..0x{self.dram_limit:x} "
            f"({self.dram_size // (1 << 20)} MiB)"
        )


DEFAULT_MAP = AddressMap()
