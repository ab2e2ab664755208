"""Configuration file → bare-metal RISC-V assembly.

Each ``write_reg`` becomes a store through a cached window base
register; each ``read_reg`` becomes a bounded poll loop (load, mask,
compare).  The program is self-checking: it records a success or
failure magic word — plus the failing command index and address, or
the completion cycle count — in the DRAM status page
(:data:`~repro.core.address_map.STATUS_PAGE_BASE`, the layout the SoC
decodes), then halts with ``ebreak``.

Register conventions of the generated code:

====  =========================================
s0    current 4 KiB register window base + 0x800
t0    scratch (store data / loaded value)
t1    expected value        t2    poll mask
t3    poll budget           a0-a2 status writeback
====  =========================================

The window base is biased by ``0x800`` so every offset inside a 4 KiB
unit window fits the signed 12-bit immediate of ``lw``/``sw``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baremetal.config_file import ConfigCommand
from repro.core.address_map import (
    STATUS_CYCLES_HI,
    STATUS_CYCLES_LO,
    STATUS_FAIL_ADDR,
    STATUS_FAIL_INDEX,
    STATUS_PAGE_BASE,
    STATUS_RESULT,
)
from repro.errors import CodegenError

MAGIC_DONE = 0x600D600D
MAGIC_FAIL = 0xDEADDEAD


@dataclass(frozen=True)
class CodegenOptions:
    """Code-generation knobs.

    Where the status words go is not a knob: the program writes the
    status page of :mod:`repro.core.address_map`, which the SoC reads,
    and always records the completion cycle count (``mcycle``/``mcycleh``).
    """

    poll_limit: int = 10_000_000  # bounded retries per read_reg

    def __post_init__(self) -> None:
        if self.poll_limit <= 0:
            raise CodegenError("poll_limit must be positive")


def _li(register: str, value: int) -> list[str]:
    """Load a 32-bit constant with the fewest instructions."""
    value &= 0xFFFFFFFF
    signed = value - (1 << 32) if value & 0x80000000 else value
    if -2048 <= signed <= 2047:
        return [f"    addi {register}, x0, {signed}"]
    return [f"    li   {register}, 0x{value:08x}"]


def generate_assembly(
    commands: list[ConfigCommand],
    options: CodegenOptions | None = None,
    header: str | None = None,
) -> str:
    """Emit the bare-metal program for a command sequence."""
    options = options or CodegenOptions()
    lines: list[str] = []
    if header:
        lines.extend(f"# {line}" for line in header.splitlines())
    lines.append("# generated by repro.baremetal.codegen")
    lines.append(f".equ STATUS_BASE, 0x{STATUS_PAGE_BASE:08x}")
    lines.append("_start:")

    window = None  # current (window_base | 0x800) held in s0
    for index, command in enumerate(commands):
        base = (command.address & ~0xFFF) + 0x800
        if base != window:
            lines.extend(_li("s0", base))
            window = base
        offset = command.address - base
        if command.kind == "write_reg":
            lines.extend(_li("t0", command.data))
            lines.append(f"    sw   t0, {offset}(s0)        # 0x{command.address:05x}")
        else:
            lines.extend(_li("t1", command.data & command.mask))
            lines.extend(_li("t2", command.mask))
            lines.extend(_li("t3", options.poll_limit))
            lines.append(f"poll_{index}:")
            lines.append(f"    lw   t0, {offset}(s0)        # 0x{command.address:05x}")
            lines.append("    and  t0, t0, t2")
            lines.append(f"    beq  t0, t1, pass_{index}")
            lines.append("    addi t3, t3, -1")
            lines.append(f"    bnez t3, poll_{index}")
            lines.extend(_li("a1", index))
            lines.extend(_li("a2", command.address))
            lines.append("    j    fail")
            lines.append(f"pass_{index}:")

    lines.append("done:")
    lines.extend(_li("s1", STATUS_PAGE_BASE))
    lines.extend(_li("a0", MAGIC_DONE))
    lines.append(f"    sw   a0, {STATUS_RESULT}(s1)")
    lines.append("    csrr a0, mcycle")
    lines.append(f"    sw   a0, {STATUS_CYCLES_LO}(s1)")
    lines.append("    csrr a0, mcycleh")
    lines.append(f"    sw   a0, {STATUS_CYCLES_HI}(s1)")
    lines.append("    ebreak")
    lines.append("fail:")
    lines.extend(_li("s1", STATUS_PAGE_BASE))
    lines.extend(_li("a0", MAGIC_FAIL))
    lines.append(f"    sw   a0, {STATUS_RESULT}(s1)")
    lines.append(f"    sw   a1, {STATUS_FAIL_INDEX}(s1)")
    lines.append(f"    sw   a2, {STATUS_FAIL_ADDR}(s1)")
    lines.append("    ebreak")
    return "\n".join(lines) + "\n"


def estimate_program_words(commands: list[ConfigCommand]) -> int:
    """Quick upper bound on generated program size, in words."""
    words = 32  # prologue + done/fail epilogues
    for command in commands:
        # worst case: window reload (2) + li-expanded constants
        words += 6 if command.kind == "write_reg" else 18
    return words
