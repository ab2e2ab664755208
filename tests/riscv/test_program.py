"""Program images: .mem/.bin round trips and the disassembler."""

from __future__ import annotations

import pytest

from repro.errors import IsaError
from repro.riscv import assemble, disassemble, disassemble_program
from repro.riscv.program import Program


def test_mem_file_roundtrip():
    program = assemble("li a0, 0x1234\nebreak\n", base=0x100)
    text = program.to_mem_file()
    back = Program.from_mem_file(text)
    assert back.words == program.words
    assert back.base == 0x100


def test_mem_file_directives_must_continue_the_image():
    assert Program.from_mem_file("00000013\n@00000001\n00000073\n").words == [0x13, 0x73]
    leading = Program.from_mem_file("@00000004\n@00000004\n00000013\n")
    assert (leading.base, leading.words) == (0x10, [0x13])
    with pytest.raises(IsaError, match="holes"):
        Program.from_mem_file("@00000004\n00000013\n@00000009\n00000013\n")
    with pytest.raises(IsaError, match="holes"):
        Program.from_mem_file("@00000004\n@00000005\n")


def test_mem_file_format_has_address_directive():
    program = assemble("nop\n", base=0x400)
    assert program.to_mem_file().startswith("@00000100\n")  # word address


def test_bin_roundtrip():
    program = assemble("li a0, 42\nebreak\n")
    back = Program.from_bytes(program.to_bytes())
    assert back.words == program.words


def test_unaligned_base_rejected():
    with pytest.raises(IsaError):
        Program(base=2)


def test_odd_bin_rejected():
    with pytest.raises(IsaError):
        Program.from_bytes(b"\x00\x01\x02")


def test_disassembler_renders_known_forms():
    assert disassemble(0x00500093) == "addi ra, zero, 5"
    assert disassemble(0x002081B3) == "add gp, ra, sp"
    assert "jal" in disassemble(0x001000EF, pc=0)


def test_disassemble_program_listing_contains_symbols():
    program = assemble("_start:\n  li a0, 1\nloop:\n  j loop\n")
    listing = disassemble_program(program)
    assert "_start:" in listing
    assert "loop:" in listing
    assert "00000008" in listing  # address of the loop


def test_disassemble_data_word_falls_back():
    program = Program(words=[0xFFFFFFFF])
    listing = disassemble_program(program)
    assert ".word 0xffffffff" in listing
