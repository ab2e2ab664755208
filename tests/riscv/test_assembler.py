"""Assembler: directives, labels, expressions, pseudo-instructions."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import AssemblerError
from repro.riscv.assembler import assemble
from repro.riscv.disassembler import disassemble
from repro.riscv.isa import decode


def words(source: str, base: int = 0):
    return assemble(source, base=base).words


def test_single_instruction():
    assert words("addi x1, x0, 5") == [0x00500093]


def test_register_aliases_accepted():
    assert words("addi ra, zero, 1") == words("addi x1, x0, 1")
    assert words("add fp, s0, t6") == words("add x8, x8, x31")


def test_label_backward_branch():
    program = assemble("loop:\n  addi t0, t0, 1\n  bne t0, t1, loop\n")
    decoded = decode(program.words[1])
    assert decoded.mnemonic == "bne"
    assert decoded.imm == -4


def test_label_forward_branch():
    program = assemble("  beq x0, x0, out\n  nop\nout:\n  nop\n")
    assert decode(program.words[0]).imm == 8


def test_multiple_labels_same_address():
    program = assemble("a:\nb:  nop\n")
    assert program.symbols["a"] == program.symbols["b"] == 0


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError):
        assemble("x:\n nop\nx:\n nop\n")


def test_equ_and_expressions():
    program = assemble(
        """
        .equ BASE, 0x1000
        .equ OFF, BASE + 4 * 8
        lui t0, %hi(OFF)
        addi t0, t0, %lo(OFF)
        """
    )
    # OFF = 0x1020 -> hi=1 if lo carries? lo(0x1020)=0x20, hi=0x1.
    assert decode(program.words[0]).imm == 0x1
    assert decode(program.words[1]).imm == 0x20


def test_hi_lo_sign_correction():
    # 0x12345FFF: lo = -1 (0xFFF sign-extends), hi must be 0x12346.
    program = assemble("lui t0, %hi(0x12345FFF)\naddi t0, t0, %lo(0x12345FFF)\n")
    hi = decode(program.words[0]).imm
    lo = decode(program.words[1]).imm
    assert (hi << 12) + lo == 0x12345FFF


@given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_li_materialises_any_u32(value):
    program = assemble(f"li a0, 0x{value:08x}\n")
    hi = decode(program.words[0]).imm
    lo = decode(program.words[1]).imm
    assert ((hi << 12) + lo) & 0xFFFFFFFF == value


def test_word_and_byte_directives():
    program = assemble(".word 0xDEADBEEF, 17\n.byte 1, 2\n.half 0x3344\n")
    assert program.words[0] == 0xDEADBEEF
    assert program.words[1] == 17
    assert program.words[2] & 0xFFFF == 0x0201
    assert (program.words[2] >> 16) & 0xFFFF == 0x3344


def test_align_and_org():
    program = assemble(".byte 1\n.align 2\n.word 7\n")
    assert program.words[1] == 7
    program = assemble("nop\n.org 16\nmarker: nop\n")
    assert program.symbols["marker"] == 16


def test_org_backwards_rejected():
    with pytest.raises(AssemblerError):
        assemble(".org 8\n nop\n.org 4\n")


def test_asciz_and_space():
    program = assemble('.asciz "ab"\n.align 2\n.space 4\n')
    assert program.words[0] & 0xFFFFFF == 0x006261


def test_memory_operand_forms():
    one = words("lw a0, 8(sp)")
    two = words("lw a0, 4+4(sp)")
    assert one == two
    assert decode(words("sw a1, -4(s0)")[0]).imm == -4


@pytest.mark.parametrize(
    "pseudo,real",
    [
        ("nop", "addi x0, x0, 0"),
        ("mv a0, a1", "addi a0, a1, 0"),
        ("not a0, a1", "xori a0, a1, -1"),
        ("neg a0, a1", "sub a0, x0, a1"),
        ("seqz a0, a1", "sltiu a0, a1, 1"),
        ("snez a0, a1", "sltu a0, x0, a1"),
        ("jr ra", "jalr x0, ra, 0"),
        ("ret", "jalr x0, ra, 0"),
    ],
)
def test_simple_pseudo_instructions(pseudo, real):
    assert words(pseudo) == words(real)


def test_branch_pseudo_instructions():
    target = "x:\n nop\n"
    assert words("beqz a0, x\n" + target) == words("beq a0, x0, x\n" + target)
    assert words("bgt a0, a1, x\n" + target) == words("blt a1, a0, x\n" + target)
    assert words("bleu a0, a1, x\n" + target) == words("bgeu a1, a0, x\n" + target)


def test_csr_pseudo_instructions():
    assert words("csrr a0, mcycle") == words("csrrs a0, mcycle, x0")
    assert words("csrw mtvec, a0") == words("csrrw x0, mtvec, a0")


def test_comments_stripped_everywhere():
    program = assemble(
        """
        # full line comment
        addi x1, x0, 1  # trailing
        addi x2, x0, 2  // c++ style
        addi x3, x0, 3  ; asm style
        """
    )
    assert len(program.words) == 3


def test_unknown_mnemonic_reports_line():
    with pytest.raises(AssemblerError) as excinfo:
        assemble("nop\nfrobnicate x0\n")
    assert "line 2" in str(excinfo.value)


def test_missing_operand_reports_mnemonic():
    with pytest.raises(AssemblerError):
        assemble("add x1, x2\n")


def test_undefined_symbol_raises():
    with pytest.raises(AssemblerError):
        assemble("li a0, MISSING\n")


def test_base_address_shifts_labels():
    program = assemble("start: nop\n", base=0x400)
    assert program.symbols["start"] == 0x400
    assert program.base == 0x400


def test_entry_defaults_to_start_symbol():
    program = assemble("nop\n_start:\n nop\n")
    assert program.entry == 4


@given(
    st.lists(
        st.sampled_from(
            ["nop", "addi t0, t0, 1", "add t1, t0, t0", "xor t2, t1, t0", "sltu t3, t1, t2"]
        ),
        min_size=1,
        max_size=30,
    )
)
def test_assemble_disassemble_reassemble_fixpoint(lines):
    source = "\n".join(lines) + "\n"
    first = assemble(source)
    listing = "\n".join(disassemble(w, pc=i * 4) for i, w in enumerate(first.words))
    second = assemble(listing + "\n")
    assert first.words == second.words


def test_same_branch_text_at_two_addresses_encodes_two_offsets():
    program = assemble("beq a0, a1, done\nj done\nbeq a0, a1, done\nj done\ndone:\n nop\n")
    first_beq, first_j, second_beq, second_j = (decode(w) for w in program.words[:4])
    assert (first_beq.imm, second_beq.imm) == (16, 8)
    assert (first_j.imm, second_j.imm) == (12, 4)


def test_li_of_equ_defined_after_use():
    program = assemble("li a0, LATER\nli a1, LATER\n.equ LATER, 0x12345FFF\n")
    for index in (0, 2):
        hi = decode(program.words[index]).imm
        lo = decode(program.words[index + 1]).imm
        assert ((hi << 12) + lo) & 0xFFFFFFFF == 0x12345FFF
    assert program.words[0:2] != program.words[2:4]  # rd differs


@pytest.mark.parametrize("literal", ["1_000", "0o17", "010", "-010"])
def test_literals_outside_the_token_grammar_are_rejected(literal):
    with pytest.raises(AssemblerError):
        assemble(f"addi a0, x0, {literal}\n")
    with pytest.raises(AssemblerError):
        assemble(f".word {literal}\n")


@given(
    value=st.integers(min_value=-2048, max_value=2047),
    form=st.sampled_from(["{:d}", "0x{:x}", "0X{:X}", "0b{:b}"]),
)
def test_literal_operands_match_the_expression_evaluator(value, form):
    """A bare literal takes the fast path; ``0+literal`` goes through
    the tokenizer.  Both must encode the same word."""
    text = ("-" if value < 0 else "") + form.format(abs(value))
    assert words(f"addi a0, x0, {text}") == words(f"addi a0, x0, 0+{text}")
    assert words(f"sw a0, {text}(sp)") == words(f"sw a0, 0+{text}(sp)")
