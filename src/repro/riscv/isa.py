"""RV32IM(+Zicsr) instruction encodings.

A single spec table drives the assembler, the disassembler and the
ISS, so the three can never disagree about an encoding.  Field layout
follows the RISC-V unprivileged specification:

- R:  funct7 | rs2 | rs1 | funct3 | rd | opcode
- I:  imm[11:0] | rs1 | funct3 | rd | opcode
- S:  imm[11:5] | rs2 | rs1 | funct3 | imm[4:0] | opcode
- B:  imm[12,10:5] | rs2 | rs1 | funct3 | imm[4:1,11] | opcode
- U:  imm[31:12] | rd | opcode
- J:  imm[20,10:1,11,19:12] | rd | opcode
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import IsaError

XLEN = 32
WORD_MASK = 0xFFFFFFFF


class Format(Enum):
    R = "R"
    I = "I"
    S = "S"
    B = "B"
    U = "U"
    J = "J"
    SHIFT = "shift"  # I-format with funct7 in imm[11:5]
    CSR = "csr"  # I-format, imm field holds the CSR address
    CSRI = "csri"  # CSR with 5-bit zimm in the rs1 field
    SYS = "sys"  # ecall / ebreak / wfi-like fixed encodings
    FENCE = "fence"


@dataclass(frozen=True)
class Spec:
    """Encoding of one mnemonic."""

    mnemonic: str
    fmt: Format
    opcode: int
    funct3: int | None = None
    funct7: int = 0  # R and SHIFT encodings
    fixed_imm: int = 0  # SYS encodings: imm[11:0]


_OP_LUI = 0b0110111
_OP_AUIPC = 0b0010111
_OP_JAL = 0b1101111
_OP_JALR = 0b1100111
_OP_BRANCH = 0b1100011
_OP_LOAD = 0b0000011
_OP_STORE = 0b0100011
_OP_IMM = 0b0010011
_OP_OP = 0b0110011
_OP_FENCE = 0b0001111
_OP_SYSTEM = 0b1110011

SPECS: tuple[Spec, ...] = (
    Spec("lui", Format.U, _OP_LUI),
    Spec("auipc", Format.U, _OP_AUIPC),
    Spec("jal", Format.J, _OP_JAL),
    Spec("jalr", Format.I, _OP_JALR, funct3=0b000),
    Spec("beq", Format.B, _OP_BRANCH, funct3=0b000),
    Spec("bne", Format.B, _OP_BRANCH, funct3=0b001),
    Spec("blt", Format.B, _OP_BRANCH, funct3=0b100),
    Spec("bge", Format.B, _OP_BRANCH, funct3=0b101),
    Spec("bltu", Format.B, _OP_BRANCH, funct3=0b110),
    Spec("bgeu", Format.B, _OP_BRANCH, funct3=0b111),
    Spec("lb", Format.I, _OP_LOAD, funct3=0b000),
    Spec("lh", Format.I, _OP_LOAD, funct3=0b001),
    Spec("lw", Format.I, _OP_LOAD, funct3=0b010),
    Spec("lbu", Format.I, _OP_LOAD, funct3=0b100),
    Spec("lhu", Format.I, _OP_LOAD, funct3=0b101),
    Spec("sb", Format.S, _OP_STORE, funct3=0b000),
    Spec("sh", Format.S, _OP_STORE, funct3=0b001),
    Spec("sw", Format.S, _OP_STORE, funct3=0b010),
    Spec("addi", Format.I, _OP_IMM, funct3=0b000),
    Spec("slti", Format.I, _OP_IMM, funct3=0b010),
    Spec("sltiu", Format.I, _OP_IMM, funct3=0b011),
    Spec("xori", Format.I, _OP_IMM, funct3=0b100),
    Spec("ori", Format.I, _OP_IMM, funct3=0b110),
    Spec("andi", Format.I, _OP_IMM, funct3=0b111),
    Spec("slli", Format.SHIFT, _OP_IMM, funct3=0b001, funct7=0b0000000),
    Spec("srli", Format.SHIFT, _OP_IMM, funct3=0b101, funct7=0b0000000),
    Spec("srai", Format.SHIFT, _OP_IMM, funct3=0b101, funct7=0b0100000),
    Spec("add", Format.R, _OP_OP, funct3=0b000, funct7=0b0000000),
    Spec("sub", Format.R, _OP_OP, funct3=0b000, funct7=0b0100000),
    Spec("sll", Format.R, _OP_OP, funct3=0b001, funct7=0b0000000),
    Spec("slt", Format.R, _OP_OP, funct3=0b010, funct7=0b0000000),
    Spec("sltu", Format.R, _OP_OP, funct3=0b011, funct7=0b0000000),
    Spec("xor", Format.R, _OP_OP, funct3=0b100, funct7=0b0000000),
    Spec("srl", Format.R, _OP_OP, funct3=0b101, funct7=0b0000000),
    Spec("sra", Format.R, _OP_OP, funct3=0b101, funct7=0b0100000),
    Spec("or", Format.R, _OP_OP, funct3=0b110, funct7=0b0000000),
    Spec("and", Format.R, _OP_OP, funct3=0b111, funct7=0b0000000),
    # RV32M
    Spec("mul", Format.R, _OP_OP, funct3=0b000, funct7=0b0000001),
    Spec("mulh", Format.R, _OP_OP, funct3=0b001, funct7=0b0000001),
    Spec("mulhsu", Format.R, _OP_OP, funct3=0b010, funct7=0b0000001),
    Spec("mulhu", Format.R, _OP_OP, funct3=0b011, funct7=0b0000001),
    Spec("div", Format.R, _OP_OP, funct3=0b100, funct7=0b0000001),
    Spec("divu", Format.R, _OP_OP, funct3=0b101, funct7=0b0000001),
    Spec("rem", Format.R, _OP_OP, funct3=0b110, funct7=0b0000001),
    Spec("remu", Format.R, _OP_OP, funct3=0b111, funct7=0b0000001),
    # Zicsr
    Spec("csrrw", Format.CSR, _OP_SYSTEM, funct3=0b001),
    Spec("csrrs", Format.CSR, _OP_SYSTEM, funct3=0b010),
    Spec("csrrc", Format.CSR, _OP_SYSTEM, funct3=0b011),
    Spec("csrrwi", Format.CSRI, _OP_SYSTEM, funct3=0b101),
    Spec("csrrsi", Format.CSRI, _OP_SYSTEM, funct3=0b110),
    Spec("csrrci", Format.CSRI, _OP_SYSTEM, funct3=0b111),
    # System
    Spec("ecall", Format.SYS, _OP_SYSTEM, funct3=0b000, fixed_imm=0b000000000000),
    Spec("ebreak", Format.SYS, _OP_SYSTEM, funct3=0b000, fixed_imm=0b000000000001),
    Spec("fence", Format.FENCE, _OP_FENCE, funct3=0b000),
)

SPEC_BY_MNEMONIC: dict[str, Spec] = {s.mnemonic: s for s in SPECS}

# Common CSR addresses (the µRISC-V exposes the standard counters).
CSR_ADDRESSES: dict[str, int] = {
    "mstatus": 0x300,
    "mtvec": 0x305,
    "mepc": 0x341,
    "mcause": 0x342,
    "cycle": 0xC00,
    "time": 0xC01,
    "instret": 0xC02,
    "cycleh": 0xC80,
    "instreth": 0xC82,
    "mcycle": 0xB00,
    "minstret": 0xB02,
    "mcycleh": 0xB80,
    "minstreth": 0xB82,
    "mhartid": 0xF14,
}
CSR_NAMES: dict[int, str] = {v: k for k, v in CSR_ADDRESSES.items()}

ABI_REGISTER_NAMES: tuple[str, ...] = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)

REGISTER_ALIASES: dict[str, int] = {name: i for i, name in enumerate(ABI_REGISTER_NAMES)}
REGISTER_ALIASES.update({f"x{i}": i for i in range(32)})
REGISTER_ALIASES["fp"] = 8


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend the low ``bits`` of ``value`` to a Python int."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def to_u32(value: int) -> int:
    """Wrap a Python int into an unsigned 32-bit lane."""
    return value & WORD_MASK


def to_s32(value: int) -> int:
    """Interpret a 32-bit lane as signed."""
    return sign_extend(value, 32)


def _check_reg(name: str, index: int) -> None:
    if not 0 <= index < 32:
        raise IsaError(f"{name} register index {index} out of range")


def _check_imm_signed(imm: int, bits: int) -> None:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= imm <= hi:
        raise IsaError(f"immediate {imm} does not fit in {bits} signed bits")


def encode(
    mnemonic: str,
    rd: int = 0,
    rs1: int = 0,
    rs2: int = 0,
    imm: int = 0,
    csr: int = 0,
) -> int:
    """Encode one instruction into its 32-bit machine word."""
    spec = SPEC_BY_MNEMONIC.get(mnemonic)
    if spec is None:
        raise IsaError(f"unknown mnemonic {mnemonic!r}")
    _check_reg("rd", rd)
    _check_reg("rs1", rs1)
    _check_reg("rs2", rs2)
    op = spec.opcode
    f3 = spec.funct3 or 0
    if spec.fmt is Format.R:
        return (spec.funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op
    if spec.fmt is Format.I:
        _check_imm_signed(imm, 12)
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op
    if spec.fmt is Format.SHIFT:
        if not 0 <= imm < 32:
            raise IsaError(f"shift amount {imm} out of range")
        return (spec.funct7 << 25) | (imm << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op
    if spec.fmt is Format.S:
        _check_imm_signed(imm, 12)
        value = imm & 0xFFF
        return (
            ((value >> 5) << 25)
            | (rs2 << 20)
            | (rs1 << 15)
            | (f3 << 12)
            | ((value & 0x1F) << 7)
            | op
        )
    if spec.fmt is Format.B:
        _check_imm_signed(imm, 13)
        if imm % 2 != 0:
            raise IsaError("branch offset must be even")
        value = imm & 0x1FFF
        return (
            (((value >> 12) & 1) << 31)
            | (((value >> 5) & 0x3F) << 25)
            | (rs2 << 20)
            | (rs1 << 15)
            | (f3 << 12)
            | (((value >> 1) & 0xF) << 8)
            | (((value >> 11) & 1) << 7)
            | op
        )
    if spec.fmt is Format.U:
        if not 0 <= imm < (1 << 20):
            raise IsaError(f"U-type immediate {imm} out of range")
        return (imm << 12) | (rd << 7) | op
    if spec.fmt is Format.J:
        _check_imm_signed(imm, 21)
        if imm % 2 != 0:
            raise IsaError("jump offset must be even")
        value = imm & 0x1FFFFF
        return (
            (((value >> 20) & 1) << 31)
            | (((value >> 1) & 0x3FF) << 21)
            | (((value >> 11) & 1) << 20)
            | (((value >> 12) & 0xFF) << 12)
            | (rd << 7)
            | op
        )
    if spec.fmt is Format.CSR:
        if not 0 <= csr < (1 << 12):
            raise IsaError(f"CSR address 0x{csr:x} out of range")
        return (csr << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op
    if spec.fmt is Format.CSRI:
        if not 0 <= csr < (1 << 12):
            raise IsaError(f"CSR address 0x{csr:x} out of range")
        if not 0 <= imm < 32:
            raise IsaError("CSR immediate must fit in 5 bits")
        return (csr << 20) | (imm << 15) | (f3 << 12) | (rd << 7) | op
    if spec.fmt is Format.SYS:
        return (spec.fixed_imm << 20) | (f3 << 12) | op
    if spec.fmt is Format.FENCE:
        return (f3 << 12) | op
    raise IsaError(f"unhandled format {spec.fmt}")  # pragma: no cover


@dataclass(frozen=True)
class Decoded:
    """A decoded instruction: spec plus extracted fields."""

    spec: Spec
    rd: int
    rs1: int
    rs2: int
    imm: int
    csr: int
    raw: int

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def is_load(self) -> bool:
        return self.spec.opcode == _OP_LOAD

    @property
    def is_store(self) -> bool:
        return self.spec.opcode == _OP_STORE

    @property
    def is_branch(self) -> bool:
        return self.spec.opcode == _OP_BRANCH

    @property
    def is_jump(self) -> bool:
        return self.spec.opcode in (_OP_JAL, _OP_JALR)

    @property
    def is_mul_div(self) -> bool:
        return self.spec.fmt is Format.R and self.spec.funct7 == 0b0000001


def decode(word: int) -> Decoded:
    """Decode a 32-bit machine word.

    Raises :class:`~repro.errors.IsaError` on encodings outside the
    implemented RV32IM+Zicsr subset.
    """
    word &= WORD_MASK
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F

    def found(spec: Spec, imm: int = 0, csr: int = 0, rd_=None, rs1_=None, rs2_=None) -> Decoded:
        return Decoded(
            spec=spec,
            rd=rd if rd_ is None else rd_,
            rs1=rs1 if rs1_ is None else rs1_,
            rs2=rs2 if rs2_ is None else rs2_,
            imm=imm,
            csr=csr,
            raw=word,
        )

    if opcode == _OP_LUI:
        return found(SPEC_BY_MNEMONIC["lui"], imm=(word >> 12) & 0xFFFFF, rs1_=0, rs2_=0)
    if opcode == _OP_AUIPC:
        return found(SPEC_BY_MNEMONIC["auipc"], imm=(word >> 12) & 0xFFFFF, rs1_=0, rs2_=0)
    if opcode == _OP_JAL:
        imm = (
            (((word >> 31) & 1) << 20)
            | (((word >> 21) & 0x3FF) << 1)
            | (((word >> 20) & 1) << 11)
            | (((word >> 12) & 0xFF) << 12)
        )
        return found(SPEC_BY_MNEMONIC["jal"], imm=sign_extend(imm, 21), rs1_=0, rs2_=0)
    if opcode == _OP_JALR and funct3 == 0:
        return found(SPEC_BY_MNEMONIC["jalr"], imm=sign_extend(word >> 20, 12), rs2_=0)
    if opcode == _OP_BRANCH:
        for spec in SPECS:
            if spec.opcode == opcode and spec.funct3 == funct3:
                imm = (
                    (((word >> 31) & 1) << 12)
                    | (((word >> 25) & 0x3F) << 5)
                    | (((word >> 8) & 0xF) << 1)
                    | (((word >> 7) & 1) << 11)
                )
                return found(spec, imm=sign_extend(imm, 13), rd_=0)
        raise IsaError(f"illegal branch funct3={funct3:#05b} in 0x{word:08x}")
    if opcode == _OP_LOAD:
        for spec in SPECS:
            if spec.opcode == opcode and spec.funct3 == funct3:
                return found(spec, imm=sign_extend(word >> 20, 12), rs2_=0)
        raise IsaError(f"illegal load funct3={funct3:#05b} in 0x{word:08x}")
    if opcode == _OP_STORE:
        for spec in SPECS:
            if spec.opcode == opcode and spec.funct3 == funct3:
                imm = ((word >> 25) << 5) | ((word >> 7) & 0x1F)
                return found(spec, imm=sign_extend(imm, 12), rd_=0)
        raise IsaError(f"illegal store funct3={funct3:#05b} in 0x{word:08x}")
    if opcode == _OP_IMM:
        if funct3 in (0b001, 0b101):  # shifts carry funct7
            for spec in SPECS:
                if spec.fmt is Format.SHIFT and spec.funct3 == funct3 and spec.funct7 == funct7:
                    return found(spec, imm=rs2, rs2_=0)
            raise IsaError(f"illegal shift encoding 0x{word:08x}")
        for spec in SPECS:
            if spec.opcode == opcode and spec.fmt is Format.I and spec.funct3 == funct3:
                return found(spec, imm=sign_extend(word >> 20, 12), rs2_=0)
        raise IsaError(f"illegal op-imm funct3={funct3:#05b} in 0x{word:08x}")
    if opcode == _OP_OP:
        for spec in SPECS:
            if spec.fmt is Format.R and spec.funct3 == funct3 and spec.funct7 == funct7:
                return found(spec)
        raise IsaError(f"illegal register op in 0x{word:08x}")
    if opcode == _OP_SYSTEM:
        if funct3 == 0:
            imm12 = word >> 20
            if imm12 == 0 and rs1 == 0 and rd == 0:
                return found(SPEC_BY_MNEMONIC["ecall"], rs1_=0, rs2_=0, rd_=0)
            if imm12 == 1 and rs1 == 0 and rd == 0:
                return found(SPEC_BY_MNEMONIC["ebreak"], rs1_=0, rs2_=0, rd_=0)
            raise IsaError(f"illegal system encoding 0x{word:08x}")
        for spec in SPECS:
            if spec.opcode == opcode and spec.funct3 == funct3 and spec.fmt in (Format.CSR, Format.CSRI):
                if spec.fmt is Format.CSRI:
                    return found(spec, imm=rs1, csr=word >> 20, rs1_=0, rs2_=0)
                return found(spec, csr=word >> 20, rs2_=0)
        raise IsaError(f"illegal CSR encoding 0x{word:08x}")
    if opcode == _OP_FENCE and funct3 == 0:
        return found(SPEC_BY_MNEMONIC["fence"], rd_=0, rs1_=0, rs2_=0)
    raise IsaError(f"illegal instruction 0x{word:08x} (opcode {opcode:#09b})")
