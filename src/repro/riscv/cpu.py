"""RV32IM instruction-set simulator with pipeline timing.

The CPU has Harvard-style ports like the paper's µRISC-V: an
instruction port (AHB-Lite to BRAM program memory) and a data port
(AHB-Lite into the system bus, where the decoder splits NVDLA register
space from DRAM).  Each :meth:`Cpu.step` executes one instruction
functionally and returns its cycle cost from the
:class:`~repro.riscv.pipeline.PipelineModel` plus bus wait states.

Instructions are decoded once per program address.  The first time a
pc executes, the core fetches its word and builds a table entry: the
operation, its operands, the fetch wait and the pipeline's
:meth:`~repro.riscv.pipeline.PipelineModel.static_cost`.  Later visits
execute straight from the entry.  Entries hold no pc-relative values,
so addresses that hold the same word (generated register-programming
code repeats a handful of encodings) share everything but the fetch
wait.  Program memory is only reachable through the instruction port,
so the table stays valid until a program load
(:meth:`Cpu.load_program` or :meth:`Cpu.invalidate_decode_table`).

The CPU also tracks *polling streaks* — repeated loads from the same
address returning the same value inside a tight backward loop.  The
SoC executor uses the streak to fast-forward simulated time to the
next NVDLA event instead of spinning through millions of identical
poll iterations (cycle accounting is unchanged; see
:mod:`repro.core.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.bus.types import AccessType, BusPort, Transfer
from repro.errors import CpuFault
from repro.riscv.isa import CSR_ADDRESSES, Decoded, Format, decode, to_s32, to_u32
from repro.riscv.pipeline import PipelineModel, StaticCost
from repro.riscv.program import Program

# Semihosting ecall numbers (RISC-V Linux-like ABI subset).
ECALL_EXIT = 93
ECALL_PUTCHAR = 64

_MASK = 0xFFFFFFFF


@dataclass
class CpuState:
    """Snapshot of architectural state for debugging and tests."""

    pc: int
    regs: tuple[int, ...]
    cycles: int
    instret: int
    halted: bool
    exit_code: int | None = None


@dataclass
class _PollTracker:
    """Detects tight poll loops (same load pc/address/value repeating)."""

    pc: int = -1
    address: int = -1
    value: int = -1
    streak: int = 0

    def observe_load(self, pc: int, address: int, value: int) -> None:
        if pc == self.pc and address == self.address and value == self.value:
            self.streak += 1
        else:
            self.pc, self.address, self.value = pc, address, value
            self.streak = 0

    def reset(self) -> None:
        self.pc = self.address = self.value = -1
        self.streak = 0


# Operation kinds of a decode-table entry, most frequent first.
_ALU_I, _CONST, _STORE, _LOAD, _BRANCH, _ALU_R, _JAL, _JALR = range(8)
_LOAD_SIGNED, _AUIPC, _CSR, _ECALL, _EBREAK, _NOP = range(8, 14)


class _Entry(NamedTuple):
    """One pre-decoded program address."""

    kind: int
    #: ALU or branch function, load/store size in bytes, or (CSR) the
    #: decoded instruction.
    op: Callable | int | Decoded | None
    rd: int
    rs1: int
    rs2: int
    #: Immediate (lui: the loaded value; auipc/jal/branch: the pc
    #: offset), or load/store offset.
    imm: int
    cost: StaticCost
    fetch_wait: int


class Cpu:
    """RV32IM core with 4-stage pipeline timing.

    Parameters
    ----------
    ibus:
        Instruction-fetch port (program memory).
    dbus:
        Data port (system bus: NVDLA registers + DRAM).
    reset_pc:
        Initial program counter.
    pipeline:
        Timing model; a default 4-stage model is created if omitted.
        Its static costs are priced into the decode table, so change
        its parameters only before a program load.
    """

    def __init__(
        self,
        ibus: BusPort,
        dbus: BusPort,
        reset_pc: int = 0,
        pipeline: PipelineModel | None = None,
    ) -> None:
        self.ibus = ibus
        self.dbus = dbus
        self.pipeline = pipeline or PipelineModel()
        self.reset_pc = reset_pc
        self._table: dict[int, _Entry] = {}
        self._by_word: dict[int, tuple] = {}  # word -> entry minus fetch wait
        self.console = bytearray()
        self.csrs: dict[int, int] = {}
        self.poll = _PollTracker()
        self.reset()

    # ------------------------------------------------------------------
    # Control.
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Return to the reset state (the decode table survives: it
        depends only on program memory)."""
        self.regs = [0] * 32
        self.pc = self.reset_pc
        self.halted = False
        self.exit_code: int | None = None
        self.cycles = 0
        self.instret = 0
        self.pipeline.reset()
        self.poll.reset()

    def state(self) -> CpuState:
        return CpuState(
            pc=self.pc,
            regs=tuple(self.regs),
            cycles=self.cycles,
            instret=self.instret,
            halted=self.halted,
            exit_code=self.exit_code,
        )

    def invalidate_decode_table(self) -> None:
        """Forget every decoded address; call after rewriting program memory."""
        self._table.clear()
        self._by_word.clear()

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def step(self) -> int:
        """Execute one instruction; return its cycle cost."""
        if self.halted:
            return 0
        pc = self.pc
        entry = self._table.get(pc)
        if entry is None:
            entry = self._decode_at(pc)
        kind, op, rd, rs1, rs2, imm, cost, bus_wait = entry  # data waits add to the fetch wait
        regs = self.regs
        next_pc = (pc + 4) & _MASK
        taken = False

        if kind == _ALU_I:
            if rd:
                regs[rd] = op(regs[rs1], imm) & _MASK
        elif kind == _CONST:
            if rd:
                regs[rd] = imm
        elif kind == _STORE:
            address = (regs[rs1] + imm) & _MASK
            value = regs[rs2] & ((1 << (op << 3)) - 1)
            try:
                reply = self.dbus.write(address, value, op, master="cpu")
            except Exception as exc:
                raise CpuFault(f"store fault at 0x{address:08x}: {exc}", pc=pc) from exc
            if reply.cycles > 1:
                bus_wait += reply.cycles - 1
            self.poll.reset()
        elif kind == _LOAD or kind == _LOAD_SIGNED:
            address = (regs[rs1] + imm) & _MASK
            try:
                reply = self.dbus.read(address, op, master="cpu")
            except Exception as exc:
                raise CpuFault(f"load fault at 0x{address:08x}: {exc}", pc=pc) from exc
            value = reply.value()
            if kind == _LOAD_SIGNED:
                half = 1 << ((op << 3) - 1)
                value = (((value & ((half << 1) - 1)) ^ half) - half) & _MASK
            if reply.cycles > 1:
                bus_wait += reply.cycles - 1
            if rd:
                regs[rd] = value & _MASK
            self.poll.observe_load(pc, address, value)
        elif kind == _BRANCH:
            if op(regs[rs1], regs[rs2]):
                next_pc = (pc + imm) & _MASK
                taken = True
        elif kind == _ALU_R:
            if rd:
                regs[rd] = op(regs[rs1], regs[rs2]) & _MASK
        elif kind == _JAL:
            if rd:
                regs[rd] = next_pc
            next_pc = (pc + imm) & _MASK
            taken = True
        elif kind == _JALR:
            target = (regs[rs1] + imm) & 0xFFFFFFFE
            if rd:
                regs[rd] = next_pc
            next_pc = target
            taken = True
        elif kind == _AUIPC:
            if rd:
                regs[rd] = (pc + imm) & _MASK
        elif kind == _CSR:
            self._execute_csr(op)
        elif kind == _ECALL:
            self._execute_ecall()
        elif kind == _EBREAK:
            self.halted = True
            if self.exit_code is None:
                self.exit_code = 0
        # _NOP (fence): nothing to do.

        cycles = self.pipeline.charge(cost, taken, bus_wait)
        self.cycles += cycles
        self.instret += 1
        self.pc = next_pc
        return cycles

    def run(self, max_instructions: int = 10_000_000) -> CpuState:
        """Run until halt or the instruction budget is exhausted."""
        executed = 0
        while not self.halted and executed < max_instructions:
            self.step()
            executed += 1
        if not self.halted:
            raise CpuFault(f"program did not halt within {max_instructions} instructions", pc=self.pc)
        return self.state()

    def load_program(self, program: Program) -> None:
        """Copy a program image into instruction memory and reset."""
        data = program.to_bytes()
        self.ibus.transfer(
            Transfer(
                address=program.base,
                size=4,
                access=AccessType.WRITE,
                data=data,
                burst_len=len(data) // 4,
                master="loader",
            )
        )
        self.invalidate_decode_table()
        self.reset_pc = program.entry if program.entry is not None else program.base
        self.reset()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _decode_at(self, pc: int) -> _Entry:
        """Fetch, decode and price the instruction at ``pc``; cache it."""
        reply = self.ibus.read(pc, 4, master="ifetch")
        word = reply.value()
        resolved = self._by_word.get(word)
        if resolved is None:
            try:
                decoded = decode(word)
            except Exception as exc:
                raise CpuFault(f"illegal instruction 0x{word:08x}: {exc}", pc=pc) from exc
            resolved = (*_operation(decoded), self.pipeline.static_cost(decoded))
            self._by_word[word] = resolved
        entry = _Entry(*resolved, max(0, reply.cycles - 1))
        self._table[pc] = entry
        return entry

    def _write_reg(self, rd: int, value: int) -> None:
        if rd != 0:
            self.regs[rd] = to_u32(value)

    def _csr_read(self, address: int) -> int:
        if address in (CSR_ADDRESSES["mcycle"], CSR_ADDRESSES["cycle"]):
            return to_u32(self.cycles)
        if address in (CSR_ADDRESSES["mcycleh"], CSR_ADDRESSES["cycleh"]):
            return to_u32(self.cycles >> 32)
        if address in (CSR_ADDRESSES["minstret"], CSR_ADDRESSES["instret"]):
            return to_u32(self.instret)
        if address in (CSR_ADDRESSES["minstreth"], CSR_ADDRESSES["instreth"]):
            return to_u32(self.instret >> 32)
        if address == CSR_ADDRESSES["mhartid"]:
            return 0
        return self.csrs.get(address, 0)

    def _execute_csr(self, d: Decoded) -> None:
        old = self._csr_read(d.csr)
        if d.spec.fmt is Format.CSRI:
            operand = d.imm
            write = d.mnemonic == "csrrwi" or operand != 0
        else:
            operand = self.regs[d.rs1]
            write = d.mnemonic == "csrrw" or d.rs1 != 0
        if write:
            if d.mnemonic in ("csrrw", "csrrwi"):
                new = operand
            elif d.mnemonic in ("csrrs", "csrrsi"):
                new = old | operand
            else:
                new = old & ~operand
            self.csrs[d.csr] = to_u32(new)
        self._write_reg(d.rd, old)

    def _execute_ecall(self) -> None:
        code = self.regs[17]  # a7
        if code == ECALL_EXIT:
            self.halted = True
            self.exit_code = to_s32(self.regs[10])
        elif code == ECALL_PUTCHAR:
            self.console.append(self.regs[10] & 0xFF)
        else:
            raise CpuFault(f"unsupported ecall {code}", pc=self.pc)

    def console_text(self) -> str:
        return self.console.decode("utf-8", errors="replace")


# ----------------------------------------------------------------------
# Decode-time resolution of each instruction to an operation.
# ----------------------------------------------------------------------


def _s32(value: int) -> int:
    """A register value (unsigned 32-bit) read as signed."""
    return value - 0x100000000 if value & 0x80000000 else value


def _div(a: int, b: int) -> int:
    sa, sb = _s32(a), _s32(b)
    if b == 0:
        return -1
    if sa == -(1 << 31) and sb == -1:
        return sa
    quotient = abs(sa) // abs(sb)  # RISC-V divides toward zero
    return -quotient if (sa < 0) != (sb < 0) else quotient


def _rem(a: int, b: int) -> int:
    sa, sb = _s32(a), _s32(b)
    if b == 0:
        return sa
    if sa == -(1 << 31) and sb == -1:
        return 0
    remainder = abs(sa) % abs(sb)  # remainder takes the dividend's sign
    return -remainder if sa < 0 else remainder


# Results are masked to 32 bits by the caller.
_R_OPS: dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "sll": lambda a, b: a << (b & 31),
    "slt": lambda a, b: int(_s32(a) < _s32(b)),
    "sltu": lambda a, b: int(a < b),
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: _s32(a) >> (b & 31),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: _s32(a) * _s32(b),
    "mulh": lambda a, b: (_s32(a) * _s32(b)) >> 32,
    "mulhsu": lambda a, b: (_s32(a) * b) >> 32,
    "mulhu": lambda a, b: (a * b) >> 32,
    "div": _div,
    "divu": lambda a, b: 0xFFFFFFFF if b == 0 else a // b,
    "rem": _rem,
    "remu": lambda a, b: a if b == 0 else a % b,
}

# The immediates of these compare/logic ops are used zero-extended.
_UNSIGNED_IMM = frozenset({"sltiu", "xori", "ori", "andi"})

_I_OPS: dict[str, Callable[[int, int], int]] = {
    "addi": lambda a, imm: a + imm,
    "slti": lambda a, imm: int(_s32(a) < imm),
    "sltiu": lambda a, imm: int(a < imm),
    "xori": lambda a, imm: a ^ imm,
    "ori": lambda a, imm: a | imm,
    "andi": lambda a, imm: a & imm,
    "slli": lambda a, imm: a << imm,
    "srli": lambda a, imm: a >> imm,
    "srai": lambda a, imm: _s32(a) >> imm,
}

_BRANCH_OPS: dict[str, Callable[[int, int], bool]] = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _s32(a) < _s32(b),
    "bge": lambda a, b: _s32(a) >= _s32(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

_ACCESS_BYTES = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "sb": 1, "sh": 2, "sw": 4}


def _operation(d: Decoded) -> tuple:
    """``(kind, op, rd, rs1, rs2, imm)`` of a decoded instruction."""
    m = d.mnemonic
    fmt = d.spec.fmt
    if fmt is Format.R:
        return _ALU_R, _R_OPS[m], d.rd, d.rs1, d.rs2, 0
    if m == "lui":
        return _CONST, None, d.rd, 0, 0, to_u32(d.imm << 12)
    if m == "auipc":
        return _AUIPC, None, d.rd, 0, 0, d.imm << 12
    if m == "jal":
        return _JAL, None, d.rd, 0, 0, d.imm
    if m == "jalr":
        return _JALR, None, d.rd, d.rs1, 0, d.imm
    if d.is_branch:
        return _BRANCH, _BRANCH_OPS[m], 0, d.rs1, d.rs2, d.imm
    if d.is_load:
        kind = _LOAD_SIGNED if m in ("lb", "lh") else _LOAD
        return kind, _ACCESS_BYTES[m], d.rd, d.rs1, 0, d.imm
    if d.is_store:
        return _STORE, _ACCESS_BYTES[m], 0, d.rs1, d.rs2, d.imm
    if fmt is Format.I or fmt is Format.SHIFT:
        imm = to_u32(d.imm) if m in _UNSIGNED_IMM else d.imm
        return _ALU_I, _I_OPS[m], d.rd, d.rs1, 0, imm
    if fmt is Format.CSR or fmt is Format.CSRI:
        return _CSR, d, d.rd, d.rs1, 0, d.imm
    if m == "ecall":
        return _ECALL, None, 0, 0, 0, 0
    if m == "ebreak":
        return _EBREAK, None, 0, 0, 0, 0
    if m == "fence":
        return _NOP, None, 0, 0, 0, 0
    raise CpuFault(f"unimplemented mnemonic {m}")  # pragma: no cover - table is exhaustive
