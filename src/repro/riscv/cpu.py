"""RV32IM instruction-set simulator with pipeline timing.

The CPU has Harvard-style ports like the paper's µRISC-V: an
instruction port (AHB-Lite to BRAM program memory) and a data port
(AHB-Lite into the system bus, where the decoder splits NVDLA register
space from DRAM).  Nothing but the core reads program memory, and its
price is static, so the instruction port is not simulated: every fetch
costs :data:`FETCH_CYCLES`, composed once from the AHB-Lite address
phase and the BRAM access (``tests/core/test_system_bus.py`` pins it
to the hop-by-hop ``AhbLiteBus(Bram())`` reply).

One interpreter loop, :meth:`Cpu.execute`, runs every instruction:
:meth:`Cpu.step`, :meth:`Cpu.run` and the SoC's
:class:`~repro.core.executor.BaremetalExecutor` all call it.  Per
instruction it executes the operation, prices it with
:meth:`~repro.riscv.pipeline.PipelineModel.charge` (the one cycle
formula: pipeline cost plus bus wait states) and, when given the SoC
clock, advances it.  Loads and stores go through the data port, except
that an aligned 32-bit access inside the port's resolved
:class:`~repro.bus.types.RegisterRoute` (the SoC's NVDLA register
window) calls the engine's CSB port directly at the same price.

Instructions are decoded at program load (:meth:`Cpu.load_program`):
each distinct word of the program is decoded and priced once into a
table entry — the operation, its operands and
:func:`~repro.riscv.pipeline.static_cost` — and every pc holding that
word maps to the shared entry.  Entries hold no pc-relative values,
and generated register-programming code repeats a handful of
encodings.  A word that does not decode gets no entry, so it faults
(:class:`~repro.errors.CpuFault`) only if its pc executes, as does a
pc outside the program.  The table lives until the next program load.

The CPU also tracks *polling streaks* — repeated loads from the same
address returning the same value inside a tight backward loop.  The
SoC executor uses the streak to fast-forward simulated time to the
next NVDLA event instead of spinning through millions of identical
poll iterations (cycle accounting is unchanged; see
:mod:`repro.core.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.bus.ahb import AhbLiteBus
from repro.bus.types import BusPort
from repro.errors import CpuFault, IsaError
from repro.mem.bram import Bram
from repro.riscv.isa import CSR_ADDRESSES, Decoded, Format, decode, to_s32, to_u32
from repro.riscv.pipeline import PipelineModel, StaticCost, static_cost
from repro.riscv.program import Program

if TYPE_CHECKING:
    from repro.clock import Clock

# Semihosting ecall numbers (RISC-V Linux-like ABI subset).
ECALL_EXIT = 93
ECALL_PUTCHAR = 64

_MASK = 0xFFFFFFFF
_NO_POLL_STOP = 1 << 63  # a poll streak no run reaches

#: Cycles of one instruction fetch: the AHB-Lite address phase plus the
#: program BRAM's access.
FETCH_CYCLES = AhbLiteBus.ADDRESS_PHASE_CYCLES + Bram.ACCESS_CYCLES
#: Wait states of a fetch beyond the pipeline's single-cycle IF stage,
#: charged to every instruction as bus wait.
FETCH_WAIT = FETCH_CYCLES - 1


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
    """One decoded and priced instruction word."""

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


class Cpu:
    """RV32IM core with 4-stage pipeline timing.

    Parameters
    ----------
    dbus:
        Data port (system bus: NVDLA registers + DRAM).

    Until :meth:`load_program` gives it a program, every pc faults.
    """

    def __init__(self, dbus: BusPort) -> None:
        self.dbus = dbus
        self.pipeline = PipelineModel()
        self.reset_pc = 0
        self._program = Program()
        self._table: dict[int, _Entry] = {}
        self.console = bytearray()
        self.csrs: dict[int, int] = {}
        self.poll = _PollTracker()
        self.reset()

    # ------------------------------------------------------------------
    # Control.
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Return to the reset state (the decode table survives: it
        depends only on the loaded program)."""
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

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def execute(
        self,
        budget: int,
        clock: Clock | None = None,
        poll_threshold: int | None = None,
    ) -> None:
        """Run up to ``budget`` instructions.

        The core's one interpreter loop.  It stops after the instruction
        that halts the core, after ``budget`` instructions, or — given
        ``poll_threshold`` — after a load that lifts the poll streak to
        the threshold or above.  Given ``clock``, each instruction's
        bus access happens at the clock's pre-instruction time and its
        cycles advance the clock afterwards; :meth:`Clock.advance_to`
        runs only when an event is due, so callbacks fire at their
        exact cycle.  ``pc``, ``cycles`` and ``instret`` are current
        whenever CSR, ecall or fault code reads them and on return.
        """
        if self.halted or budget <= 0:
            return
        table = self._table
        regs = self.regs
        charge = self.pipeline.charge
        dbus = self.dbus
        poll = self.poll
        threshold = poll_threshold if poll_threshold is not None else _NO_POLL_STOP
        route = dbus.register_route
        if route is None:  # an empty window: every access takes the port
            reg_base, reg_last, reg_read, reg_write, reg_wait = 1, 0, None, None, 0
        else:
            reg_base, reg_last = route.base, route.limit - 3
            reg_read, reg_write = route.read, route.write
            reg_wait = max(0, route.cycles - 1)
        pc = self.pc
        cycles = self.cycles
        instret = self.instret
        executed = 0
        try:
            while executed < budget:
                entry = table.get(pc)
                if entry is None:
                    raise self._fault_at(pc)
                kind, op, rd, rs1, rs2, imm, cost = entry
                bus_wait = FETCH_WAIT  # data waits add to it
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
                    try:
                        if reg_base <= address <= reg_last and op == 4 and not address & 3:
                            reg_write(address - reg_base, regs[rs2])
                            bus_wait += reg_wait
                        else:
                            value = regs[rs2] & ((1 << (op << 3)) - 1)
                            reply = dbus.write(address, value, op, master="cpu")
                            if reply.cycles > 1:
                                bus_wait += reply.cycles - 1
                    except Exception as exc:
                        raise CpuFault(f"store fault at 0x{address:08x}: {exc}", pc=pc) from exc
                    if poll.pc != -1:  # not already reset
                        poll.reset()
                elif kind == _LOAD or kind == _LOAD_SIGNED:
                    address = (regs[rs1] + imm) & _MASK
                    try:
                        if reg_base <= address <= reg_last and op == 4 and not address & 3:
                            value = reg_read(address - reg_base)
                            bus_wait += reg_wait
                        else:
                            reply = dbus.read(address, op, master="cpu")
                            value = reply.value()
                            if reply.cycles > 1:
                                bus_wait += reply.cycles - 1
                    except Exception as exc:
                        raise CpuFault(f"load fault at 0x{address:08x}: {exc}", pc=pc) from exc
                    if kind == _LOAD_SIGNED:
                        half = 1 << ((op << 3) - 1)
                        value = (((value & ((half << 1) - 1)) ^ half) - half) & _MASK
                    if rd:
                        regs[rd] = value & _MASK
                    poll.observe_load(pc, address, value)
                    if poll.streak >= threshold:
                        budget = executed + 1
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
                    self.cycles, self.instret = cycles, instret
                    self._execute_csr(op)
                elif kind == _ECALL:
                    self.pc = pc
                    self._execute_ecall()
                    if self.halted:
                        budget = executed + 1
                elif kind == _EBREAK:
                    self.halted = True
                    if self.exit_code is None:
                        self.exit_code = 0
                    budget = executed + 1
                # _NOP (fence): nothing to do.

                spent = charge(cost, taken, bus_wait)
                cycles += spent
                instret += 1
                executed += 1
                pc = next_pc
                if clock is not None:
                    now = clock.now + spent
                    if now >= clock.due:
                        clock.advance_to(now)
                    else:
                        clock.now = now
        finally:
            self.pc, self.cycles, self.instret = pc, cycles, instret

    def step(self) -> int:
        """Execute one instruction; return its cycle cost."""
        before = self.cycles
        self.execute(1)
        return self.cycles - before

    def run(self, max_instructions: int = 10_000_000) -> CpuState:
        """Run until halt or the instruction budget is exhausted."""
        self.execute(max_instructions)
        if not self.halted:
            raise CpuFault(f"program did not halt within {max_instructions} instructions", pc=self.pc)
        return self.state()

    def load_program(self, program: Program) -> None:
        """Decode ``program`` into the decode table and reset to its entry.

        Each distinct word is decoded and priced once, and every pc
        holding it maps to that entry.  A word that does not decode
        gets no entry: it faults only if its pc executes.
        """
        entries: dict[int, _Entry | None] = {}
        for word in set(program.words):
            try:
                decoded = decode(word)
            except IsaError:
                entries[word] = None
            else:
                entries[word] = _Entry(*_operation(decoded), static_cost(decoded))
        pcs = range(program.base, program.end, 4)
        self._table = {
            pc: entry
            for pc, entry in zip(pcs, map(entries.__getitem__, program.words))
            if entry is not None
        }
        self._program = program
        self.reset_pc = program.entry if program.entry is not None else program.base
        self.reset()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _fault_at(self, pc: int) -> CpuFault:
        """The fault of executing ``pc``, which has no decode-table entry."""
        program = self._program
        if program.base <= pc < program.end and not pc & 3:
            word = program.words[(pc - program.base) >> 2]
            try:
                decode(word)
            except IsaError as exc:
                return CpuFault(f"illegal instruction 0x{word:08x}: {exc}", pc=pc)
        return CpuFault(
            f"no instruction at 0x{pc:08x}: the program holds "
            f"[0x{program.base:08x}, 0x{program.end:08x})",
            pc=pc,
        )

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
