"""ISS semantics: every instruction class, hazards, CSRs, semihosting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bus.types import BusPort, Reply, Transfer, AccessType
from repro.errors import CpuFault
from repro.riscv import Cpu, assemble
from repro.riscv.isa import to_s32


class _FlatBus(BusPort):
    """1-cycle flat data memory for semantics tests."""

    def __init__(self, size: int = 1 << 16) -> None:
        self.store = bytearray(size)

    def transfer(self, xfer: Transfer) -> Reply:
        end = xfer.end_address
        if end > len(self.store):
            raise ValueError(f"access beyond memory: 0x{xfer.address:08x}")
        if xfer.access is AccessType.WRITE:
            self.store[xfer.address : end] = xfer.data
            return Reply(cycles=1)
        return Reply(data=bytes(self.store[xfer.address : end]), cycles=1)


def run_asm(source: str, max_instructions: int = 100_000) -> Cpu:
    cpu = Cpu(_FlatBus())
    cpu.load_program(assemble(source))
    cpu.run(max_instructions=max_instructions)
    return cpu


def exit_value(source_body: str) -> int:
    """Run a fragment that leaves its result in a0, return it signed."""
    source = source_body + "\n    li a7, 93\n    ecall\n"
    return to_s32(run_asm(source).regs[10])


def test_arithmetic_basics():
    assert exit_value("li a0, 2\n li t0, 3\n add a0, a0, t0") == 5
    assert exit_value("li a0, 2\n li t0, 3\n sub a0, a0, t0") == -1
    assert exit_value("li a0, -1\n srli a0, a0, 28") == 0xF
    assert exit_value("li a0, -16\n srai a0, a0, 2") == -4
    assert exit_value("li a0, 5\n slli a0, a0, 3") == 40


def test_logic_and_compare():
    assert exit_value("li a0, 0xF0\n andi a0, a0, 0x3C") == 0x30
    assert exit_value("li a0, 0xF0\n ori a0, a0, 0x0F") == 0xFF
    assert exit_value("li a0, 0xFF\n xori a0, a0, 0x0F") == 0xF0
    assert exit_value("li t0, -5\n li t1, 3\n slt a0, t0, t1") == 1
    assert exit_value("li t0, -5\n li t1, 3\n sltu a0, t0, t1") == 0


def test_x0_is_hardwired_zero():
    assert exit_value("li t0, 99\n add x0, t0, t0\n mv a0, x0") == 0


@pytest.mark.parametrize(
    "a,b,op,expected",
    [
        (7, 3, "mul", 21),
        (-7, 3, "mul", -21),
        (0x7FFFFFFF, 2, "mulh", 0),
        (-1, -1, "mulhu", 0xFFFFFFFE),  # (2^32-1)^2 >> 32
        (7, 2, "div", 3),
        (-7, 2, "div", -3),  # toward zero
        (7, -2, "div", -3),
        (7, 2, "rem", 1),
        (-7, 2, "rem", -1),  # sign of dividend
        (7, 0, "div", -1),  # div by zero
        (7, 0, "rem", 7),
        (-(1 << 31), -1, "div", -(1 << 31)),  # overflow case
        (-(1 << 31), -1, "rem", 0),
    ],
)
def test_m_extension_semantics(a, b, op, expected):
    value = exit_value(f"li t0, {a}\n li t1, {b}\n {op} a0, t0, t1")
    assert value == to_s32(expected)


def test_mulhu_exact():
    # (2^32 - 1)^2 = 2^64 - 2^33 + 1 -> high word = 2^32 - 2 = 0xFFFFFFFE
    got = exit_value("li t0, -1\n li t1, -1\n mulhu a0, t0, t1")
    assert got == to_s32(0xFFFFFFFE)


def test_loads_and_stores_with_sign_extension():
    body = """
        li t0, 0x1000
        li t1, 0xFFFFFF85
        sb t1, 0(t0)
        lb a0, 0(t0)
    """
    assert exit_value(body) == -123
    body = body.replace("lb a0", "lbu a0")
    assert exit_value(body) == 0x85
    half = """
        li t0, 0x1000
        li t1, 0x8001
        sh t1, 2(t0)
        lh a0, 2(t0)
    """
    assert exit_value(half) == to_s32(0xFFFF8001)
    assert exit_value(half.replace("lh a0", "lhu a0")) == 0x8001


def test_word_store_load_roundtrip():
    assert exit_value(
        "li t0, 0x2000\n li t1, 0x CAFEBABE\n sw t1, 4(t0)\n lw a0, 4(t0)".replace(" CAFEBABE", "0xCAFEBABE"[2:])
    ) == to_s32(0xCAFEBABE)


def test_branches_all_variants():
    for op, a, b, taken in [
        ("beq", 1, 1, True),
        ("beq", 1, 2, False),
        ("bne", 1, 2, True),
        ("blt", -1, 1, True),
        ("bge", 1, -1, True),
        ("bltu", 1, 0xFFFFFFFF, True),
        ("bgeu", 0xFFFFFFFF, 1, True),
    ]:
        body = f"""
            li t0, {a}
            li t1, {b}
            li a0, 0
            {op} t0, t1, yes
            li a0, 1
            j end
        yes:
            li a0, 2
        end:
        """
        assert exit_value(body) == (2 if taken else 1)


def test_jal_jalr_link_register():
    body = """
        jal ra, sub
        mv a0, t5
        j end
    sub:
        li t5, 7
        ret
    end:
    """
    assert exit_value(body) == 7


def test_auipc_pc_relative():
    cpu = run_asm("start: auipc a0, 0\n li a7, 93\n ecall\n")
    assert to_s32(cpu.regs[10]) == 0


def test_fibonacci_program():
    body = """
        li t0, 10      # n
        li a0, 0
        li t1, 1
    fib:
        beqz t0, done
        add t2, a0, t1
        mv a0, t1
        mv t1, t2
        addi t0, t0, -1
        j fib
    done:
    """
    assert exit_value(body) == 55


def test_memcpy_program():
    body = """
        li t0, 0x100      # src
        li t1, 0x200      # dst
        li t2, 0x11223344
        sw t2, 0(t0)
        li t3, 4          # bytes
    copy:
        beqz t3, check
        lbu t4, 0(t0)
        sb t4, 0(t1)
        addi t0, t0, 1
        addi t1, t1, 1
        addi t3, t3, -1
        j copy
    check:
        li t1, 0x200
        lw a0, 0(t1)
    """
    assert exit_value(body) == 0x11223344


def test_csr_counters_monotonic():
    cpu = run_asm(
        """
        csrr s0, mcycle
        nop
        nop
        csrr s1, mcycle
        csrr s2, minstret
        li a7, 93
        li a0, 0
        ecall
        """
    )
    assert cpu.regs[9] > cpu.regs[8]  # s1 > s0
    assert cpu.regs[18] >= 4


def test_csr_write_and_read_back():
    cpu = run_asm(
        """
        li t0, 0x1234
        csrw mtvec, t0
        csrr a0, mtvec
        li a7, 93
        ecall
        """
    )
    assert cpu.exit_code == 0x1234


def test_putchar_console():
    cpu = run_asm(
        """
        li a0, 'H'
        li a7, 64
        ecall
        li a0, 'i'
        li a7, 64
        ecall
        li a0, 0
        li a7, 93
        ecall
        """
    )
    assert cpu.console_text() == "Hi"


def test_ebreak_halts_with_zero():
    cpu = run_asm("nop\nebreak\n")
    assert cpu.halted and cpu.exit_code == 0


def test_unsupported_ecall_faults():
    with pytest.raises(CpuFault):
        run_asm("li a7, 1234\necall\n")


def test_runaway_program_faults():
    with pytest.raises(CpuFault):
        run_asm("loop: j loop\n", max_instructions=100)


def test_load_fault_includes_pc():
    with pytest.raises(CpuFault) as excinfo:
        run_asm("li t0, 0x70000000\nlw a0, 0(t0)\nebreak\n")
    assert excinfo.value.pc is not None


def test_load_program_rebuilds_decode_table():
    """Decoded entries survive :meth:`Cpu.reset` but never a program load."""
    cpu = run_asm("li a0, 5\n li t0, 3\n add a0, a0, t0\n li a7, 93\n ecall\n")
    assert cpu.regs[10] == 8
    cpu.reset()
    cpu.run()
    assert cpu.regs[10] == 8
    program_b = assemble("li a0, 5\n li t0, 3\n sub a0, a0, t0\n li a7, 93\n ecall\n")
    cpu.load_program(program_b)
    cpu.run()
    fresh = Cpu(_FlatBus())
    fresh.load_program(program_b)
    fresh.run()
    assert cpu.regs[10] == fresh.regs[10] == 2
    assert cpu.cycles == fresh.cycles
    assert cpu.pipeline.stats == fresh.pipeline.stats


@pytest.mark.parametrize(
    "source",
    ["li a0, 1\n nop\n", "li t0, 0x4000\n jr t0\n"],
    ids=["falls-off-last-word", "jumps-past-end"],
)
def test_pc_outside_the_program_faults_with_the_pc(source):
    program = assemble(source)
    cpu = Cpu(_FlatBus())
    cpu.load_program(program)
    with pytest.raises(CpuFault, match="no instruction at") as excinfo:
        cpu.run()
    target = program.end if "nop" in source else 0x4000
    assert excinfo.value.pc == cpu.pc == target
    assert cpu.instret == len(program.words)  # every word ran once, then the fault


def test_illegal_word_faults_only_when_executed():
    program = assemble("li a0, 1\n j done\n .word 0xFFFFFFFF\ndone:\n li a7, 93\n ecall\n")
    cpu = Cpu(_FlatBus())
    cpu.load_program(program)
    cpu.run()
    assert cpu.exit_code == 1
    illegal_pc = program.to_bytes().index(b"\xff" * 4)
    cpu.reset_pc = illegal_pc
    cpu.reset()
    with pytest.raises(CpuFault, match="illegal instruction 0xffffffff") as excinfo:
        cpu.step()
    assert excinfo.value.pc == illegal_pc


#: Memory traffic, a load-use stall, multi-cycle EX, taken and untaken
#: branches, counters read mid-program and an illegal word that faults
#: only if executed.
STEP_PROGRAM = """
    li a0, 3
    li t0, 0x100
    sw a0, 0(t0)
    lw a1, 0(t0)
    add a2, a1, a1
counters:
    csrr s0, mcycle
    csrr s1, minstret
    mul a3, a2, a2
    bnez zero, skip
    beqz zero, skip
    .word 0xFFFFFFFF
skip:
    div a4, a3, a0
    csrr s2, mcycle
    li a7, 93
    ecall
"""


def test_stepping_equals_run():
    """:meth:`Cpu.step` and :meth:`Cpu.run` share one interpreter loop:
    a program driven one step at a time ends in the run's exact state,
    counters read mid-program included."""
    program = assemble(STEP_PROGRAM)
    stepped = Cpu(_FlatBus())
    stepped.load_program(program)
    before = {}  # pc -> (instret, cycles) before its first execution
    while not stepped.halted:
        before.setdefault(stepped.pc, (stepped.instret, stepped.cycles))
        stepped.step()
    assert stepped.step() == 0  # a halted core does nothing
    ran = Cpu(_FlatBus())
    ran.load_program(program)
    ran.run()
    assert stepped.state() == ran.state()
    assert stepped.pipeline.stats == ran.pipeline.stats
    assert ran.cycles == ran.pipeline.stats.cycles
    instret, cycles = before[program.symbols["counters"]]
    assert ran.regs[8] == cycles > 0  # s0 = mcycle before the csrr
    assert ran.regs[9] == instret + 1  # s1 = minstret, one csrr later
    assert ran.regs[18] > ran.regs[8]
    assert ran.regs[14] == 12 and ran.exit_code == 3


def test_poll_tracker_detects_streak():
    cpu = Cpu(_FlatBus())
    cpu.load_program(
        assemble(
            """
        li t0, 0x100
    poll:
        lw t1, 0(t0)
        beqz t1, poll
        """
        )
    )
    for _ in range(40):
        cpu.step()
    assert cpu.poll.streak > 5
    assert cpu.poll.address == 0x100


@settings(max_examples=25)
@given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000))
def test_add_matches_python(a, b):
    assert exit_value(f"li t0, {a}\n li t1, {b}\n add a0, t0, t1") == to_s32(a + b)


@settings(max_examples=25)
@given(a=st.integers(-(2**31), 2**31 - 1), b=st.integers(-(2**31), 2**31 - 1).filter(lambda v: v != 0))
def test_div_rem_invariant(a, b):
    """RISC-V guarantees a == div(a,b)*b + rem(a,b) (toward-zero)."""
    q = exit_value(f"li t0, {a}\n li t1, {b}\n div a0, t0, t1")
    r = exit_value(f"li t0, {a}\n li t1, {b}\n rem a0, t0, t1")
    if a != -(1 << 31) or b != -1:
        assert q * b + r == a
