"""4-stage pipeline timing: hazards, flushes, multi-cycle EX."""

from __future__ import annotations

from repro.riscv.isa import decode, encode
from repro.riscv.pipeline import (
    DIV_CYCLES,
    JUMP_PENALTY,
    LOAD_USE_PENALTY,
    MUL_CYCLES,
    TAKEN_BRANCH_PENALTY,
    PipelineModel,
)


def _d(mnemonic, **fields):
    return decode(encode(mnemonic, **fields))


def test_alu_instruction_is_single_cycle():
    model = PipelineModel()
    assert model.instruction_cycles(_d("add", rd=1, rs1=2, rs2=3)) == 1


def test_load_use_hazard_stalls_one_cycle():
    model = PipelineModel()
    model.instruction_cycles(_d("lw", rd=5, rs1=2, imm=0))
    cost = model.instruction_cycles(_d("add", rd=6, rs1=5, rs2=0))
    assert cost == 1 + LOAD_USE_PENALTY
    assert model.stats.load_use_stalls == 1


def test_load_then_independent_op_no_stall():
    model = PipelineModel()
    model.instruction_cycles(_d("lw", rd=5, rs1=2, imm=0))
    assert model.instruction_cycles(_d("add", rd=6, rs1=7, rs2=8)) == 1


def test_load_into_x0_never_stalls():
    model = PipelineModel()
    model.instruction_cycles(_d("lw", rd=0, rs1=2, imm=0))
    assert model.instruction_cycles(_d("add", rd=6, rs1=0, rs2=0)) == 1


def test_hazard_window_is_one_instruction():
    model = PipelineModel()
    model.instruction_cycles(_d("lw", rd=5, rs1=2, imm=0))
    model.instruction_cycles(_d("add", rd=6, rs1=7, rs2=8))  # gap
    assert model.instruction_cycles(_d("add", rd=9, rs1=5, rs2=5)) == 1


def test_taken_branch_flushes_frontend():
    model = PipelineModel()
    taken = model.instruction_cycles(_d("beq", rs1=1, rs2=2, imm=8), taken=True)
    not_taken = model.instruction_cycles(_d("beq", rs1=1, rs2=2, imm=8), taken=False)
    assert taken == 1 + TAKEN_BRANCH_PENALTY
    assert not_taken == 1
    assert model.stats.control_flushes == 1


def test_jumps_always_pay_redirect():
    model = PipelineModel()
    assert model.instruction_cycles(_d("jal", rd=1, imm=8), taken=True) == 1 + JUMP_PENALTY


def test_muldiv_iterates_in_ex():
    model = PipelineModel()
    mul = model.instruction_cycles(_d("mul", rd=1, rs1=2, rs2=3))
    div = model.instruction_cycles(_d("div", rd=1, rs1=2, rs2=3))
    assert mul == MUL_CYCLES
    assert div == DIV_CYCLES
    assert model.stats.muldiv_stalls == (MUL_CYCLES - 1) + (DIV_CYCLES - 1)


def test_bus_wait_states_accumulate():
    model = PipelineModel()
    cost = model.instruction_cycles(_d("lw", rd=1, rs1=2, imm=0), bus_wait=13)
    assert cost == 1 + 13
    assert model.stats.bus_wait_cycles == 13


def test_cpi_accounting():
    model = PipelineModel()
    for _ in range(10):
        model.instruction_cycles(_d("add", rd=1, rs1=2, rs2=3))
    assert model.stats.cpi == 1.0
    model.instruction_cycles(_d("div", rd=1, rs1=2, rs2=3))
    assert model.stats.cpi > 1.0


def test_reset_clears_state():
    model = PipelineModel()
    model.instruction_cycles(_d("lw", rd=5, rs1=2, imm=0))
    model.reset()
    assert model.stats.instructions == 0
    assert model.instruction_cycles(_d("add", rd=6, rs1=5, rs2=0)) == 1  # no stale hazard


def test_class_histogram():
    model = PipelineModel()
    model.instruction_cycles(_d("lw", rd=1, rs1=2, imm=0))
    model.instruction_cycles(_d("sw", rs1=2, rs2=1, imm=0))
    model.instruction_cycles(_d("beq", rs1=1, rs2=2, imm=8))
    model.instruction_cycles(_d("jal", rd=0, imm=8), taken=True)
    model.instruction_cycles(_d("mul", rd=1, rs1=1, rs2=1))
    model.instruction_cycles(_d("add", rd=1, rs1=1, rs2=1))
    assert model.stats.by_class == {
        "load": 1,
        "store": 1,
        "branch": 1,
        "jump": 1,
        "muldiv": 1,
        "alu": 1,
    }

