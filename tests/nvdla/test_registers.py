"""Register blocks: ping-pong shadows, enable protocol, GLB interrupts."""

from __future__ import annotations

import pytest

from repro.errors import RegisterError
from repro.nvdla.registers import (
    D_OP_ENABLE,
    FIRST_DESCRIPTOR_OFFSET,
    GroupStatus,
    RegisterBlock,
    RegisterSpec,
    S_POINTER,
    S_STATUS,
)
from repro.nvdla.units.glb import Glb, HW_VERSION, HW_VERSION_VALUE, INTR_MASK, INTR_SET, INTR_STATUS, interrupt_bit


def _block() -> RegisterBlock:
    specs = [
        RegisterSpec("D_A", FIRST_DESCRIPTOR_OFFSET),
        RegisterSpec("D_B", FIRST_DESCRIPTOR_OFFSET + 4),
    ]
    return RegisterBlock("TEST", specs)


def test_writes_land_in_producer_group():
    block = _block()
    block.csb_write(FIRST_DESCRIPTOR_OFFSET, 11)
    block.csb_write(S_POINTER, 1)
    block.csb_write(FIRST_DESCRIPTOR_OFFSET, 22)
    assert block.value("D_A", 0) == 11
    assert block.value("D_A", 1) == 22


def test_read_returns_producer_view():
    block = _block()
    block.csb_write(FIRST_DESCRIPTOR_OFFSET, 5)
    block.csb_write(S_POINTER, 1)
    assert block.csb_read(FIRST_DESCRIPTOR_OFFSET) == 0
    block.csb_write(S_POINTER, 0)
    assert block.csb_read(FIRST_DESCRIPTOR_OFFSET) == 5


def test_enable_launch_complete_lifecycle():
    block = _block()
    block.csb_write(D_OP_ENABLE, 1)
    assert block.status[0] is GroupStatus.PENDING
    assert block.pending_group() == 0
    block.launch(0)
    assert block.status[0] is GroupStatus.RUNNING
    assert block.busy()
    block.complete(0)
    assert block.status[0] is GroupStatus.IDLE
    assert block.consumer == 1
    assert not block.busy()


def test_double_enable_rejected():
    block = _block()
    block.csb_write(D_OP_ENABLE, 1)
    with pytest.raises(RegisterError):
        block.enable_group(0)


def test_launch_without_enable_rejected():
    block = _block()
    with pytest.raises(RegisterError):
        block.launch(0)


def test_pingpong_both_groups_pending():
    block = _block()
    block.csb_write(D_OP_ENABLE, 1)  # group 0
    block.csb_write(S_POINTER, 1)
    block.csb_write(D_OP_ENABLE, 1)  # group 1
    block.launch(0)
    block.complete(0)
    assert block.pending_group() == 1


def test_status_word_encodes_both_groups():
    block = _block()
    block.csb_write(D_OP_ENABLE, 1)
    block.launch(0)
    status = block.csb_read(S_STATUS)
    assert status & 0xFFFF == GroupStatus.RUNNING
    assert (status >> 16) == GroupStatus.IDLE


def test_s_status_read_only():
    block = _block()
    with pytest.raises(RegisterError):
        block.csb_write(S_STATUS, 1)


def test_unknown_offset_rejected():
    block = _block()
    with pytest.raises(RegisterError):
        block.csb_read(0x500)
    with pytest.raises(RegisterError):
        block.csb_write(0x500, 1)


def test_value64_combines_pairs():
    specs = [
        RegisterSpec("HI", FIRST_DESCRIPTOR_OFFSET),
        RegisterSpec("LO", FIRST_DESCRIPTOR_OFFSET + 4),
    ]
    block = RegisterBlock("T", specs)
    block.csb_write(FIRST_DESCRIPTOR_OFFSET, 0x1)
    block.csb_write(FIRST_DESCRIPTOR_OFFSET + 4, 0x2345)
    assert block.value64("HI", "LO", 0) == 0x100002345


def test_duplicate_register_specs_rejected():
    with pytest.raises(RegisterError):
        RegisterBlock(
            "T",
            [
                RegisterSpec("A", FIRST_DESCRIPTOR_OFFSET),
                RegisterSpec("B", FIRST_DESCRIPTOR_OFFSET),
            ],
        )
    with pytest.raises(RegisterError):
        RegisterBlock(
            "T",
            [
                RegisterSpec("A", FIRST_DESCRIPTOR_OFFSET),
                RegisterSpec("A", FIRST_DESCRIPTOR_OFFSET + 4),
            ],
        )


def test_reset_restores_defaults():
    block = _block()
    block.csb_write(FIRST_DESCRIPTOR_OFFSET, 9)
    block.csb_write(D_OP_ENABLE, 1)
    block.reset()
    assert block.csb_read(FIRST_DESCRIPTOR_OFFSET) == 0
    assert block.pending_group() is None


# ----------------------------------------------------------------------
# GLB.
# ----------------------------------------------------------------------


def test_glb_version_register():
    glb = Glb()
    assert glb.csb_read(HW_VERSION) == HW_VERSION_VALUE
    with pytest.raises(RegisterError):
        glb.csb_write(HW_VERSION, 0)


def test_glb_interrupt_set_and_clear():
    glb = Glb()
    glb.raise_interrupt("SDP", 0)
    bit = 1 << interrupt_bit("SDP", 0)
    assert glb.csb_read(INTR_STATUS) == bit
    glb.csb_write(INTR_STATUS, bit)  # W1C
    assert glb.csb_read(INTR_STATUS) == 0


def test_glb_w1c_only_clears_written_bits():
    glb = Glb()
    glb.raise_interrupt("SDP", 0)
    glb.raise_interrupt("PDP", 1)
    glb.csb_write(INTR_STATUS, 1 << interrupt_bit("SDP", 0))
    assert glb.csb_read(INTR_STATUS) == 1 << interrupt_bit("PDP", 1)


def test_glb_mask_suppresses_irq_line():
    glb = Glb()
    glb.csb_write(INTR_MASK, 1 << interrupt_bit("SDP", 0))
    glb.raise_interrupt("SDP", 0)
    assert glb.pending() == 0  # masked
    glb.raise_interrupt("PDP", 0)
    assert glb.pending() != 0


def test_glb_software_set():
    glb = Glb()
    glb.csb_write(INTR_SET, 0b100)
    assert glb.csb_read(INTR_STATUS) == 0b100


def test_interrupt_bits_unique_per_unit_group():
    bits = {
        interrupt_bit(unit, group)
        for unit in ("CACC", "SDP", "CDP", "RUBIK", "PDP", "BDMA")
        for group in (0, 1)
    }
    assert len(bits) == 12


def test_unknown_interrupt_unit_rejected():
    with pytest.raises(RegisterError):
        interrupt_bit("CDMA", 0)


# ----------------------------------------------------------------------
# Register files built by fresh_units() from shared per-type tables.
# ----------------------------------------------------------------------


def _declared_registers() -> dict[str, list[str]]:
    from repro.nvdla.units import cacc, cdma, cdp, cmac, csc, pdp, sdp

    return {
        "CDMA": cdma.REGISTER_NAMES,
        "CSC": csc.REGISTER_NAMES,
        "CMAC_A": cmac.REGISTER_NAMES,
        "CMAC_B": cmac.REGISTER_NAMES,
        "CACC": cacc.REGISTER_NAMES,
        "SDP_RDMA": sdp.RDMA_REGISTER_NAMES,
        "SDP": sdp.SDP_REGISTER_NAMES,
        "PDP_RDMA": pdp.RDMA_REGISTER_NAMES,
        "PDP": pdp.PDP_REGISTER_NAMES,
        "CDP_RDMA": cdp.RDMA_REGISTER_NAMES,
        "CDP": cdp.CDP_REGISTER_NAMES,
    }


def _assert_at_reset(units) -> None:
    for name, unit in units.items():
        block = unit.block
        assert (block.producer, block.consumer) == (0, 0), name
        assert block.status == [GroupStatus.IDLE, GroupStatus.IDLE], name
        assert block.enabled == [False, False], name
        for register in block.register_names():
            assert unit.reg(register, 0) == unit.reg(register, 1) == 0, (name, register)


def test_fresh_units_match_each_declared_register_list():
    from repro.nvdla.units import fresh_units

    units = fresh_units()
    declared = _declared_registers()
    assert sorted(units) == sorted(declared)
    for name, unit in units.items():
        assert unit.name == unit.block.unit_name == name
        assert unit.block.register_names() == declared[name]
        for index, register in enumerate(declared[name]):
            assert unit.offset_of(register) == FIRST_DESCRIPTOR_OFFSET + 4 * index
    _assert_at_reset(units)


def test_fresh_units_share_no_mutable_state():
    """Writes, launches and resets of one register file leave another
    ``fresh_units()`` result, and the next one, at reset values."""
    from repro.nvdla.units import fresh_units

    first, second = fresh_units(), fresh_units()
    for unit in first.values():
        for group in (0, 1):
            unit.csb_write(S_POINTER, group)
            for register in unit.block.register_names():
                unit.csb_write(unit.offset_of(register), 0x1000 + group)
            unit.csb_write(D_OP_ENABLE, 1)
        unit.block.launch(0)
    assert first["CDMA"].reg(first["CDMA"].block.register_names()[0], 1) == 0x1001
    _assert_at_reset(second)
    _assert_at_reset(fresh_units())

    for unit in first.values():
        unit.reset()
    _assert_at_reset(first)
    for unit in second.values():
        register = unit.block.register_names()[-1]
        unit.csb_write(unit.offset_of(register), 7)
        unit.reset()
    _assert_at_reset(second)
    _assert_at_reset(fresh_units())
