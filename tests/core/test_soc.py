"""SoC-level tests: address map, arbiter, wrapper, executor, test system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baremetal import generate_baremetal
from repro.baremetal.codegen import MAGIC_DONE, MAGIC_FAIL
from repro.bus.ahb import AhbLiteBus
from repro.bus.apb import ApbBus
from repro.bus.bridges import AhbToApbBridge, ApbToCsbAdapter
from repro.core import DEFAULT_MAP, Soc, TestSystem
from repro.core.address_map import DRAM_BASE, DRAM_SIZE, NVDLA_LIMIT
from repro.core.nvdla_wrapper import CsbPort
from repro.errors import BusError, CpuFault
from repro.nvdla import NV_SMALL
from repro.riscv import assemble


# ----------------------------------------------------------------------
# Address map.
# ----------------------------------------------------------------------


def test_address_map_matches_paper():
    assert DEFAULT_MAP.nvdla_base == 0x0
    assert DEFAULT_MAP.nvdla_limit == 0xFFFFF
    assert DEFAULT_MAP.dram_base == 0x100000
    assert DEFAULT_MAP.dram_limit == 0x200FFFFF
    assert DEFAULT_MAP.dram_size == 512 * 1024 * 1024


def test_address_map_description():
    assert "512 MiB" in DEFAULT_MAP.describe()


# ----------------------------------------------------------------------
# SoC construction and plumbing.
# ----------------------------------------------------------------------


@pytest.fixture
def soc():
    return Soc(NV_SMALL, frequency_hz=100e6)


def test_cpu_can_write_dram_through_system_bus(soc):
    program = assemble(
        f"""
        li t0, 0x{DRAM_BASE + 0x2000:08x}
        li t1, 0x12345678
        sw t1, 0(t0)
        lw a0, 0(t0)
        li a7, 93
        ecall
        """
    )
    soc.load_program(program)
    soc.executor.run()
    assert soc.cpu.exit_code == 0x12345678
    assert soc.dram.storage.read_u32(0x2000) == 0x12345678


def test_cpu_can_read_nvdla_version_register(soc):
    from repro.nvdla.units.glb import HW_VERSION_VALUE

    program = assemble(
        """
        li t0, 0x0
        lw a0, 0(t0)     # GLB HW_VERSION
        li a7, 93
        ecall
        """
    )
    soc.load_program(program)
    soc.executor.run()
    assert soc.cpu.regs[10] == HW_VERSION_VALUE


def test_access_above_dram_window_faults(soc):
    program = assemble("li t0, 0x30000000\nlw a0, 0(t0)\nebreak\n")
    soc.load_program(program)
    with pytest.raises(CpuFault):
        soc.executor.run()


def test_nvdla_register_write_costs_more_than_bram(soc):
    """A store over the AHB→APB→CSB path costs exactly the composed hop
    latency beyond a plain ALU op."""
    program = assemble(
        """
        li t0, 0x0000B010
        li t1, 1
        nop
        ebreak
        """
    )
    soc.load_program(program)
    cycles_before = soc.cpu.cycles
    soc.executor.run()
    # Now with the store through the register path:
    program2 = assemble(
        """
        li t0, 0x0000B00C
        li t1, 0
        sw t1, 0(t0)
        ebreak
        """
    )
    soc2 = Soc(NV_SMALL)
    soc2.load_program(program2)
    soc2.executor.run()
    assert soc2.cpu.instret == soc.cpu.instret
    # AHB address phase, AHB→APB crossing, APB setup + access, and the
    # APB→CSB adapter crossing plus the CSB round trip as PREADY wait
    # states beyond the completer's first cycle.
    access = (
        AhbLiteBus.ADDRESS_PHASE_CYCLES
        + AhbToApbBridge.CROSSING_CYCLES
        + ApbBus.SETUP_CYCLES
        + ApbBus.ACCESS_CYCLES
        + ApbToCsbAdapter.CROSSING_CYCLES
        + CsbPort.CSB_CYCLES
        - 1
    )
    assert access == 6
    # The pipeline charges the access beyond the store's own cycle.
    assert soc2.cpu.cycles == soc.cpu.cycles + access - 1


def test_program_reload_rebuilds_decode_table(soc):
    """Program B loaded over program A on a used SoC runs exactly as on
    a fresh SoC: no decode-table entry of A survives the load."""
    program_a = assemble(
        f"""
        li t0, 0x{DRAM_BASE + 0x100:08x}
        li t1, 7
        sw t1, 0(t0)
    loop:
        addi t1, t1, -1
        bnez t1, loop
        li a0, 1
        li a7, 93
        ecall
        """
    )
    program_b = assemble(
        f"""
        li t0, 0x0000B00C
        lw t1, 0(t0)
        mul t2, t1, t1
        li t3, 0x{DRAM_BASE + 0x104:08x}
        sh t2, 2(t3)
        lw a0, 0(t3)
        li a7, 93
        ecall
        """
    )

    def observe(target: Soc) -> tuple:
        stats = target.executor.run()
        return (stats, target.cpu.pipeline.stats, tuple(target.cpu.regs), target.cpu.exit_code)

    soc.load_program(program_a)
    first = observe(soc)
    soc.reset_for_run()
    soc.load_program(program_b)
    reloaded = observe(soc)
    fresh = Soc(NV_SMALL)
    fresh.load_program(program_b)
    assert reloaded == observe(fresh)
    assert reloaded[3] != first[3]


def test_preload_and_describe(soc):
    soc.preload_dram(DRAM_BASE + 0x100, b"\x42")
    assert soc.dram.storage.read_u8(0x100) == 0x42
    assert "NVDLA" in soc.describe() or "nv_small" in soc.describe()


# ----------------------------------------------------------------------
# Full bare-metal inference on the SoC.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def lenet_bundle():
    from repro.nn.zoo import lenet5

    return generate_baremetal(lenet5(), NV_SMALL)


def test_lenet_inference_succeeds(lenet_bundle):
    soc = Soc(NV_SMALL)
    soc.load_bundle(lenet_bundle)
    result = soc.run_inference(lenet_bundle)
    assert result.ok
    assert result.status_word == MAGIC_DONE
    assert result.cycles > 100_000


def test_soc_output_matches_vp_bit_exactly(lenet_bundle):
    soc = Soc(NV_SMALL)
    soc.load_bundle(lenet_bundle)
    result = soc.run_inference(lenet_bundle)
    assert np.array_equal(result.output, lenet_bundle.vp_result.output)


def test_poll_fast_forward_dominates(lenet_bundle):
    soc = Soc(NV_SMALL)
    soc.load_bundle(lenet_bundle)
    result = soc.run_inference(lenet_bundle)
    assert result.stats.fast_forwards >= lenet_bundle.loadable.hw_op_count()
    assert result.stats.poll_fraction > 0.5  # NVDLA dominates, CPU waits


def test_mcycle_csr_consistent_with_clock(lenet_bundle):
    soc = Soc(NV_SMALL)
    soc.load_bundle(lenet_bundle)
    result = soc.run_inference(lenet_bundle)
    assert soc.cpu.cycles == soc.clock.now == result.cycles


def test_corrupted_program_reports_failure(lenet_bundle):
    """Flip an expected poll value: the self-check must hit FAIL."""
    from repro.baremetal import generate_assembly
    from repro.baremetal.codegen import CodegenOptions
    from repro.baremetal.config_file import ConfigCommand
    from repro.riscv import assemble as asm

    commands = list(lenet_bundle.commands)
    poll_index = next(
        i for i, c in enumerate(commands) if c.kind == "read_reg" and c.mask != 0xFFFFFFFF
    )
    bad = commands[poll_index]
    commands[poll_index] = ConfigCommand("read_reg", bad.address, 0xFFFF0000, 0xFFFF0000)
    assembly = generate_assembly(commands, options=CodegenOptions(poll_limit=100))
    program = asm(assembly)
    soc = Soc(NV_SMALL)
    soc.load_bundle(lenet_bundle)
    soc.load_program(program)
    result = soc.run_inference()
    assert not result.ok
    assert result.status_word == MAGIC_FAIL
    assert result.fail_index == poll_index
    assert result.fail_address == bad.address


def test_arbiter_sees_both_masters(lenet_bundle):
    soc = Soc(NV_SMALL)
    soc.load_bundle(lenet_bundle)
    soc.run_inference(lenet_bundle)
    assert soc.arbiter.stats.nvdla_streams > 0
    assert soc.arbiter.stats.cpu_grants > 0


def test_frequency_scales_seconds_not_cycles(lenet_bundle):
    fast = Soc(NV_SMALL, frequency_hz=200e6)
    fast.load_bundle(lenet_bundle)
    fast_result = fast.run_inference(lenet_bundle)
    slow = Soc(NV_SMALL, frequency_hz=100e6)
    slow.load_bundle(lenet_bundle)
    slow_result = slow.run_inference(lenet_bundle)
    assert fast_result.cycles == slow_result.cycles
    assert fast_result.seconds == pytest.approx(slow_result.seconds / 2)


def test_stats_summary_structure(lenet_bundle):
    soc = Soc(NV_SMALL)
    soc.load_bundle(lenet_bundle)
    soc.run_inference(lenet_bundle)
    summary = soc.stats_summary()
    assert summary["nvdla"]["ops"] == lenet_bundle.loadable.hw_op_count()
    assert summary["cpu"]["instructions"] > 0
    assert 0 <= summary["dram"]["row_hit_rate"] <= 1


# ----------------------------------------------------------------------
# The Fig. 4 test system.
# ----------------------------------------------------------------------


def test_test_system_full_experiment(lenet_bundle):
    system = TestSystem(Soc(NV_SMALL))
    result = system.run_experiment(lenet_bundle)
    assert result.ok
    assert system.preload_result is not None
    assert system.preload_result.bytes_loaded == sum(
        i.size for i in lenet_bundle.images.preload
    )
    assert system.smartconnect.selected == "soc"
    assert "preloaded" in system.describe()


def test_smartconnect_blocks_soc_during_preload(lenet_bundle):
    system = TestSystem(Soc(NV_SMALL))
    with pytest.raises(BusError):
        system.smartconnect.read(0x0, master="soc")


def test_preload_timing_scales_with_size(lenet_bundle):
    system = TestSystem(Soc(NV_SMALL))
    small = system.zynq.preload([(DRAM_BASE, b"\x00" * 1024)])
    large = system.zynq.preload([(DRAM_BASE, b"\x00" * (64 * 1024))])
    assert large.zynq_cycles > small.zynq_cycles
