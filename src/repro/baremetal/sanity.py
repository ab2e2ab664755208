"""Standard NVDLA test traces (paper §V, functional validation).

"Initial functional validation was performed via behavioral simulation
using standard NVDLA test traces such as sanity, convolution and
memory tests available from the NVDLA Github repository.  These were
translated into RISC-V assembly and used to verify the correctness of
the integrated SoC design."

This module generates the equivalent register-level test traces
directly (no network/compiler involved), converts them through the
same codegen path, and provides expected memory states so the SoC run
is self-checking end to end:

- :func:`sanity_trace` — register write/read-back over every unit,
- :func:`bdma_memory_trace` — a BDMA copy (the "memory test"),
- :func:`conv_trace` — a minimal convolution hardware layer,
- :func:`pdp_trace` — a minimal pooling layer.

Each builder returns a :class:`SanityTest` bundling the config-file
commands, the preload images and the expected output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baremetal.codegen import CodegenOptions, generate_assembly
from repro.baremetal.config_file import ConfigCommand
from repro.core.address_map import dram_offset
from repro.nvdla.config import HardwareConfig, NV_SMALL, Precision
from repro.nvdla.csb import UNIT_BASES, register_address
from repro.nvdla.layout import (
    feature_strides,
    pack_feature,
    pack_weights,
    weight_size_bytes,
)
from repro.nvdla.registers import D_OP_ENABLE, S_POINTER
from repro.nvdla.units import bdma, fresh_units
from repro.nvdla.units.glb import HW_VERSION, HW_VERSION_VALUE, INTR_STATUS, interrupt_bit
from repro.riscv.assembler import assemble
from repro.riscv.program import Program


@dataclass
class SanityTest:
    """A self-contained register-level hardware test."""

    name: str
    commands: list[ConfigCommand]
    preload: list[tuple[int, bytes]] = field(default_factory=list)
    expected_memory: list[tuple[int, bytes]] = field(default_factory=list)

    def assembly(self, options: CodegenOptions | None = None) -> str:
        return generate_assembly(
            self.commands,
            options=options,
            header=f"NVDLA {self.name} test trace ({len(self.commands)} commands)",
        )

    def program(self, options: CodegenOptions | None = None) -> Program:
        return assemble(self.assembly(options))


class _TraceBuilder:
    """Builds command lists with the runtime's programming idioms."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        self.commands: list[ConfigCommand] = []
        # Register offsets come from the units' own register files.
        self._units = {**fresh_units(), "BDMA": bdma.make_unit()}

    def write(self, unit: str, register: str, value: int) -> None:
        offset = self._units[unit].offset_of(register)
        self.commands.append(
            ConfigCommand("write_reg", UNIT_BASES[unit] + offset, value & 0xFFFFFFFF)
        )

    def write_raw(self, address: int, value: int) -> None:
        self.commands.append(ConfigCommand("write_reg", address, value & 0xFFFFFFFF))

    def read(self, address: int, expected: int, mask: int = 0xFFFFFFFF) -> None:
        self.commands.append(ConfigCommand("read_reg", address, expected, mask))

    def read_reg(self, unit: str, register: str, expected: int) -> None:
        offset = self._units[unit].offset_of(register)
        self.read(UNIT_BASES[unit] + offset, expected)

    def tensor(self, unit: str, prefix: str, address: int, shape, precision) -> None:
        atom = self.config.atom_channels(precision)
        c, h, w = shape
        line, surf = feature_strides(shape, atom, precision)
        self.write(unit, f"{prefix}_ADDR_HIGH", address >> 32)
        self.write(unit, f"{prefix}_ADDR_LOW", address & 0xFFFFFFFF)
        self.write(unit, f"{prefix}_WIDTH", w)
        self.write(unit, f"{prefix}_HEIGHT", h)
        self.write(unit, f"{prefix}_CHANNEL", c)
        self.write(unit, f"{prefix}_LINE_STRIDE", line)
        self.write(unit, f"{prefix}_SURF_STRIDE", surf)

    def select(self, unit: str, group: int) -> None:
        self.write_raw(register_address(unit, S_POINTER), group)

    def enable(self, unit: str) -> None:
        self.write_raw(register_address(unit, D_OP_ENABLE), 1)

    def wait_and_clear(self, sink: str, group: int = 0) -> None:
        bit = 1 << interrupt_bit(sink, group)
        self.read(register_address("GLB", INTR_STATUS), bit, mask=bit)
        self.write_raw(register_address("GLB", INTR_STATUS), bit)


def sanity_trace(config: HardwareConfig = NV_SMALL) -> SanityTest:
    """Register sanity: version check plus write/read-back on every
    programmable unit (the NVDLA `reg_rw` sanity test)."""
    builder = _TraceBuilder(config)
    builder.read(register_address("GLB", HW_VERSION), HW_VERSION_VALUE)
    probes = [
        ("CDMA", "D_CONV_STRIDE_X", 0x2),
        ("CSC", "D_WEIGHT_SIZE_K", 0x1234 & 0xFFF),
        ("CACC", "D_DATAOUT_WIDTH", 0x55),
        ("SDP", "D_CVT_MULT", 0x7FFF),
        ("PDP", "D_POOLING_KERNEL_WIDTH", 0x3),
        ("CDP", "D_LRN_LOCAL_SIZE", 0x5),
        ("BDMA", "D_LINE_BYTES", 0x100),
    ]
    for unit, register, value in probes:
        builder.select(unit, 0)
        builder.write(unit, register, value)
        builder.read_reg(unit, register, value)
        # Ping-pong isolation: the other group must still read reset.
        builder.select(unit, 1)
        builder.read_reg(unit, register, 0)
        builder.select(unit, 0)
    return SanityTest(name="sanity", commands=builder.commands)


def bdma_memory_trace(
    config: HardwareConfig = NV_SMALL,
    src: int = 0x110000,
    dst: int = 0x118000,
    nbytes: int = 512,
    seed: int = 42,
) -> SanityTest:
    """The memory test: BDMA copies a block, CPU-visible afterwards."""
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    builder = _TraceBuilder(config)
    builder.select("BDMA", 0)
    builder.write("BDMA", "D_SRC_ADDR_HIGH", src >> 32)
    builder.write("BDMA", "D_SRC_ADDR_LOW", src & 0xFFFFFFFF)
    builder.write("BDMA", "D_DST_ADDR_HIGH", dst >> 32)
    builder.write("BDMA", "D_DST_ADDR_LOW", dst & 0xFFFFFFFF)
    builder.write("BDMA", "D_LINE_BYTES", nbytes)
    builder.write("BDMA", "D_LINE_REPEAT", 1)
    builder.write("BDMA", "D_SRC_STRIDE", nbytes)
    builder.write("BDMA", "D_DST_STRIDE", nbytes)
    builder.enable("BDMA")
    builder.wait_and_clear("BDMA")
    return SanityTest(
        name="bdma_memory",
        commands=builder.commands,
        preload=[(src, payload)],
        expected_memory=[(dst, payload)],
    )


def conv_trace(config: HardwareConfig = NV_SMALL, seed: int = 7) -> SanityTest:
    """A minimal convolution hardware layer with a known result."""
    precision = Precision.INT8 if config.supports(Precision.INT8) else Precision.FP16
    atom = config.atom_channels(precision)
    atomic_c, atomic_k = config.atoms(precision)
    rng = np.random.default_rng(seed)
    x = rng.integers(-8, 8, size=(atom, 6, 6)).astype(np.int8)
    w = rng.integers(-3, 3, size=(atom, atom, 3, 3)).astype(np.int8)
    in_addr, wt_addr, out_addr = 0x120000, 0x124000, 0x12C000
    wbytes = weight_size_bytes(w.shape, atomic_c, atomic_k, precision)

    from repro.nvdla.compute import conv2d_direct, requantize_int8

    acc = conv2d_direct(x, w, (1, 1), (0, 0, 0, 0))
    expected = requantize_int8(np.maximum(acc, 0), 1, 4)

    builder = _TraceBuilder(config)
    units = ("CDMA", "CSC", "CMAC_A", "CMAC_B", "CACC", "SDP_RDMA", "SDP")
    for unit in units:
        builder.select(unit, 0)
    builder.write("CDMA", "D_MISC_CFG", 0)
    builder.tensor("CDMA", "D_DAIN", in_addr, (atom, 6, 6), precision)
    builder.write("CDMA", "D_WEIGHT_ADDR_HIGH", 0)
    builder.write("CDMA", "D_WEIGHT_ADDR_LOW", wt_addr)
    builder.write("CDMA", "D_WEIGHT_BYTES", wbytes)
    builder.write("CDMA", "D_CONV_STRIDE_X", 1)
    builder.write("CDMA", "D_CONV_STRIDE_Y", 1)
    for side in ("LEFT", "RIGHT", "TOP", "BOTTOM"):
        builder.write("CDMA", f"D_ZERO_PADDING_{side}", 0)
    builder.write("CDMA", "D_BANK_DATA", config.cbuf_banks // 2)
    builder.write("CDMA", "D_BANK_WEIGHT", config.cbuf_banks // 2)
    builder.write("CSC", "D_MISC_CFG", 0)
    builder.write("CSC", "D_WEIGHT_SIZE_K", atom)
    builder.write("CSC", "D_WEIGHT_SIZE_C", atom)
    builder.write("CSC", "D_WEIGHT_SIZE_R", 3)
    builder.write("CSC", "D_WEIGHT_SIZE_S", 3)
    builder.write("CSC", "D_DATAOUT_WIDTH", 4)
    builder.write("CSC", "D_DATAOUT_HEIGHT", 4)
    builder.write("CMAC_A", "D_MISC_CFG", 0)
    builder.write("CMAC_B", "D_MISC_CFG", 0)
    builder.write("CACC", "D_MISC_CFG", 0)
    builder.write("CACC", "D_DATAOUT_WIDTH", 4)
    builder.write("CACC", "D_DATAOUT_HEIGHT", 4)
    builder.write("CACC", "D_DATAOUT_CHANNEL", atom)
    builder.write("SDP_RDMA", "D_FEATURE_MODE_CFG", 0)
    builder.write("SDP_RDMA", "D_BRDMA_CFG", 0)
    builder.write("SDP_RDMA", "D_NRDMA_CFG", 0)
    builder.write("SDP_RDMA", "D_ERDMA_CFG", 0)
    builder.write("SDP", "D_MISC_CFG", 0)
    builder.write("SDP", "D_OUT_PRECISION", 0)
    builder.write("SDP", "D_DATA_CUBE_WIDTH", 4)
    builder.write("SDP", "D_DATA_CUBE_HEIGHT", 4)
    builder.write("SDP", "D_DATA_CUBE_CHANNEL", atom)
    builder.tensor("SDP", "D_DST", out_addr, (atom, 4, 4), precision)
    builder.write("SDP", "D_DP_BS_CFG", 0)
    builder.write("SDP", "D_DP_BN_CFG", 0)
    builder.write("SDP", "D_DP_EW_CFG", 0)
    builder.write("SDP", "D_ACT_CFG", 1)
    builder.write("SDP", "D_CVT_MULT", 1)
    builder.write("SDP", "D_CVT_SHIFT", 4)
    for unit in ("CACC", "CMAC_A", "CMAC_B", "CSC", "CDMA"):
        builder.enable(unit)
    builder.enable("SDP")
    builder.wait_and_clear("SDP")
    return SanityTest(
        name="conv",
        commands=builder.commands,
        preload=[
            (in_addr, pack_feature(x, atom, precision)),
            (wt_addr, pack_weights(w, atomic_c, atomic_k, precision)),
        ],
        expected_memory=[(out_addr, pack_feature(expected, atom, precision))],
    )


def pdp_trace(config: HardwareConfig = NV_SMALL, seed: int = 9) -> SanityTest:
    """A minimal max-pooling layer with a known result."""
    precision = Precision.INT8 if config.supports(Precision.INT8) else Precision.FP16
    atom = config.atom_channels(precision)
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, size=(atom, 8, 8)).astype(np.int8)
    expected = x.reshape(atom, 4, 2, 4, 2).max(axis=(2, 4))
    in_addr, out_addr = 0x130000, 0x134000

    builder = _TraceBuilder(config)
    builder.select("PDP_RDMA", 0)
    builder.select("PDP", 0)
    builder.tensor("PDP_RDMA", "D_SRC", in_addr, (atom, 8, 8), precision)
    builder.write("PDP", "D_MISC_CFG", 0)
    builder.write("PDP", "D_POOLING_METHOD", 0)
    builder.write("PDP", "D_POOLING_KERNEL_WIDTH", 2)
    builder.write("PDP", "D_POOLING_KERNEL_HEIGHT", 2)
    builder.write("PDP", "D_POOLING_STRIDE_X", 2)
    builder.write("PDP", "D_POOLING_STRIDE_Y", 2)
    for side in ("LEFT", "RIGHT", "TOP", "BOTTOM"):
        builder.write("PDP", f"D_POOLING_PAD_{side}", 0)
    builder.tensor("PDP", "D_DST", out_addr, (atom, 4, 4), precision)
    builder.enable("PDP_RDMA")
    builder.enable("PDP")
    builder.wait_and_clear("PDP")
    return SanityTest(
        name="pdp",
        commands=builder.commands,
        preload=[(in_addr, pack_feature(x, atom, precision))],
        expected_memory=[(out_addr, pack_feature(expected, atom, precision))],
    )


ALL_TRACES = {
    "sanity": sanity_trace,
    "bdma_memory": bdma_memory_trace,
    "conv": conv_trace,
    "pdp": pdp_trace,
}


def run_on_soc(test: SanityTest, soc=None) -> bool:
    """Translate to assembly, run on a SoC, verify memory. Returns ok."""
    from repro.core import Soc

    soc = soc or Soc()
    program = test.program()
    soc.load_program(program)
    for address, data in test.preload:
        soc.preload_dram(address, data)
    result = soc.run_inference()
    if not result.ok:
        return False
    for address, expected in test.expected_memory:
        got = soc.dram.storage.read(dram_offset(address), len(expected))
        if got != expected:
            return False
    return True
