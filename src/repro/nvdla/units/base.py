"""Shared infrastructure for NVDLA sub-units."""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nvdla.config import HardwareConfig, Precision
from repro.nvdla.descriptors import TensorDesc
from repro.nvdla.layout import pack_feature, unpack_features
from repro.nvdla.mcif import Mcif
from repro.nvdla.registers import (
    FIRST_DESCRIPTOR_OFFSET,
    RegisterBlock,
    RegisterSpec,
    RegisterTable,
)


class Unit:
    """One sub-unit: a named register block at a CSB base address.

    Register offsets are assigned in declaration order starting at
    :data:`~repro.nvdla.registers.FIRST_DESCRIPTOR_OFFSET`, one 32-bit
    word each.
    """

    def __init__(self, name: str, register_names: list[str]) -> None:
        self.name = name
        self.block = RegisterBlock.from_table(_register_table(name, tuple(register_names)))

    # Convenience pass-throughs -----------------------------------------

    def csb_read(self, offset: int) -> int:
        return self.block.csb_read(offset)

    def csb_write(self, offset: int, value: int) -> None:
        self.block.csb_write(offset, value)

    def reg(self, name: str, group: int) -> int:
        return self.block.value(name, group)

    def reg64(self, high: str, low: str, group: int) -> int:
        return self.block.value64(high, low, group)

    def offset_of(self, name: str) -> int:
        return self.block.offset_of(name)

    def reset(self) -> None:
        self.block.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Unit({self.name})"


@functools.cache
def _register_table(name: str, register_names: tuple[str, ...]) -> RegisterTable:
    """One validated table per unit type, shared by all its instances."""
    return RegisterTable(
        name,
        [
            RegisterSpec(name=reg, offset=FIRST_DESCRIPTOR_OFFSET + 4 * index)
            for index, reg in enumerate(register_names)
        ],
    )


def parse_precision(value: int, unit: str) -> Precision:
    if value == 0:
        return Precision.INT8
    if value == 1:
        return Precision.FP16
    raise ConfigurationError(f"{unit}: unknown precision code {value}")


def precision_code(precision: Precision) -> int:
    return 0 if precision is Precision.INT8 else 1


def parse_tensor(unit: Unit, group: int, prefix: str, precision: Precision) -> TensorDesc:
    """Build a :class:`TensorDesc` from ``<prefix>_*`` registers.

    Expects the register family ``ADDR_HIGH/ADDR_LOW/WIDTH/HEIGHT/
    CHANNEL/LINE_STRIDE/SURF_STRIDE``.
    """
    return TensorDesc(
        address=unit.reg64(f"{prefix}_ADDR_HIGH", f"{prefix}_ADDR_LOW", group),
        width=unit.reg(f"{prefix}_WIDTH", group),
        height=unit.reg(f"{prefix}_HEIGHT", group),
        channels=unit.reg(f"{prefix}_CHANNEL", group),
        precision=precision,
        line_stride=unit.reg(f"{prefix}_LINE_STRIDE", group),
        surf_stride=unit.reg(f"{prefix}_SURF_STRIDE", group),
    )


def tensor_register_names(prefix: str) -> list[str]:
    """The seven registers that describe one tensor surface."""
    return [
        f"{prefix}_ADDR_HIGH",
        f"{prefix}_ADDR_LOW",
        f"{prefix}_WIDTH",
        f"{prefix}_HEIGHT",
        f"{prefix}_CHANNEL",
        f"{prefix}_LINE_STRIDE",
        f"{prefix}_SURF_STRIDE",
    ]


def read_surfaces(
    mcifs: Sequence[Mcif], tensors: Sequence[TensorDesc], config: HardwareConfig, dtype
) -> np.ndarray:
    """Read and unpack one same-shape surface per launch and request, in
    ``dtype``: ``out[g, b]`` is launch ``g``'s surface in request ``b``'s
    memory (``mcifs[b]``)."""
    first = tensors[0]
    atom = config.atom_channels(first.precision)
    nbytes = first.packed_bytes(atom)
    blob = b"".join([mcif.read(tensor.address, nbytes) for tensor in tensors for mcif in mcifs])
    cubes = unpack_features(blob, len(tensors) * len(mcifs), first.shape, atom, first.precision)
    out = np.empty((len(tensors), len(mcifs), *first.shape), dtype=dtype)
    out.reshape(cubes.shape)[...] = cubes
    return out


def write_surfaces(
    mcifs: Sequence[Mcif],
    tensors: Sequence[TensorDesc],
    config: HardwareConfig,
    cubes: np.ndarray,
) -> None:
    """Pack and write ``cubes[g, b]`` to launch ``g``'s surface in
    request ``b``'s memory: the inverse of :func:`read_surfaces`."""
    first = tensors[0]
    blob = pack_feature(cubes, config.atom_channels(first.precision), first.precision)
    size = len(blob) // (len(tensors) * len(mcifs))
    offset = 0
    for tensor in tensors:
        for mcif in mcifs:
            mcif.write(tensor.address, blob[offset : offset + size])
            offset += size
