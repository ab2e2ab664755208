"""Register-file infrastructure for the NVDLA units.

Every NVDLA sub-unit exposes the same CSB idiom, which the bare-metal
flow depends on:

- ``S_STATUS`` — state of the two shadow register groups,
- ``S_POINTER`` — the *producer* bit selects which shadow group CPU
  writes land in; the *consumer* bit shows which group the hardware is
  executing,
- a set of ``D_*`` configuration registers, double-buffered per group,
- ``D_OP_ENABLE`` — written last; marks the group ready to launch.

:class:`RegisterBlock` implements that idiom generically; each unit
declares its registers as a list of :class:`RegisterSpec` and reads
back typed descriptor values when an op launches.

The register *names* follow the NVDLA hardware manual; offsets use one
32-bit word per logical field (real NVDLA bit-packs several fields per
word).  This keeps traces the same order of magnitude as the paper's
while keeping descriptor parsing readable; the divergence is recorded
in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.errors import RegisterError


class GroupStatus(IntEnum):
    """Shadow-group state encoded in ``S_STATUS``."""

    IDLE = 0
    RUNNING = 1
    PENDING = 2  # enabled, waiting for the other group to finish


@dataclass(frozen=True)
class RegisterSpec:
    """One register: word offset within the unit and behaviour flags."""

    name: str
    offset: int
    reset: int = 0
    read_only: bool = False
    shadowed: bool = True  # duplicated per ping-pong group

    def __post_init__(self) -> None:
        if self.offset % 4:
            raise RegisterError(f"register {self.name} offset must be word-aligned", self.offset)


# Offsets shared by every unit.
S_STATUS = 0x000
S_POINTER = 0x004
D_OP_ENABLE = 0x008
FIRST_DESCRIPTOR_OFFSET = 0x00C


@dataclass(frozen=True)
class FieldSpec:
    """Legality metadata for one descriptor register's value.

    Our register files dedicate a full 32-bit word to each logical
    field, so the hardware's bit-packing constraints survive only as
    metadata: ``width`` bounds the value to ``[0, 2**width)`` and
    ``enum``, when present, restricts it to an explicit set of codes.
    The static analyzer's register-legality pass checks every chain
    write against this table; widths are sized to the NVDLA manual's
    field widths (generous where our word-per-field encoding has no
    exact counterpart).
    """

    width: int = 32
    enum: tuple[int, ...] | None = None

    def check(self, value: int) -> str | None:
        """Reason the value is illegal, or ``None`` when it is fine."""
        if self.enum is not None:
            if value not in self.enum:
                allowed = ",".join(str(v) for v in self.enum)
                return f"value {value} not in enum {{{allowed}}}"
            return None
        if not 0 <= value < (1 << self.width):
            return f"value 0x{value:x} exceeds {self.width}-bit field"
        return None


_DEFAULT_FIELD = FieldSpec()

# Exact-name field table (precision/config codes, converter constants,
# geometry fields whose hardware counterparts are narrow).
_EXACT_FIELDS: dict[str, FieldSpec] = {
    "D_MISC_CFG": FieldSpec(enum=(0, 1)),  # precision code
    "D_OUT_PRECISION": FieldSpec(enum=(0, 1)),
    "D_FEATURE_MODE_CFG": FieldSpec(width=1),
    "D_BRDMA_CFG": FieldSpec(width=1),
    "D_NRDMA_CFG": FieldSpec(width=1),
    "D_ERDMA_CFG": FieldSpec(width=1),
    "D_DP_BS_CFG": FieldSpec(width=1),
    "D_DP_BN_CFG": FieldSpec(width=1),
    "D_ACT_CFG": FieldSpec(width=1),
    "D_DP_EW_CFG": FieldSpec(enum=(0, 1, 2, 3)),  # EltwiseOp code
    "D_POOLING_METHOD": FieldSpec(enum=(0, 1, 2)),  # PoolMode code
    "D_LRN_LOCAL_SIZE": FieldSpec(enum=(1, 3, 5, 7, 9)),
    "D_CVT_MULT": FieldSpec(width=16),
    "D_EW_CVT_MULT": FieldSpec(width=16),
    "D_CVT_SHIFT": FieldSpec(width=6),
    "D_EW_CVT_SHIFT": FieldSpec(width=6),
    "D_CONV_STRIDE_X": FieldSpec(width=4),
    "D_CONV_STRIDE_Y": FieldSpec(width=4),
    "D_POOLING_STRIDE_X": FieldSpec(width=4),
    "D_POOLING_STRIDE_Y": FieldSpec(width=4),
    "D_POOLING_KERNEL_WIDTH": FieldSpec(width=4),
    "D_POOLING_KERNEL_HEIGHT": FieldSpec(width=4),
    "D_ZERO_PADDING_LEFT": FieldSpec(width=5),
    "D_ZERO_PADDING_RIGHT": FieldSpec(width=5),
    "D_ZERO_PADDING_TOP": FieldSpec(width=5),
    "D_ZERO_PADDING_BOTTOM": FieldSpec(width=5),
    "D_POOLING_PAD_LEFT": FieldSpec(width=5),
    "D_POOLING_PAD_RIGHT": FieldSpec(width=5),
    "D_POOLING_PAD_TOP": FieldSpec(width=5),
    "D_POOLING_PAD_BOTTOM": FieldSpec(width=5),
    "D_WEIGHT_SIZE_K": FieldSpec(width=13),
    "D_WEIGHT_SIZE_C": FieldSpec(width=13),
    "D_WEIGHT_SIZE_R": FieldSpec(width=5),
    "D_WEIGHT_SIZE_S": FieldSpec(width=5),
    "D_BANK_DATA": FieldSpec(width=6),
    "D_BANK_WEIGHT": FieldSpec(width=6),
    # Fused-chain streaming flags: SDP result flies to PDP on-chip.
    "D_DST_FLYING": FieldSpec(width=1),
    "D_SRC_FLYING": FieldSpec(width=1),
}

# Suffix table for the tensor-surface register families
# (<prefix>_ADDR_HIGH/.../_SURF_STRIDE) and cube-size registers.
_SUFFIX_FIELDS: tuple[tuple[str, FieldSpec], ...] = (
    ("_WIDTH", FieldSpec(width=13)),
    ("_HEIGHT", FieldSpec(width=13)),
    ("_CHANNEL", FieldSpec(width=13)),
    ("_LINE_STRIDE", FieldSpec(width=28)),
    ("_SURF_STRIDE", FieldSpec(width=28)),
    ("_ADDR_HIGH", FieldSpec(width=32)),
    ("_ADDR_LOW", FieldSpec(width=32)),
)


def field_spec(register: str) -> FieldSpec:
    """Legality spec for a descriptor register, by name.

    Field semantics are uniform across units (every ``D_MISC_CFG`` is a
    precision code, every ``*_WIDTH`` a cube width), so lookup is
    name-based: exact names first, then the tensor-family suffixes,
    falling back to a full 32-bit field.
    """
    spec = _EXACT_FIELDS.get(register)
    if spec is not None:
        return spec
    for suffix, suffix_spec in _SUFFIX_FIELDS:
        if register.endswith(suffix):
            return suffix_spec
    return _DEFAULT_FIELD


def check_field(register: str, value: int) -> str | None:
    """Reason ``register = value`` is illegal, or ``None`` if legal."""
    return field_spec(register).check(value)


class RegisterTable:
    """A unit type's validated register specs and reset values.

    Built once per unit type and shared, never mutated, by every
    :class:`RegisterBlock` of that type; a block copies only the reset
    values into its two shadow groups.
    """

    __slots__ = ("unit_name", "by_offset", "by_name", "resets")

    def __init__(self, unit_name: str, specs: list[RegisterSpec]) -> None:
        self.unit_name = unit_name
        self.by_offset: dict[int, RegisterSpec] = {}
        self.by_name: dict[str, RegisterSpec] = {}
        for spec in specs:
            if spec.offset < FIRST_DESCRIPTOR_OFFSET:
                raise RegisterError(
                    f"{unit_name}.{spec.name}: descriptor registers start at "
                    f"0x{FIRST_DESCRIPTOR_OFFSET:03x}",
                    spec.offset,
                )
            if spec.offset in self.by_offset:
                raise RegisterError(f"{unit_name}: duplicate offset for {spec.name}", spec.offset)
            if spec.name in self.by_name:
                raise RegisterError(f"{unit_name}: duplicate register name {spec.name}")
            self.by_offset[spec.offset] = spec
            self.by_name[spec.name] = spec
        self.resets = {spec.offset: spec.reset for spec in specs}


class RegisterBlock:
    """A unit's register file with dual shadow groups.

    Parameters
    ----------
    unit_name:
        For error messages and traces.
    specs:
        Descriptor registers (offsets >= ``FIRST_DESCRIPTOR_OFFSET``).
        ``S_STATUS``/``S_POINTER``/``D_OP_ENABLE`` are implicit.

    :meth:`from_table` builds a block from an already validated
    :class:`RegisterTable` instead.
    """

    def __init__(self, unit_name: str, specs: list[RegisterSpec]) -> None:
        self._adopt(RegisterTable(unit_name, specs))

    @classmethod
    def from_table(cls, table: RegisterTable) -> RegisterBlock:
        block = cls.__new__(cls)
        block._adopt(table)
        return block

    def _adopt(self, table: RegisterTable) -> None:
        self.unit_name = table.unit_name
        self._table = table
        self._specs = table.by_offset
        self._by_name = table.by_name
        self._groups: list[dict[int, int]] = [dict(table.resets), dict(table.resets)]
        self.producer = 0
        self.consumer = 0
        self.status: list[GroupStatus] = [GroupStatus.IDLE, GroupStatus.IDLE]
        self.enabled: list[bool] = [False, False]

    # ------------------------------------------------------------------
    # CSB-facing access.
    # ------------------------------------------------------------------

    def csb_read(self, offset: int) -> int:
        if offset == S_STATUS:
            return int(self.status[0]) | (int(self.status[1]) << 16)
        if offset == S_POINTER:
            return self.producer | (self.consumer << 16)
        if offset == D_OP_ENABLE:
            return int(self.enabled[self.producer])
        spec = self._specs.get(offset)
        if spec is None:
            raise RegisterError(f"{self.unit_name}: no register at +0x{offset:03x}", offset)
        return self._groups[self.producer][offset]

    def csb_write(self, offset: int, value: int) -> None:
        value &= 0xFFFFFFFF
        if offset == S_STATUS:
            raise RegisterError(f"{self.unit_name}: S_STATUS is read-only", offset)
        if offset == S_POINTER:
            self.producer = value & 1
            return
        if offset == D_OP_ENABLE:
            if value & 1:
                self.enable_group(self.producer)
            return
        spec = self._specs.get(offset)
        if spec is None:
            raise RegisterError(f"{self.unit_name}: no register at +0x{offset:03x}", offset)
        if spec.read_only:
            raise RegisterError(f"{self.unit_name}.{spec.name} is read-only", offset)
        group = self.producer if spec.shadowed else 0
        self._groups[group][offset] = value
        if not spec.shadowed:
            self._groups[1][offset] = value

    # ------------------------------------------------------------------
    # Hardware-side state machine.
    # ------------------------------------------------------------------

    def enable_group(self, group: int) -> None:
        if self.status[group] is not GroupStatus.IDLE or self.enabled[group]:
            raise RegisterError(
                f"{self.unit_name}: group {group} enabled while {self.status[group].name}"
            )
        self.enabled[group] = True
        self.status[group] = GroupStatus.PENDING

    def launch(self, group: int) -> None:
        if not self.enabled[group]:
            raise RegisterError(f"{self.unit_name}: launching group {group} that is not enabled")
        self.status[group] = GroupStatus.RUNNING
        self.consumer = group

    def complete(self, group: int) -> None:
        self.enabled[group] = False
        self.status[group] = GroupStatus.IDLE
        self.consumer = group ^ 1

    def pending_group(self) -> int | None:
        """Group that is enabled but not yet running, if any."""
        for group in (self.consumer, self.consumer ^ 1):
            if self.enabled[group] and self.status[group] is GroupStatus.PENDING:
                return group
        return None

    def busy(self) -> bool:
        return any(s is GroupStatus.RUNNING for s in self.status)

    # ------------------------------------------------------------------
    # Descriptor access for the engine.
    # ------------------------------------------------------------------

    def value(self, name: str, group: int) -> int:
        spec = self._by_name.get(name)
        if spec is None:
            raise RegisterError(f"{self.unit_name}: unknown register {name!r}")
        return self._groups[group][spec.offset]

    def value64(self, name_high: str, name_low: str, group: int) -> int:
        return (self.value(name_high, group) << 32) | self.value(name_low, group)

    def offset_of(self, name: str) -> int:
        spec = self._by_name.get(name)
        if spec is None:
            raise RegisterError(f"{self.unit_name}: unknown register {name!r}")
        return spec.offset

    def register_names(self) -> list[str]:
        return [s.name for s in sorted(self._specs.values(), key=lambda s: s.offset)]

    def reset(self) -> None:
        for group in self._groups:
            group.update(self._table.resets)
        self.producer = 0
        self.consumer = 0
        self.status = [GroupStatus.IDLE, GroupStatus.IDLE]
        self.enabled = [False, False]
