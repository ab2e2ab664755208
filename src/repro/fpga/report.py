"""Table I-style utilisation reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fpga.devices import Device, ZCU102
from repro.fpga.resources import ResourceVector, component_breakdown
from repro.nvdla.config import HardwareConfig, NV_SMALL

_COLUMNS = [
    ("CLB LUTs", "luts"),
    ("CLB Regs", "regs"),
    ("CARRY8", "carry8"),
    ("F7 Muxes", "f7_muxes"),
    ("F8 Muxes", "f8_muxes"),
    ("CLBs", "clbs"),
    ("BRAM Tiles", "bram_tiles"),
    ("DSPs", "dsps"),
]


@dataclass
class UtilizationReport:
    """All rows of a Table I-equivalent report."""

    device: Device
    rows: dict[str, ResourceVector] = field(default_factory=dict)

    def render(self) -> str:
        header_cells = [f"{name:>11}" for name, _ in _COLUMNS]
        lines = [
            f"FPGA resource utilization ({self.device.name}, {self.device.part})",
            f"{'Component':<26}" + "".join(header_cells),
            f"{'(device capacity)':<26}"
            + "".join(
                f"{self.device.capacity.as_dict()[key]:>11.0f}" for _, key in _COLUMNS
            ),
        ]
        for name, vector in self.rows.items():
            cells = []
            for _, key in _COLUMNS:
                value = vector.as_dict()[key]
                cells.append(f"{value:>11.1f}" if value % 1 else f"{value:>11.0f}")
            lines.append(f"{name:<26}" + "".join(cells))
        return "\n".join(lines)


def build_table1_report(
    config: HardwareConfig = NV_SMALL, device: Device = ZCU102
) -> UtilizationReport:
    """Regenerate the paper's Table I for a hardware configuration."""
    return UtilizationReport(device=device, rows=component_breakdown(config))
