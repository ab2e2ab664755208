"""The NVDLA engine: CSB decode, op launch, completion scheduling.

This is the top of the accelerator model.  Software (the VP runtime,
or the µRISC-V core through the bus fabric) programs unit registers
over CSB; writing ``D_OP_ENABLE`` marks a shadow group ready.  The
engine launches a hardware layer when its *sink* unit and every
producer unit the sink's registers call for
(:data:`repro.nvdla.programming.LAUNCHES`) have the same group pending.

A launch reads the register program exactly as the fast tier and the
static analyzer do (:mod:`repro.nvdla.programming`): parse the
descriptors, check the cross-unit rules, price the op
(:func:`repro.nvdla.timing.op_timing`), execute it functionally
(unless the engine runs in timing-only fidelity) and schedule its
completion on the shared :class:`~repro.clock.Clock`; completion flips
the shadow group back to idle and raises the sink's GLB interrupt
bit — which is what the generated bare-metal code polls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import Clock
from repro.errors import ConfigurationError
from repro.nvdla.cbuf import Cbuf
from repro.nvdla.config import HardwareConfig
from repro.nvdla.csb import decode_address
from repro.nvdla.descriptors import OpTiming
from repro.nvdla.mcif import DbbPort, Mcif, McifStats
from repro.nvdla.programming import execute_descriptors, lower_group, sink_launch
from repro.nvdla.registers import D_OP_ENABLE, GroupStatus
from repro.nvdla.timing import op_timing
from repro.nvdla.units import base as unit_base
from repro.nvdla.units import bdma as bdma_mod
from repro.nvdla.units import fresh_units
from repro.nvdla.units import rubik as rubik_mod
from repro.nvdla.units.glb import Glb

_SINKS = ("SDP", "PDP", "CDP", "BDMA", "RUBIK")

_MCIF_REGISTER_NAMES = ["CFG_RD_OUTSTANDING", "CFG_WR_OUTSTANDING", "CFG_FLUSH"]
_SRAMIF_REGISTER_NAMES = ["CFG_RD_OUTSTANDING", "CFG_WR_OUTSTANDING"]


@dataclass
class OpRecord:
    """One completed (or in-flight) hardware-layer operation."""

    index: int
    kind: str
    sink: str
    group: int
    start_cycle: int
    end_cycle: int
    timing: OpTiming
    detail: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


class NvdlaEngine:
    """Top-level NVDLA model.

    Parameters
    ----------
    config:
        Hardware build (nv_small / nv_full / custom).
    dbb:
        External memory port (see :class:`~repro.nvdla.mcif.DbbPort`).
    clock:
        Shared simulation clock; op completions are scheduled on it.
    fidelity:
        ``"functional"`` moves and computes real tensor data;
        ``"timing"`` only prices the ops (for ResNet-50-class runs).
    """

    def __init__(
        self,
        config: HardwareConfig,
        dbb: DbbPort,
        clock: Clock,
        fidelity: str = "functional",
    ) -> None:
        if fidelity not in ("functional", "timing"):
            raise ConfigurationError(f"unknown fidelity {fidelity!r}")
        self.config = config
        self.clock = clock
        self.fidelity = fidelity
        self.mcif = Mcif(dbb)
        self.cbuf = Cbuf(config)
        self.glb = Glb()
        self.units: dict[str, unit_base.Unit] = {
            "MCIF": unit_base.Unit("MCIF", _MCIF_REGISTER_NAMES),
            "SRAMIF": unit_base.Unit("SRAMIF", _SRAMIF_REGISTER_NAMES),
            "BDMA": bdma_mod.make_unit(),
            **fresh_units(),
            "RUBIK": rubik_mod.make_unit(),
        }
        self.records: list[OpRecord] = []
        self._op_index = 0

    # ------------------------------------------------------------------
    # CSB access (what the APB→CSB adapter drives).
    # ------------------------------------------------------------------

    def csb_read(self, offset: int) -> int:
        unit_name, reg_offset = decode_address(offset)
        if unit_name == "GLB":
            return self.glb.csb_read(reg_offset)
        return self.units[unit_name].csb_read(reg_offset)

    def csb_write(self, offset: int, value: int) -> None:
        unit_name, reg_offset = decode_address(offset)
        if unit_name == "GLB":
            self.glb.csb_write(reg_offset, value)
            return
        unit = self.units[unit_name]
        unit.csb_write(reg_offset, value)
        if reg_offset == D_OP_ENABLE and value & 1:
            self._maybe_launch()

    @property
    def irq_asserted(self) -> bool:
        return self.glb.pending() != 0

    def busy(self) -> bool:
        return any(self.units[name].block.busy() for name in _SINKS)

    def reset(self) -> None:
        self.glb.reset()
        for unit in self.units.values():
            unit.reset()
        # MCIF state must not survive a reset: with the clock back at
        # zero, stale DMA windows from the previous run would alias
        # the new run's cycle range and charge phantom arbiter
        # contention to the CPU.
        self.mcif.stats = McifStats()
        self.mcif.windows.clear()
        self.records.clear()
        self._op_index = 0

    # ------------------------------------------------------------------
    # Launch logic.
    # ------------------------------------------------------------------

    def _maybe_launch(self) -> None:
        progress = True
        while progress:
            progress = False
            for sink in _SINKS:
                if self._try_launch(sink):
                    progress = True

    def _try_launch(self, sink: str) -> bool:
        block = self.units[sink].block
        if block.busy():
            return False
        group = block.pending_group()
        if group is None:
            return False
        launch = sink_launch(self.units, sink, group)
        if launch is None:
            return False
        blocks = [self.units[name].block for name in launch.producers]
        if not all(b.enabled[group] and b.status[group] is GroupStatus.PENDING for b in blocks):
            return False
        descriptors = lower_group(self.units, launch, group, self.config)
        timing = op_timing(descriptors, self.config, self.cbuf, self.mcif)
        if self.fidelity == "functional":
            execute_descriptors([descriptors], self.config, self.mcif)
        self._commit(launch.kind, sink, group, [*blocks, block], timing)
        return True

    def _commit(
        self,
        kind: str,
        sink: str,
        group: int,
        blocks: list,
        timing: OpTiming,
    ) -> None:
        for block in blocks:
            block.launch(group)
        start = self.clock.now
        end = start + timing.total
        record = OpRecord(
            index=self._op_index,
            kind=kind,
            sink=sink,
            group=group,
            start_cycle=start,
            end_cycle=end,
            timing=timing,
            detail=timing.detail,
        )
        self._op_index += 1
        self.records.append(record)
        dma_cycles = timing.weight_dma + timing.input_dma + timing.output_dma
        if dma_cycles:
            self.mcif.record_window(start, dma_cycles)

        def complete() -> None:
            for block in blocks:
                block.complete(group)
            self.glb.raise_interrupt(sink, group)
            self._maybe_launch()

        self.clock.schedule_at(end, complete)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def total_op_cycles(self) -> int:
        return sum(r.cycles for r in self.records)

    def summary(self) -> dict:
        by_kind: dict[str, int] = {}
        for record in self.records:
            by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
        return {
            "config": self.config.name,
            "ops": len(self.records),
            "by_kind": by_kind,
            "bytes_read": self.mcif.stats.bytes_read,
            "bytes_written": self.mcif.stats.bytes_written,
            "op_cycles": self.total_op_cycles(),
        }

