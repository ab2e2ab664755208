"""The NVDLA engine: CSB decode, op launch, completion scheduling.

This is the top of the accelerator model.  Software (the VP runtime,
or the µRISC-V core through the bus fabric) programs unit registers
over CSB; writing ``D_OP_ENABLE`` marks a shadow group ready.  The
engine launches a hardware layer when its *sink* unit and every
required producer unit have the same group pending:

===========  ========================================================
sink         producers required
===========  ========================================================
SDP flying   CDMA, CSC, CMAC_A, CMAC_B, CACC  (fused convolution)
SDP memory   SDP_RDMA
PDP flying   CDMA, CSC, CMAC_A, CMAC_B, CACC, SDP  (fused conv+pool)
PDP memory   PDP_RDMA
CDP          CDP_RDMA
BDMA         —
RUBIK        —
===========  ========================================================

On launch the op executes functionally (unless the engine runs in
timing-only fidelity), its latency comes from
:mod:`repro.nvdla.timing`, and completion is scheduled on the shared
:class:`~repro.clock.Clock`; completion flips the shadow group back
to idle and raises the sink's GLB interrupt bit — which is what the
generated bare-metal code polls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.clock import Clock
from repro.errors import ConfigurationError, RegisterError
from repro.nvdla.cbuf import Cbuf
from repro.nvdla.config import HardwareConfig
from repro.nvdla.csb import decode_address
from repro.nvdla.descriptors import OpTiming, SdpSource
from repro.nvdla.mcif import DbbPort, Mcif, McifStats
from repro.nvdla.registers import D_OP_ENABLE, GroupStatus
from repro.nvdla.timing import (
    TimingParams,
    bdma_op_timing,
    cdp_op_timing,
    conv_op_timing,
    fused_conv_pool_op_timing,
    pdp_op_timing,
    rubik_op_timing,
    sdp_op_timing,
)
from repro.nvdla.units import base as unit_base
from repro.nvdla.units import bdma as bdma_mod
from repro.nvdla.units import cdp as cdp_mod
from repro.nvdla.units import conv_pipeline
from repro.nvdla.units import fresh_units
from repro.nvdla.units import pdp as pdp_mod
from repro.nvdla.units import rubik as rubik_mod
from repro.nvdla.units import sdp as sdp_mod
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
    timing_params:
        Calibration constants; defaults from :class:`TimingParams`.
    fidelity:
        ``"functional"`` moves and computes real tensor data;
        ``"timing"`` only prices the ops (for ResNet-50-class runs).
    dma_efficiency:
        MCIF queueing efficiency (see :class:`~repro.nvdla.mcif.Mcif`).
    """

    def __init__(
        self,
        config: HardwareConfig,
        dbb: DbbPort,
        clock: Clock,
        timing_params: TimingParams | None = None,
        fidelity: str = "functional",
        dma_efficiency: float = 0.75,
    ) -> None:
        if fidelity not in ("functional", "timing"):
            raise ConfigurationError(f"unknown fidelity {fidelity!r}")
        self.config = config
        self.clock = clock
        self.fidelity = fidelity
        self.mcif = Mcif(dbb, dma_efficiency=dma_efficiency)
        self.cbuf = Cbuf(config)
        self.timing_params = timing_params or TimingParams()
        self.glb = Glb()
        self.units: dict[str, unit_base.Unit] = {
            "MCIF": unit_base.Unit("MCIF", _MCIF_REGISTER_NAMES),
            "SRAMIF": unit_base.Unit("SRAMIF", _SRAMIF_REGISTER_NAMES),
            "BDMA": bdma_mod.make_unit(),
            **fresh_units(),
            "RUBIK": rubik_mod.make_unit(),
        }
        self.records: list[OpRecord] = []
        self.on_op_complete: Callable[[OpRecord], None] | None = None
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
        if sink == "SDP":
            return self._launch_sdp(group)
        if sink == "PDP":
            return self._launch_pdp(group)
        if sink == "CDP":
            return self._launch_with_rdma("CDP", "CDP_RDMA", group, cdp_mod, cdp_op_timing)
        if sink == "BDMA":
            desc = bdma_mod.parse(self.units, group, self.config)
            timing = bdma_op_timing(desc, self.config, self.mcif, self.timing_params)
            if self.fidelity == "functional":
                bdma_mod.execute(desc, self.config, self.mcif)
            self._commit("bdma", "BDMA", group, [self.units["BDMA"].block], timing)
            return True
        if sink == "RUBIK":
            desc = rubik_mod.parse(self.units, group, self.config)
            timing = rubik_op_timing(desc, self.config, self.mcif, self.timing_params)
            if self.fidelity == "functional":
                rubik_mod.execute(desc, self.config, self.mcif)
            self._commit("rubik", "RUBIK", group, [self.units["RUBIK"].block], timing)
            return True
        raise RegisterError(f"unknown sink {sink!r}")  # pragma: no cover

    def _launch_sdp(self, group: int) -> bool:
        sdp_desc = sdp_mod.parse(self.units, group, self.config)
        if sdp_desc.dst_flying:
            # The SDP result streams on-chip to PDP: the whole fused
            # chain launches from the PDP sink once PDP is enabled.
            return False
        if sdp_desc.source is SdpSource.FLYING:
            producer_blocks = [self.units[name].block for name in conv_pipeline.CONV_UNIT_NAMES]
            if not all(
                b.enabled[group] and b.status[group] is GroupStatus.PENDING
                for b in producer_blocks
            ):
                return False
            conv_desc = conv_pipeline.parse(self.units, group, self.config)
            if conv_desc.out_width != sdp_desc.output.width or conv_desc.out_height != sdp_desc.output.height:
                raise ConfigurationError(
                    "SDP output cube does not match convolution output dims"
                )
            timing = conv_op_timing(
                conv_desc, sdp_desc, self.config, self.cbuf, self.mcif, self.timing_params
            )
            if self.fidelity == "functional":
                acc = conv_pipeline.execute(conv_desc, self.config, self.mcif)
                sdp_mod.execute(sdp_desc, self.config, self.mcif, flying_input=acc)
            blocks = producer_blocks + [self.units["SDP"].block]
            self._commit("conv", "SDP", group, blocks, timing, detail=timing.detail)
            return True
        # Memory-sourced standalone SDP op.
        rdma_block = self.units["SDP_RDMA"].block
        if not (rdma_block.enabled[group] and rdma_block.status[group] is GroupStatus.PENDING):
            return False
        timing = sdp_op_timing(sdp_desc, self.config, self.mcif, self.timing_params)
        if self.fidelity == "functional":
            sdp_mod.execute(sdp_desc, self.config, self.mcif)
        self._commit("sdp", "SDP", group, [rdma_block, self.units["SDP"].block], timing)
        return True

    def _launch_pdp(self, group: int) -> bool:
        pdp_desc = pdp_mod.parse(self.units, group, self.config)
        if not pdp_desc.src_flying:
            return self._launch_with_rdma("PDP", "PDP_RDMA", group, pdp_mod, pdp_op_timing)
        # Fused conv → SDP → PDP chain: PDP is the sink and launches
        # only once SDP and the whole convolution pipeline have the
        # same group pending (PDP_RDMA and SDP_RDMA stay idle).
        sdp_block = self.units["SDP"].block
        if not (sdp_block.enabled[group] and sdp_block.status[group] is GroupStatus.PENDING):
            return False
        sdp_desc = sdp_mod.parse(self.units, group, self.config)
        if not sdp_desc.dst_flying:
            raise ConfigurationError(
                "PDP sources on-chip from SDP but the SDP destination is memory"
            )
        if sdp_desc.source is not SdpSource.FLYING:
            raise ConfigurationError(
                "fused SDP→PDP chains require a convolution-sourced SDP stage"
            )
        producer_blocks = [self.units[name].block for name in conv_pipeline.CONV_UNIT_NAMES]
        if not all(
            b.enabled[group] and b.status[group] is GroupStatus.PENDING
            for b in producer_blocks
        ):
            return False
        conv_desc = conv_pipeline.parse(self.units, group, self.config)
        if conv_desc.out_width != sdp_desc.output.width or conv_desc.out_height != sdp_desc.output.height:
            raise ConfigurationError(
                "SDP output cube does not match convolution output dims"
            )
        if sdp_desc.output.shape != pdp_desc.input.shape:
            raise ConfigurationError(
                "PDP source cube does not match the SDP output cube"
            )
        timing = fused_conv_pool_op_timing(
            conv_desc, sdp_desc, pdp_desc, self.config, self.cbuf, self.mcif,
            self.timing_params,
        )
        if self.fidelity == "functional":
            acc = conv_pipeline.execute(conv_desc, self.config, self.mcif)
            result = sdp_mod.execute(sdp_desc, self.config, self.mcif, flying_input=acc)
            pdp_mod.execute(pdp_desc, self.config, self.mcif, flying_input=result)
        blocks = producer_blocks + [sdp_block, self.units["PDP"].block]
        self._commit("conv", "PDP", group, blocks, timing, detail=timing.detail)
        return True

    def _launch_with_rdma(self, sink: str, rdma: str, group: int, module, timing_fn) -> bool:
        rdma_block = self.units[rdma].block
        if not (rdma_block.enabled[group] and rdma_block.status[group] is GroupStatus.PENDING):
            return False
        desc = module.parse(self.units, group, self.config)
        timing = timing_fn(desc, self.config, self.mcif, self.timing_params)
        if self.fidelity == "functional":
            module.execute(desc, self.config, self.mcif)
        self._commit(sink.lower(), sink, group, [rdma_block, self.units[sink].block], timing)
        return True

    def _commit(
        self,
        kind: str,
        sink: str,
        group: int,
        blocks: list,
        timing: OpTiming,
        detail: dict | None = None,
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
            detail=detail or {},
        )
        self._op_index += 1
        self.records.append(record)
        dma_cycles = timing.weight_dma + timing.input_dma + timing.output_dma
        if dma_cycles:
            self.mcif.record_window(start, dma_cycles, 0, "mixed")

        def complete() -> None:
            for block in blocks:
                block.complete(group)
            self.glb.raise_interrupt(sink, group)
            if self.on_op_complete is not None:
                self.on_op_complete(record)
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


def flying_accumulator_dtype(acc: np.ndarray) -> str:
    """Debug helper: which datapath produced these accumulators."""
    return "int8-acc" if acc.dtype == np.int64 else "fp16-acc"
