"""The runtime: NVDLA's user-mode driver, in Python.

Deploys a :class:`~repro.compiler.loadable.Loadable` onto the virtual
platform and executes it hardware-layer by hardware-layer: select the
shadow group, program the unit registers, enable producers then the
sink, wait for the completion interrupt, acknowledge it.  Every CSB
access it makes is logged by the platform — the log *is* the paper's
configuration trace, later converted to bare-metal RISC-V assembly.

Ops alternate between the two ping-pong register groups like the real
KMD, so generated traces exercise the S_POINTER protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, NvdlaError, TraceError
from repro.compiler.loadable import Loadable
from repro.compiler.ops import CpuSoftmaxOp
from repro.nvdla.csb import UNIT_BASES, register_address
from repro.nvdla.config import Precision
from repro.nvdla.fastpath import pack_input
from repro.nvdla.layout import unpack_feature
from repro.nvdla.programming import ENABLE, SELECT, LayerChain, lower_chain, program_op
from repro.nvdla.registers import D_OP_ENABLE, S_POINTER
from repro.nvdla.units.glb import INTR_STATUS, interrupt_bit
from repro.vp.platform import VirtualPlatform


@dataclass
class InferenceResult:
    """Output of one VP inference."""

    raw_output: np.ndarray  # accelerator output (int8 / fp16), CHW
    output: np.ndarray  # dequantised float32, CHW
    probabilities: np.ndarray | None  # host softmax result, if any
    cycles: int
    ops: int
    csb_accesses: int
    op_cycles: dict[str, int] = field(default_factory=dict)


class NvdlaRuntime:
    """Drives a loadable through the platform, op by op."""

    def __init__(self, platform: VirtualPlatform) -> None:
        self.platform = platform
        self.loadable: Loadable | None = None
        self._group = 0

    # ------------------------------------------------------------------
    # Deployment.
    # ------------------------------------------------------------------

    def deploy(self, loadable: Loadable) -> None:
        """Load the weight blob into VP memory at its linked address."""
        if loadable.config != self.platform.config.name:
            raise TraceError(
                f"loadable built for {loadable.config}, platform is "
                f"{self.platform.config.name}"
            )
        self.platform.load_blob(loadable.weight_base, loadable.weight_blob)
        self.loadable = loadable

    def set_input(self, image: np.ndarray) -> None:
        """Quantise/cast and pack the input image into VP memory."""
        loadable = self._require_loadable()
        ref = loadable.input_tensor
        if image.shape != ref.shape:
            raise TraceError(f"input shape {image.shape} != network input {ref.shape}")
        self.platform.load_blob(*pack_input(loadable, self.platform.config, image))

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def execute(self) -> InferenceResult:
        """Run every hardware op, then host ops; returns the result."""
        loadable = self._require_loadable()
        start_csb = len(self.platform.trace.csb) if self.platform.trace else 0
        op_cycles: dict[str, int] = {}
        hw_ops = 0
        for index, op in enumerate(loadable.schedule.ops):
            if isinstance(op, CpuSoftmaxOp):
                continue
            began = self.platform.clock.now
            group = self._group
            self._group ^= 1
            chain = program_op(
                op, self.platform.config, loadable.weight_base, group, op_index=index
            )
            self._replay(chain)
            self._await_completion(chain)
            op_cycles[op.name] = self.platform.clock.now - began
            hw_ops += 1

        raw, output = self._read_output()
        probabilities = None
        if loadable.schedule.cpu_ops:
            flat = output.reshape(-1).astype(np.float64)
            exps = np.exp(flat - flat.max())
            probabilities = (exps / exps.sum()).astype(np.float32).reshape(output.shape)
        csb_count = (len(self.platform.trace.csb) if self.platform.trace else 0) - start_csb
        return InferenceResult(
            raw_output=raw,
            output=output,
            probabilities=probabilities,
            cycles=self.platform.clock.now,
            ops=hw_ops,
            csb_accesses=csb_count,
            op_cycles=op_cycles,
        )

    # ------------------------------------------------------------------
    # Register programming helpers.
    # ------------------------------------------------------------------

    def _require_loadable(self) -> Loadable:
        if self.loadable is None:
            raise TraceError("no loadable deployed")
        return self.loadable

    def _write(self, unit: str, register: str, value: int) -> None:
        offset = self.platform.engine.units[unit].offset_of(register)
        self.platform.csb_write(UNIT_BASES[unit] + offset, value & 0xFFFFFFFF)

    def _select_group(self, unit: str, group: int) -> None:
        self.platform.csb_write(register_address(unit, S_POINTER), group)

    def _enable(self, unit: str) -> None:
        self.platform.csb_write(register_address(unit, D_OP_ENABLE), 1)

    def _replay(self, chain: LayerChain) -> None:
        """Issue a descriptor chain to the hardware, event by event.

        The chain comes from :func:`repro.nvdla.programming.program_op`
        — the same pure builder the static analyzer consumes — so the
        CSB trace is exactly the sequence that module constructs.  A
        launch the engine rejects is re-raised naming the layer.
        """
        for event in chain.events:
            if event.kind == SELECT:
                self._select_group(event.unit, event.value)
            elif event.kind == ENABLE:
                try:
                    self._enable(event.unit)
                except ConfigurationError as exc:
                    raise ConfigurationError(
                        f"engine rejects {chain.op_name}: {exc}"
                    ) from exc
            else:
                self._write(event.unit, event.register, event.value)

    # ------------------------------------------------------------------
    # Completion.
    # ------------------------------------------------------------------

    def _await_completion(self, chain: LayerChain) -> None:
        """Wait for the chain sink's interrupt; read and acknowledge it.

        The read and the write-1-to-clear land in the CSB trace —
        exactly the entries the bare-metal converter turns into the
        poll loop and the acknowledge store.  A chain the engine never
        launches (its sink waits for a producer the chain does not
        enable) is checked the way the fast tier checks it, so the
        error names the layer and the broken cross-unit rule.
        """
        try:
            self.platform.wait_for_interrupt()
        except TraceError as exc:
            try:
                lower_chain(chain, self.platform.config)
            except NvdlaError as rejected:
                raise ConfigurationError(
                    f"{chain.op_name} never completes: {rejected}"
                ) from exc
            raise TraceError(f"{chain.op_name} never completes: {exc}") from exc
        bit = 1 << interrupt_bit(chain.sink, chain.group)
        status = self.platform.csb_read(register_address("GLB", INTR_STATUS))
        if not status & bit:
            raise TraceError(
                f"expected interrupt bit 0x{bit:x} for {chain.sink}, status=0x{status:08x}"
            )
        self.platform.csb_write(register_address("GLB", INTR_STATUS), bit)

    def _read_output(self) -> tuple[np.ndarray, np.ndarray]:
        loadable = self._require_loadable()
        ref = loadable.output_tensor
        atom = self.platform.config.atom_channels(ref.precision)
        blob = self.platform.read_blob(ref.require_address(), ref.packed_bytes(atom))
        raw = unpack_feature(blob, ref.shape, atom, ref.precision)
        if ref.precision is Precision.INT8:
            output = raw.astype(np.float32) * ref.scale
        else:
            output = raw.astype(np.float32)
        return raw, output
