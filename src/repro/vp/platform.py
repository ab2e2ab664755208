"""The virtual platform: NVDLA + flat memory + logging adaptors.

Mirrors the QEMU/SystemC co-simulation of the paper's Fig. 3: the
"CPU" side is the Python runtime driving :meth:`csb_write` /
:meth:`csb_read` (each access logged by the CSB adaptor), and the
NVDLA model's memory traffic flows through a logging DBB adaptor into
a flat sparse memory initialised with the loadable's weight blob and
the input image.

The VP uses the same absolute address map as the SoC (DRAM window at
``0x100000``), so generated traces replay on the SoC unchanged — the
property the whole bare-metal flow rests on.
"""

from __future__ import annotations

from repro.clock import Clock
from repro.errors import TraceError
from repro.mem.sparse_memory import SparseMemory
from repro.nvdla.config import HardwareConfig
from repro.nvdla.engine import NvdlaEngine
from repro.vp.trace_log import TraceLog

_MEMORY_TOP = 0x2100_0000  # covers the 512 MB DRAM window + headroom
_FREQUENCY_HZ = 100e6


class _LoggingDbbPort:
    """DBB adaptor: forwards to memory and logs each transaction."""

    def __init__(
        self,
        memory: SparseMemory,
        clock: Clock,
        log: TraceLog | None,
        width_bytes: int,
    ) -> None:
        self._memory = memory
        self._clock = clock
        self._log = log
        self._width = max(1, width_bytes)

    def read(self, address: int, nbytes: int) -> bytes:
        data = self._memory.read(address, nbytes)
        if self._log is not None:
            self._log.log_dbb(self._clock.now, address, data, iswrite=False)
        return data

    def write(self, address: int, data: bytes) -> None:
        self._memory.write(address, data)
        if self._log is not None:
            self._log.log_dbb(self._clock.now, address, bytes(data), iswrite=True)

    def stream_cycles(self, address: int, nbytes: int) -> int:
        # Simple VP memory: ideal DBB-width beats plus a per-256B burst
        # handshake.  VP timing only orders the trace; SoC latencies
        # come from the SoC's own memory system.
        beats = -(-nbytes // self._width)
        bursts = -(-nbytes // 256)
        return beats + 2 * bursts


class VirtualPlatform:
    """Co-simulation host for trace generation and validation runs."""

    def __init__(
        self,
        config: HardwareConfig,
        fidelity: str = "functional",
        trace: bool = True,
    ) -> None:
        self.config = config
        self.memory = SparseMemory(_MEMORY_TOP)
        self.clock = Clock(_FREQUENCY_HZ)
        self.trace: TraceLog | None = TraceLog() if trace else None
        self._dbb = _LoggingDbbPort(
            self.memory, self.clock, self.trace, config.dbb_width_bytes
        )
        self.engine = NvdlaEngine(config, dbb=self._dbb, clock=self.clock, fidelity=fidelity)

    # ------------------------------------------------------------------
    # The CSB adaptor (every access logged).
    # ------------------------------------------------------------------

    CSB_ACCESS_COST = 1  # VP cycles per register access

    def csb_write(self, offset: int, value: int) -> None:
        if self.trace is not None:
            self.trace.log_csb(self.clock.now, offset, value, iswrite=True)
        self.engine.csb_write(offset, value)
        self.clock.advance(self.CSB_ACCESS_COST)

    def csb_read(self, offset: int) -> int:
        value = self.engine.csb_read(offset)
        if self.trace is not None:
            self.trace.log_csb(self.clock.now, offset, value, iswrite=False)
        self.clock.advance(self.CSB_ACCESS_COST)
        return value

    # ------------------------------------------------------------------
    # Execution control.
    # ------------------------------------------------------------------

    def wait_for_interrupt(self, max_events: int = 64) -> None:
        """Advance the clock until the NVDLA IRQ line asserts."""
        fired = 0
        while not self.engine.irq_asserted:
            if not self.clock.fast_forward_to_next_event():
                raise TraceError("deadlock: waiting for interrupt with no pending events")
            fired += 1
            if fired > max_events:
                raise TraceError("interrupt did not assert within the event budget")

    def load_blob(self, address: int, data: bytes) -> None:
        """Preload memory (weights / input image) without DBB logging —
        on the real VP this initialisation happens via the test bridge,
        not through NVDLA's DBB port."""
        self.memory.write(address, data)

    def read_blob(self, address: int, nbytes: int) -> bytes:
        return self.memory.read(address, nbytes)
