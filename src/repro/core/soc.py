"""The SoC top level (paper Fig. 2).

Wires together:

- the µRISC-V core (Harvard AHB-Lite ports: instructions from BRAM
  program memory, data into the system bus).  The program is decoded
  into the core at load and every fetch is priced by the core's
  composed :data:`~repro.riscv.cpu.FETCH_CYCLES`, so program memory is
  only a capacity (:data:`~repro.core.address_map.PROGRAM_MEMORY_SIZE`),
- the system bus — an AHB segment feeding the address decoder with the
  two slave windows (NVDLA registers, DRAM), each resolved once to a
  direct route (:class:`SystemBus`).  The register window is also
  published as a :class:`~repro.bus.types.RegisterRoute`, so the core's
  interpreter loop sends aligned 32-bit register accesses straight to
  the engine's CSB port,
- the NVDLA wrapper (bridges + width converter + engine),
- the DRAM arbiter in front of the 512 MB data memory.

`run_inference` executes a bare-metal bundle exactly the way the FPGA
does: machine code in program memory, weights/input preloaded in DRAM,
CPU released from reset, completion signalled by the status page.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baremetal.codegen import (
    MAGIC_DONE,
    MAGIC_FAIL,
    STATUS_CYCLES_HI,
    STATUS_FAIL_ADDR,
    STATUS_FAIL_INDEX,
    STATUS_RESULT,
)
from repro.baremetal.pipeline import BaremetalBundle
from repro.bus.ahb import AhbLiteBus
from repro.bus.bridges import AhbToAxiBridge
from repro.bus.types import AccessType, BusPort, RegisterRoute, Reply, Transfer, check_beat
from repro.clock import Clock
from repro.core.address_map import AddressMap, DEFAULT_MAP, PROGRAM_MEMORY_SIZE
from repro.core.arbiter import DramArbiter
from repro.core.executor import BaremetalExecutor, RunStats
from repro.core.nvdla_wrapper import CSB_WIDTH_ERROR, REGISTER_PATH_CYCLES, NvdlaWrapper
from repro.errors import AddressDecodeError, BusError, MemoryError_
from repro.mem.dram import Dram, DramTiming
from repro.nvdla.config import HardwareConfig, NV_SMALL, Precision
from repro.nvdla.layout import unpack_feature
from repro.riscv.cpu import Cpu
from repro.riscv.program import Program


@dataclass
class SocRunResult:
    """Outcome of one bare-metal inference on the SoC."""

    ok: bool
    cycles: int
    seconds: float
    stats: RunStats
    status_word: int
    fail_index: int | None = None
    fail_address: int | None = None
    output: np.ndarray | None = None
    op_records: list = field(default_factory=list)

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


class SystemBus(BusPort):
    """The core's data port: AHB-Lite into the system-bus decoder.

    Each decoder window is resolved once, at construction, to one
    route:

    - **NVDLA registers** — a direct call to the engine's CSB port,
      charged the AHB address phase plus the wrapper's composed
      :data:`~repro.core.nvdla_wrapper.REGISTER_PATH_CYCLES`;
    - **DRAM** — the arbiter's CPU port (so contention and DRAM row
      state stay exact), plus the AHB address phase and the AHB→AXI
      crossing.

    The decoder's checks stay: beat size and alignment, straddling and
    unmapped addresses, and the CSB's single-32-bit rule.  The 32-bit
    core issues 1-, 2- and 4-byte single beats only.

    :attr:`register_route` publishes the register window (its bounds,
    the engine's ``csb_read``/``csb_write`` and :attr:`register_cycles`)
    so the CPU skips this port for aligned 32-bit register accesses;
    every other access, and every fault, comes through :meth:`read`
    and :meth:`write`.  ``tests/core/test_system_bus.py`` pins every
    route, and whole bundle runs on it, to the hop-by-hop walk through
    the ``repro.bus`` layer models.
    """

    BEAT_SIZES = (1, 2, 4)

    def __init__(
        self, address_map: AddressMap, wrapper: NvdlaWrapper, arbiter: DramArbiter
    ) -> None:
        self._engine = wrapper.engine
        self._arbiter = arbiter
        ahb = AhbLiteBus.ADDRESS_PHASE_CYCLES
        self.register_cycles = ahb + REGISTER_PATH_CYCLES
        self._dram_adder = ahb + AhbToAxiBridge.CROSSING_CYCLES
        self._windows = (
            ("nvdla", address_map.nvdla_base, address_map.nvdla_limit),
            ("dram", address_map.dram_base, address_map.dram_limit),
        )
        self.register_route = RegisterRoute(
            address_map.nvdla_base,
            address_map.nvdla_limit,
            self._engine.csb_read,
            self._engine.csb_write,
            self.register_cycles,
        )

    def _decode(self, address: int, size: int) -> tuple[int, bool]:
        """Window-relative offset of a beat, and whether it is a register access."""
        check_beat(address, size, self.BEAT_SIZES)
        for name, base, limit in self._windows:
            if base <= address <= limit:
                if address + size - 1 > limit:
                    raise AddressDecodeError(
                        f"burst 0x{address:08x}+{size} crosses out of region {name!r}",
                        address,
                    )
                register = name == "nvdla"
                if register and size != 4:
                    raise BusError(CSB_WIDTH_ERROR, address - base)
                return address - base, register
        raise AddressDecodeError(f"no slave mapped at 0x{address:08x}", address)

    def read(self, address: int, size: int = 4, master: str = "cpu") -> Reply:
        offset, register = self._decode(address, size)
        if register:
            value = self._engine.csb_read(offset)
            return Reply(data=value.to_bytes(4, "little"), cycles=self.register_cycles)
        reply = self._arbiter.transfer(
            Transfer(address=offset, size=size, access=AccessType.READ, master=master)
        )
        return Reply(data=reply.data, cycles=self._dram_adder + reply.cycles, ok=reply.ok)

    def write(self, address: int, value: int, size: int = 4, master: str = "cpu") -> Reply:
        offset, register = self._decode(address, size)
        if register:
            self._engine.csb_write(offset, value)
            return Reply(cycles=self.register_cycles)
        data = int(value).to_bytes(size, "little")
        reply = self._arbiter.transfer(
            Transfer(address=offset, size=size, access=AccessType.WRITE, data=data, master=master)
        )
        return Reply(cycles=self._dram_adder + reply.cycles, ok=reply.ok)

    def transfer(self, xfer: Transfer) -> Reply:
        if xfer.burst_len != 1:
            raise BusError("the core's data port issues single beats only", xfer.address)
        if xfer.access is AccessType.WRITE:
            # Transfer.__post_init__ rejects a write without a payload.
            value = int.from_bytes(xfer.data, "little")
            return self.write(xfer.address, value, xfer.size, xfer.master)
        return self.read(xfer.address, xfer.size, xfer.master)


class Soc:
    """The bare-metal RISC-V + NVDLA SoC."""

    def __init__(
        self,
        config: HardwareConfig = NV_SMALL,
        frequency_hz: float = 100e6,
        fidelity: str = "functional",
        address_map: AddressMap = DEFAULT_MAP,
        memory_bus_width_bits: int = 32,
    ) -> None:
        self.config = config
        self.address_map = address_map
        self.clock = Clock(frequency_hz)
        # The data-memory bus is 32-bit in the published SoC (Fig. 2);
        # the nv_full simulations of Table III assume the widened AXI
        # path the paper's conclusion calls for.
        self.memory_bus_width_bits = memory_bus_width_bits
        self.dram = Dram(
            size=address_map.dram_size,
            timing=DramTiming(data_width_bits=memory_bus_width_bits),
        )
        self.arbiter = DramArbiter(self.dram)
        self.wrapper = NvdlaWrapper(
            config,
            arbiter=self.arbiter,
            clock=self.clock,
            address_map=address_map,
            fidelity=fidelity,
            memory_bus_width_bits=memory_bus_width_bits,
        )
        self.system_bus = SystemBus(address_map, self.wrapper, self.arbiter)
        self.cpu = Cpu(self.system_bus)
        self.executor = BaremetalExecutor(self.cpu, self.clock)

    # ------------------------------------------------------------------
    # Loading.
    # ------------------------------------------------------------------

    def reset_for_run(self, scrub_dram: bool = True) -> None:
        """Return the SoC to its power-on state so it can be reused.

        The serving layer keeps SoC instances alive across requests
        (building one costs far more than running one), so between
        inferences the clock, CPU, engine and statistics must all go
        back to cycle zero.  With ``scrub_dram`` the data memory is
        cleared too, which makes a reused SoC bit-identical to a
        freshly constructed one; callers that are about to reload the
        same preload images may skip the scrub to save the rewrite.
        The loaded program, decoded in the CPU, is left alone: only
        :meth:`load_program` changes it.
        """
        self.clock.reset()
        self.wrapper.engine.reset()
        self.cpu.reset()
        self.dram.stats = type(self.dram.stats)()
        self.dram._open_rows.clear()
        self.arbiter.stats = type(self.arbiter.stats)()
        if scrub_dram:
            self.dram.storage.clear()
        else:
            # At minimum invalidate the status page so a stale DONE
            # word cannot leak into the next run's result decode.
            self.dram.storage.write(0, bytes(STATUS_CYCLES_HI + 4))

    def load_program(self, program: Program) -> None:
        """Load ``program`` into the CPU and reset the CPU to its entry.

        Raises :class:`~repro.errors.MemoryError_` if the program does
        not fit program memory.  Only the program side is reset: the
        CPU (registers, pc, decode table).  The clock, the engine, the
        statistics and the DRAM contents and open rows keep the state
        of any earlier run, so on a used SoC the next run's cycle count
        would include that run.  Callers reusing a SoC must call
        :meth:`reset_for_run` first; the pair then runs exactly as a
        fresh SoC does.
        """
        if program.base < 0 or program.end > PROGRAM_MEMORY_SIZE:
            raise MemoryError_(
                f"program [0x{program.base:x}, 0x{program.end:x}) outside program "
                f"memory of size 0x{PROGRAM_MEMORY_SIZE:x}"
            )
        self.cpu.load_program(program)

    def preload_dram(self, address: int, data: bytes) -> None:
        """Testbench-style preload (Fig. 4's Zynq path models timing)."""
        self.dram.storage.write(address - self.address_map.dram_base, data)

    def load_bundle(self, bundle: BaremetalBundle) -> None:
        """Program memory + every preload image of a bundle."""
        self.load_program(bundle.program)
        for image in bundle.images.preload:
            self.preload_dram(image.load_address, image.data)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run_inference(
        self,
        bundle: BaremetalBundle | None = None,
        max_instructions: int = 200_000_000,
    ) -> SocRunResult:
        """Run the loaded program to completion and decode the status.

        The output tensor is read back when ``bundle`` is given and this
        SoC's engine computed the data plane (functional fidelity).
        """
        stats = self.executor.run(max_instructions=max_instructions)
        status_base = self.address_map.dram_base
        status = self._read_status_u32(status_base + STATUS_RESULT)
        ok = status == MAGIC_DONE
        fail_index = fail_address = None
        if status == MAGIC_FAIL:
            fail_index = self._read_status_u32(status_base + STATUS_FAIL_INDEX)
            fail_address = self._read_status_u32(status_base + STATUS_FAIL_ADDR)
        output = None
        if ok and bundle is not None and self.wrapper.engine.fidelity == "functional":
            output = self.read_output(bundle)
        return SocRunResult(
            ok=ok,
            cycles=stats.cycles,
            seconds=stats.seconds,
            stats=stats,
            status_word=status,
            fail_index=fail_index,
            fail_address=fail_address,
            output=output,
            op_records=list(self.wrapper.engine.records),
        )

    def _read_status_u32(self, bus_address: int) -> int:
        return self.dram.storage.read_u32(bus_address - self.address_map.dram_base)

    def read_output(self, bundle: BaremetalBundle) -> np.ndarray:
        """Unpack the network output tensor from DRAM (dequantised)."""
        return read_output_tensor(
            self.dram.storage, bundle, self.config, self.address_map.dram_base
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def describe(self) -> str:
        return (
            f"SoC @ {self.clock.frequency_hz / 1e6:g} MHz: µRISC-V (RV32IM, 4-stage) + "
            f"{self.wrapper.describe()}; decoder {self.address_map.describe()}"
        )

    def stats_summary(self) -> dict:
        return {
            "cpu": {
                "instructions": self.cpu.instret,
                "cycles": self.cpu.cycles,
                "cpi": self.cpu.pipeline.stats.cpi,
            },
            "nvdla": self.wrapper.engine.summary(),
            "dram": {
                "bytes_read": self.dram.stats.bytes_read,
                "bytes_written": self.dram.stats.bytes_written,
                "row_hit_rate": (
                    self.dram.stats.row_hits
                    / max(1, self.dram.stats.row_hits + self.dram.stats.row_misses)
                ),
            },
            "arbiter": {
                "cpu_grants": self.arbiter.stats.cpu_grants,
                "contended": self.arbiter.stats.contended_grants,
            },
        }


def read_output_tensor(
    storage, bundle: BaremetalBundle, config: HardwareConfig, dram_base: int
) -> np.ndarray:
    """Unpack + dequantise a bundle's output tensor from a DRAM image.

    One implementation for every execution tier — the fast path reads
    its private DRAM image through this too, so the output decode can
    never diverge between tiers.
    """
    ref = bundle.loadable.output_tensor
    atom = config.atom_channels(ref.precision)
    raw = storage.read(ref.require_address() - dram_base, ref.packed_bytes(atom))
    tensor = unpack_feature(raw, ref.shape, atom, ref.precision)
    if ref.precision is Precision.INT8:
        return tensor.astype(np.float32) * ref.scale
    return tensor.astype(np.float32)

