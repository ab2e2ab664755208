"""The SoC's resolved data routes equal the hop-by-hop bus fabric.

:class:`~repro.core.soc.SystemBus` resolves each decoder window once
(NVDLA registers: a direct CSB call; DRAM: the arbiter) and charges the
latency the hops compose to.  Here every route is checked against the
walk through the ``repro.bus`` layer objects it replaced — AHB-Lite →
decoder → AHB→APB bridge → APB → APB→CSB adapter → CSB, and AHB-Lite →
decoder → AHB→AXI bridge → arbiter — on twin SoCs: same value, same
cycles, same exception (type, message, address), and the same side
effects on unit registers, DRAM bytes, DRAM row state and arbiter
statistics.  The port also publishes its register window as a
:class:`~repro.bus.types.RegisterRoute`, which the CPU's interpreter
loop calls directly; whole bundle runs on that route must equal runs
through the layered walk, which has no route.

The instruction port is not simulated at all: the core decodes the
program at load and prices every fetch with one composed constant,
which must equal the AHB-Lite → BRAM walk at every program address.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.bus.ahb import AhbLiteBus
from repro.bus.apb import ApbBus
from repro.bus.bridges import AhbToApbBridge, AhbToAxiBridge, ApbToCsbAdapter
from repro.bus.interconnect import AddressDecoder, Region
from repro.core import Soc
from repro.core.address_map import (
    DRAM_BASE,
    DRAM_LIMIT,
    NVDLA_LIMIT,
    PROGRAM_MEMORY_SIZE,
    AddressMap,
)
from repro.core.nvdla_wrapper import CsbPort
from repro.errors import CpuFault, ReproError
from repro.mem.bram import Bram
from repro.nvdla import NV_SMALL
from repro.riscv import assemble
from repro.riscv.cpu import FETCH_CYCLES, FETCH_WAIT
from repro.serve.cache import BundleCache

SIZES = (1, 2, 4)

#: NVDLA window: GLB and unit registers (no D_OP_ENABLE, so nothing
#: launches), a 2-aligned and an odd address, an offset past the CSB
#: space and the window's last word.
NVDLA_ADDRESSES = (0x0, 0x4, 0xC, 0x5010, 0x5012, 0x5013, 0xB00C, 0xB010, 0x20000, NVDLA_LIMIT - 3)
#: DRAM window: the status page, odd offsets, another row, the last word.
DRAM_ADDRESSES = (
    DRAM_BASE,
    DRAM_BASE + 1,
    DRAM_BASE + 2,
    DRAM_BASE + 0x2000,
    DRAM_BASE + 0x10006,
    DRAM_LIMIT - 3,
    DRAM_LIMIT,
)
UNMAPPED_ADDRESSES = (0x30000000, 0xFFFFFFFC)


def layered_system_bus(soc: Soc) -> AhbLiteBus:
    """The core's data port as a walk through the bus layer models."""
    amap = soc.address_map
    register_path = AhbToApbBridge(ApbBus(ApbToCsbAdapter(CsbPort(soc.wrapper.engine))))
    decoder = AddressDecoder(
        [
            Region("nvdla", amap.nvdla_base, amap.nvdla_limit, register_path),
            Region("dram", amap.dram_base, amap.dram_limit, AhbToAxiBridge(soc.arbiter)),
        ]
    )
    return AhbLiteBus(decoder)


def _apply(port, access: str, address: int, size: int, value: int) -> tuple:
    try:
        if access == "read":
            reply = port.read(address, size)
            return ("ok", reply.value(), reply.cycles, reply.ok)
        reply = port.write(address, value, size)
        return ("ok", reply.data, reply.cycles, reply.ok)
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc), str(exc), getattr(exc, "address", None))


def _state(soc: Soc, registers, dram_addresses) -> tuple:
    values = []
    for offset in registers:
        try:
            values.append(soc.wrapper.engine.csb_read(offset))
        except ReproError as exc:
            values.append(type(exc))
    dram = soc.dram
    base = soc.address_map.dram_base
    dram_bytes = [
        dram.storage.read(a - base, min(4, soc.address_map.dram_limit - a + 1))
        for a in dram_addresses
    ]
    return (
        values,
        dram_bytes,
        dataclasses.asdict(dram.stats),
        dict(dram._open_rows),
        dataclasses.asdict(soc.arbiter.stats),
    )


def _twins(address_map: AddressMap | None = None) -> tuple[Soc, Soc]:
    kwargs = {} if address_map is None else {"address_map": address_map}
    return Soc(NV_SMALL, **kwargs), Soc(NV_SMALL, **kwargs)


def _check_grid(resolved: Soc, layered: Soc, addresses, registers, dram_addresses) -> int:
    reference = layered_system_bus(layered)
    checked = 0
    for address in addresses:
        for size in SIZES:
            for access in ("write", "read"):
                value = (0x9E3779B9 * (checked + 1)) & ((1 << (8 * size)) - 1)
                got = _apply(resolved.system_bus, access, address, size, value)
                want = _apply(reference, access, address, size, value)
                case = f"{access} {size}B @0x{address:08x}"
                assert got == want, case
                assert _state(resolved, registers, dram_addresses) == _state(
                    layered, registers, dram_addresses
                ), case
                checked += 1
    return checked


@pytest.mark.parametrize("contended", [False, True], ids=["idle", "nvdla-dma-busy"])
def test_routes_match_layer_walk(contended):
    resolved, layered = _twins()
    if contended:  # an NVDLA DMA window over "now": CPU grants pay the penalty
        for soc in (resolved, layered):
            soc.wrapper.engine.mcif.record_window(0, 1000)
    registers = [a for a in NVDLA_ADDRESSES if a % 4 == 0]
    addresses = NVDLA_ADDRESSES + DRAM_ADDRESSES + UNMAPPED_ADDRESSES
    checked = _check_grid(resolved, layered, addresses, registers, DRAM_ADDRESSES)
    assert checked == len(addresses) * len(SIZES) * 2
    if contended:
        assert resolved.arbiter.stats.contended_grants > 0


def test_straddling_accesses_match_layer_walk():
    """Windows whose limits are not word-aligned: a beat can straddle out."""
    amap = AddressMap(nvdla_base=0x0, nvdla_limit=0xFFFFE, dram_limit=0x200FFFFD)
    resolved, layered = _twins(amap)
    addresses = (0xFFFFC, 0xFFFFE, 0xFFFFF, 0x200FFFFC, 0x200FFFFD, 0x200FFFFE)
    _check_grid(resolved, layered, addresses, [0x0], (0x200FFFFC,))
    outcome = _apply(resolved.system_bus, "read", 0xFFFFC, 4, 0)
    assert outcome[0] == "raised" and "crosses out of region 'nvdla'" in outcome[2]


def _run(soc: Soc, source: str):
    soc.load_program(assemble(source))
    try:
        stats = soc.executor.run(max_instructions=1000)
    except CpuFault as fault:
        return ("fault", str(fault), type(fault.__cause__), soc.cpu.pc)
    pipeline = dataclasses.asdict(soc.cpu.pipeline.stats)
    return ("ok", stats, pipeline, tuple(soc.cpu.regs))


@pytest.mark.parametrize(
    "source",
    [
        pytest.param(
            f"""
            li t0, 0xB010
            li t1, 0x1234
            sw t1, 0(t0)
            lw a0, 0(t0)
            li t2, 0x{DRAM_BASE + 0x40:x}
            sb t1, 1(t2)
            lh a1, 0(t2)
            lbu a2, 1(t2)
            sw a0, 4(t2)
            lw a3, 4(t2)
            add a4, a3, a1
            ebreak
            """,
            id="mixed-traffic",
        ),
        pytest.param("li t0, 0x30000000\nlw a0, 0(t0)\nebreak\n", id="unmapped-load"),
        pytest.param("li t0, 0xB010\nsh t1, 0(t0)\nebreak\n", id="narrow-csb-store"),
        pytest.param(f"li t0, 0x{DRAM_BASE + 2:x}\nlw a0, 0(t0)\nebreak\n", id="misaligned-load"),
        pytest.param("li t0, 0x20000\nsw t1, 0(t0)\nebreak\n", id="csb-hole-store"),
    ],
)
def test_cpu_sees_identical_runs_and_faults(source):
    """Through the CPU: same cycles, stalls and registers, or the same
    :class:`CpuFault` wrapping the same bus exception."""
    resolved, layered = _twins()
    layered.cpu.dbus = layered_system_bus(layered)
    assert _run(resolved, source) == _run(layered, source)


def _records_digest(records) -> str:
    """SHA-256 over the op records, as ``tests/nvdla/test_iss_golden.py``
    computes it."""
    view = [
        [r.index, r.kind, r.sink, r.group, r.start_cycle, r.end_cycle,
         r.timing.as_dict(), r.detail]
        for r in records
    ]
    return hashlib.sha256(json.dumps(view, sort_keys=True, default=repr).encode()).hexdigest()


@pytest.fixture(scope="module")
def cache():
    return BundleCache()


@pytest.mark.parametrize("model", ["lenet5", "resnet18"])
def test_bundle_runs_match_layer_walk(model, cache):
    """A whole inference on the resolved register route equals the same
    inference through the layered AHB→APB→CSB walk: run statistics,
    pipeline statistics, op records, registers and output bytes."""
    bundle = cache.bundle_for(model, "nv_small")
    resolved, layered = _twins()
    layered.cpu.dbus = layered_system_bus(layered)
    assert resolved.cpu.dbus.register_route is not None
    assert layered.cpu.dbus.register_route is None
    runs = []
    for soc in (resolved, layered):
        soc.load_bundle(bundle)
        result = soc.run_inference(bundle)
        assert result.ok and result.output is not None
        runs.append(
            (
                result.stats,
                dataclasses.asdict(soc.cpu.pipeline.stats),
                _records_digest(result.op_records),
                soc.cpu.state(),
                result.output.tobytes(),
                dataclasses.asdict(soc.dram.stats),
            )
        )
    assert runs[0] == runs[1]


def layered_instruction_port(program) -> AhbLiteBus:
    """The core's instruction port as a walk through the layer models:
    AHB-Lite → program BRAM, holding ``program``."""
    bram = Bram(PROGRAM_MEMORY_SIZE)
    bram.storage.write(program.base, program.to_bytes())
    return AhbLiteBus(bram)


@pytest.mark.parametrize("model", ["lenet5", "resnet18"])
def test_fetch_price_matches_layer_walk(model, cache):
    """At every address of a bundle's program, the hop-by-hop fetch
    returns the word the core decoded and costs :data:`FETCH_CYCLES`:
    one pipeline cycle plus :data:`FETCH_WAIT` wait states."""
    program = cache.bundle_for(model, "nv_small").program
    port = layered_instruction_port(program)
    for pc, word in zip(range(program.base, program.end, 4), program.words):
        reply = port.read(pc, 4, master="ifetch")
        assert (reply.value(), reply.cycles) == (word, FETCH_CYCLES), hex(pc)
    assert FETCH_WAIT == FETCH_CYCLES - 1 == 1


def test_every_instruction_pays_the_fetch_wait():
    """A run without data-port traffic waits only on fetches: one
    :data:`FETCH_WAIT` per executed instruction."""
    soc = Soc(NV_SMALL)
    source = "li t0, 3\nloop:\n addi t0, t0, -1\n bnez t0, loop\n mul a0, t0, t0\n ebreak\n"
    outcome = _run(soc, source)
    assert outcome[0] == "ok"
    stats = soc.cpu.pipeline.stats
    assert stats.bus_wait_cycles == FETCH_WAIT * stats.instructions > 0
