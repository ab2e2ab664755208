"""DRAM arbiter: contention between the core and NVDLA DMA."""

from __future__ import annotations

from repro.clock import Clock
from repro.core.arbiter import DramArbiter
from repro.mem import Dram, SparseMemory
from repro.nvdla.mcif import Mcif

from tests.conftest import DirectDbbPort


def _arbiter_with_contention(busy_from: int, busy_cycles: int):
    dram = Dram(size=1 << 20)
    arbiter = DramArbiter(dram, grant_penalty=4)
    clock = Clock()
    mcif = Mcif(DirectDbbPort(SparseMemory(1 << 16)))
    mcif.record_window(busy_from, busy_cycles)
    arbiter.attach_contention_source(mcif, clock)
    return arbiter, clock


def test_cpu_pays_grant_penalty_during_dma():
    arbiter, clock = _arbiter_with_contention(busy_from=0, busy_cycles=100)
    clock.advance(50)  # inside the DMA window
    contended = arbiter.read(0x100).cycles
    clock.advance(100)  # window over
    free = arbiter.read(0x100).cycles
    assert contended >= free + arbiter.grant_penalty - 1
    assert arbiter.stats.contended_grants == 1
    assert arbiter.stats.cpu_stall_cycles == arbiter.grant_penalty


def test_no_penalty_without_contention_source():
    arbiter = DramArbiter(Dram(size=1 << 20))
    raw = Dram(size=1 << 20)  # fresh row-buffer state for a fair compare
    cycles = arbiter.read(0x100).cycles
    assert arbiter.stats.contended_grants == 0
    assert cycles == raw.read(0x100).cycles  # same timing as raw DRAM


def test_streams_counted_separately():
    dram = Dram(size=1 << 20)
    arbiter = DramArbiter(dram)
    arbiter.stream_write(0x0, b"\x01" * 256)
    data, _ = arbiter.stream_read(0x0, 256)
    assert data == b"\x01" * 256
    assert arbiter.stats.nvdla_streams == 2
    assert arbiter.stats.cpu_grants == 0


def test_stream_cycles_timing_only_moves_no_data():
    dram = Dram(size=1 << 20)
    cycles = dram.timing.stream_cycles(4096)
    assert cycles > 0
    assert dram.stats.bytes_read == 0  # pure pricing


def test_functional_and_pricing_agree_on_order():
    """Bigger transfers must price higher through either path."""
    dram = Dram(size=1 << 20)
    assert dram.timing.stream_cycles(64 * 1024) > dram.timing.stream_cycles(1024)
