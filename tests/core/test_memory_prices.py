"""Exact cycles of the SoC memory system, beyond the ISS golden file.

The memory system has one set of prices, module constants of
:mod:`repro.mem.dram` (controller latency, beat cycles, row hit/miss
extras, row bytes, banks, burst bytes), :mod:`repro.core.arbiter`
(grant penalty), :mod:`repro.nvdla.mcif` (DMA efficiency),
:mod:`repro.compiler.weight_packer` (weight alignment) and
:mod:`repro.core.address_map` (DRAM window and status page); the
memory-bus width is the one parameter.  ``tests/nvdla/test_iss_golden.py``
pins whole runs at 32 and 64 bits; the figures here cover the rest:

- the width ablation on ResNet-50/nv_full at 32 to 512 bits,
- the ESP Linux-driver baseline of Table II (the VP's stream price),
- ``Mcif.stream_cycles`` on the SoC wrapper's DBB port over byte
  counts, memory-bus widths and both configs,
- the DRAM's own stream accounting, a CPU access sequence through the
  arbiter that walks rows and banks, idle and under an NVDLA DMA
  window,
- the DRAM window the SoC decodes, where the compiler places LeNet-5
  and the status words a reused SoC wipes.

Every literal was recorded before the prices became constants, so a
change to any of them fails here.
"""

from __future__ import annotations

import pytest

from repro.baseline.esp_platform import run_esp_baseline
from repro.clock import Clock
from repro.compiler import compile_network
from repro.core import Soc
from repro.core.address_map import DRAM_BASE, STATUS_PAGE_BASE
from repro.core.arbiter import DramArbiter
from repro.harness.experiments import run_ablation_width
from repro.mem import Dram
from repro.nn.zoo import ZOO
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import get_config
from repro.nvdla.mcif import Mcif

WIDTH_SWEEP_CYCLES = {
    32: 79_686_220,
    64: 47_218_080,
    128: 30_984_010,
    256: 23_044_576,
    512: 19_152_368,
}

#: model → (total cycles, accelerator cycles, milliseconds) at 50 MHz.
ESP_BASELINE = {
    "lenet5": (12_611_704, 242_100, 252.23408),
    "resnet18": (13_907_904, 823_852, 278.15808),
    "resnet50": (120_929_026, 106_360_424, 2418.58052),
}

STREAM_BYTES = (1, 64, 255, 256, 257, 2048, 2049, 65536)

#: (config, memory-bus width) → Mcif.stream_cycles for each of STREAM_BYTES.
STREAM_CYCLES = {
    ("nv_small", 32): [38, 68, 164, 164, 186, 1200, 1238, 38400],
    ("nv_small", 64): [38, 52, 100, 100, 122, 688, 726, 22016],
    ("nv_small", 128): [38, 44, 68, 68, 90, 514, 516, 16386],
    ("nv_small", 256): [38, 40, 66, 66, 74, 514, 516, 16386],
    ("nv_small", 512): [38, 38, 66, 66, 68, 514, 516, 16386],
    ("nv_full", 32): [38, 68, 164, 164, 186, 1200, 1238, 38400],
    ("nv_full", 64): [38, 52, 100, 100, 122, 688, 726, 22016],
    ("nv_full", 128): [38, 44, 68, 68, 90, 432, 470, 13824],
    ("nv_full", 256): [38, 40, 52, 52, 74, 304, 342, 9728],
    ("nv_full", 512): [38, 38, 44, 44, 66, 240, 278, 7680],
}

#: CPU accesses (address, bytes) through the arbiter: row hits and
#: misses within a bank, a row-boundary byte, rows that alias the same
#: bank, and a trailing halfword write.
CPU_ACCESSES = (
    (0x0, 4), (0x8, 4), (0x800, 4), (0x7F8, 4), (0x7FF, 1), (0x8000, 4),
    (0x8800, 4), (0x0, 4), (0x10000, 4), (0x8004, 4), (0x20000, 4), (0x80, 4),
)


class _IdealPort:
    """An NVDLA memory port that only has to exist: its DMA window
    is what the arbiter looks at."""

    def read(self, address: int, nbytes: int) -> bytes:
        return bytes(nbytes)

    def write(self, address: int, data: bytes) -> None:
        pass

    def stream_cycles(self, address: int, nbytes: int) -> int:
        return nbytes


def test_width_sweep_cycles():
    points = run_ablation_width("resnet50")
    assert {int(p.value): p.cycles for p in points} == WIDTH_SWEEP_CYCLES


@pytest.mark.parametrize("model", sorted(ESP_BASELINE))
def test_esp_baseline(model):
    result = run_esp_baseline(ZOO[model]())
    cycles, hw_cycles, ms = ESP_BASELINE[model]
    assert (result.cycles, result.hw_cycles) == (cycles, hw_cycles)
    assert result.milliseconds == pytest.approx(ms, rel=1e-12)


@pytest.mark.parametrize("config,width", sorted(STREAM_CYCLES))
def test_wrapper_stream_cycles(config, width):
    soc = Soc(get_config(config), fidelity="timing", memory_bus_width_bits=width)
    mcif = soc.wrapper.engine.mcif
    got = [mcif.stream_cycles(DRAM_BASE, n) for n in STREAM_BYTES]
    assert got == STREAM_CYCLES[(config, width)]


def test_dram_stream_accounting():
    dram = Dram(size=1 << 22)
    cycles = [dram.stream_read(0, n)[1] for n in (1, 300, 4096, 70000)]
    assert cycles == [19, 103, 1200, 20520]
    assert (dram.stats.transactions, dram.stats.beats) == (293, 18600)


@pytest.mark.parametrize("busy", [False, True], ids=["idle", "nvdla-dma-busy"])
def test_cpu_access_cycles(busy):
    dram = Dram(size=1 << 20)
    arbiter = DramArbiter(dram)
    mcif = Mcif(_IdealPort())
    if busy:
        mcif.record_window(0, 1 << 30)
    arbiter.attach_contention_source(mcif, Clock())
    cycles = [arbiter.read(address, size).cycles for address, size in CPU_ACCESSES]
    cycles.append(arbiter.write(0x44, 0x1234, 2).cycles)
    idle = [19, 11, 19, 11, 11, 19, 19, 19, 19, 19, 19, 19, 11]
    assert cycles == [c + 4 * busy for c in idle]
    assert (dram.stats.row_hits, dram.stats.row_misses) == (4, 9)


def test_dram_window():
    soc = Soc(NV_SMALL, fidelity="timing")
    assert (soc.address_map.dram_base, soc.address_map.dram_limit) == (0x100000, 0x200FFFFF)
    assert soc.dram.size == 512 * 1024 * 1024


def test_lenet5_placement():
    loadable = compile_network(ZOO["lenet5"](), NV_SMALL)
    mm = loadable.memory_map
    assert (mm.base, mm.weights.address, mm.weights.size) == (0x100000, 0x101000, 503808)
    assert (mm.input.address, mm.input.size) == (1556480, 6400)
    assert (mm.activations.address, mm.activations.size) == (1562880, 4608)
    assert len(loadable.weight_blob) == 500520
    offsets = [
        (op.weight_offset, op.bias_offset)
        for op in loadable.schedule.ops
        if getattr(op, "weight_offset", None) is not None
    ]
    assert offsets == [(0, 4800), (4928, 38528), (38784, 490368), (492416, 500480)]


def test_reused_soc_wipes_the_status_words():
    soc = Soc(NV_FULL, fidelity="timing")
    soc.preload_dram(STATUS_PAGE_BASE, b"\xff" * 32)
    soc.reset_for_run(scrub_dram=False)
    page = soc.dram.storage.read(STATUS_PAGE_BASE - DRAM_BASE, 32)
    assert page == bytes(24) + b"\xff" * 8
