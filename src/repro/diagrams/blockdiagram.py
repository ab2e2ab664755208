"""ASCII block diagrams generated from live objects.

Each renderer takes the object it depicts (a
:class:`~repro.baremetal.pipeline.BaremetalBundle`, a
:class:`~repro.core.soc.Soc`, a
:class:`~repro.vp.platform.VirtualPlatform`, a
:class:`~repro.core.system_builder.TestSystem`) and annotates the
boxes with that instance's real parameters — artefact sizes, bus
widths, address windows, clock frequencies.
"""

from __future__ import annotations

from repro.baremetal.pipeline import BaremetalBundle
from repro.core.address_map import PROGRAM_MEMORY_SIZE
from repro.core.soc import Soc
from repro.core.system_builder import TestSystem
from repro.vp.platform import VirtualPlatform


def _box(lines: list[str], width: int | None = None) -> list[str]:
    width = width or max(len(line) for line in lines)
    top = "+" + "-" * (width + 2) + "+"
    body = [f"| {line:<{width}} |" for line in lines]
    return [top, *body, top]


def render_fig1_software_flow(bundle: BaremetalBundle) -> str:
    """Fig. 1: the offline software-generation flow, with the sizes of
    this bundle's actual artefacts on the arrows."""
    stages = [
        _box([f"trained model: {bundle.network}", f"precision: {bundle.precision.value}"]),
        _box(
            [
                "NVDLA compiler",
                f"{bundle.loadable.hw_op_count()} hw ops, "
                f"{len(bundle.loadable.weight_blob) // 1024} KiB weights",
            ]
        ),
        _box(
            [
                "virtual platform (QEMU+SystemC equiv.)",
                f"trace: {len(bundle.trace.csb)} csb + {len(bundle.trace.dbb)} dbb",
            ]
        ),
        _box(
            [
                "trace converter",
                f"config file: {len(bundle.commands)} read/write_reg commands",
            ]
        ),
        _box(
            [
                "RISC-V assembler (Codasip SDK equiv.)",
                f"program: {len(bundle.program.words)} words "
                f"({bundle.program.size_bytes // 1024} KiB .mem)",
            ]
        ),
        _box(
            [
                "deployment images",
                *(
                    f"{img.name}: {img.size // 1024} KiB @ 0x{img.load_address:08x}"
                    for img in bundle.images.preload
                ),
            ]
        ),
    ]
    arrow = "          |\n          v"
    parts: list[str] = ["Fig. 1 — software generation flow (offline, model-specific)"]
    for index, stage in enumerate(stages):
        parts.extend(stage)
        if index < len(stages) - 1:
            parts.append(arrow)
    return "\n".join(parts)


def render_fig2_soc(soc: Soc) -> str:
    """Fig. 2: the SoC, annotated from the live instance."""
    m = soc.address_map
    mhz = soc.clock.frequency_hz / 1e6
    dbb = soc.config.dbb_width_bits
    mem = soc.memory_bus_width_bits
    return f"""Fig. 2 — the system-on-chip ({mhz:g} MHz system clock)

 +----------------+   AHB-Lite    +---------------------------------+
 | uRISC-V core   |==============>| system bus                      |
 | RV32IM 4-stage |  (I: BRAM     |  decoder:                       |
 +----------------+   D: below)   |   NVDLA 0x{m.nvdla_base:06x}..0x{m.nvdla_limit:06x}    |
        ^                         |   DRAM  0x{m.dram_base:06x}..0x{m.dram_limit:06x}  |
        | 1-cycle                 +----+-------------------------+--+
 +------+---------+                    | AHB                     | AHB
 | program memory |                    v                         v
 | BRAM {PROGRAM_MEMORY_SIZE // 1024:>4} KiB  |      +-------------------+     +-------------+
 +----------------+      | NVDLA wrapper     |     | AHB->AXI    |
                          |  AHB->APB bridge  |     | bridge      |
                          |  APB->CSB adapter |     +------+------+
                          |  +-------------+  |            |
                          |  | NVDLA       |  |            v
                          |  | {soc.config.name:<11} |  |     +-------------+
                          |  | {soc.config.mac_cells:>4} MACs   |  |     | arbiter     |
                          |  +------+------+  |     | cpu | dbb  |
                          |         | DBB {dbb:>3}b |     +------+------+
                          |         v         |            |
                          |  +-------------+  |            v
                          |  | AXI width   |  |     +-------------+
                          |  | conv {dbb:>3}->{mem:<3}|==+====>| DRAM        |
                          |  +-------------+  |     | {soc.dram.size // (1 << 20):>4} MiB    |
                          +-------------------+     +-------------+
"""


def render_fig3_virtual_platform(platform: VirtualPlatform) -> str:
    """Fig. 3: the NVDLA virtual platform."""
    trace = platform.trace
    csb = len(trace.csb) if trace else 0
    dbb = len(trace.dbb) if trace else 0
    return f"""Fig. 3 — NVDLA virtual platform ({platform.config.name})

 +------------------+   csb_adaptor    +------------------+
 | runtime (UMD/KMD |=================>| NVDLA model      |
 | equivalent)      |  {csb:>7} logged  |  {platform.config.mac_cells:>5} MACs      |
 +------------------+  register ops    |  CBUF {platform.config.cbuf_bytes // 1024:>4} KiB   |
          |                            +---------+--------+
          | deploy loadable,                     | dbb_adaptor
          | preload weights/input                | {dbb:>7} logged lines
          v                                      v
 +--------------------------------------------------------+
 | flat system memory ({platform.memory.size // (1 << 20)} MiB window)                   |
 | same address map as the SoC -> traces replay unchanged |
 +--------------------------------------------------------+
"""


def render_fig4_test_setup(system: TestSystem) -> str:
    """Fig. 4: the Vivado block design of the overall test setup."""
    soc = system.soc
    preload = system.preload_result
    preload_note = (
        f"{preload.bytes_loaded // 1024} KiB preloaded in {preload.seconds * 1e3:.2f} ms"
        if preload
        else "not yet preloaded"
    )
    return f"""Fig. 4 — overall system set-up on the ZCU102 ({preload_note})

 +-----------+     +--------------+     +-----------------+     +----------+
 | Zynq PS   |====>| AXI          |====>| AXI Interconnect|====>| MIG DDR4 |
 | (ARM)     |     | SmartConnect |     | {system.axi_interconnect.fast_hz / 1e6:g}/{system.axi_interconnect.slow_hz / 1e6:g} MHz CDC  |     | {soc.dram.size // (1 << 20)} MiB  |
 | preloads  |     | owner: {system.smartconnect.selected:<5} |     +-----------------+     +----+-----+
 | .bin files|     +------+-------+                                  ^
 +-----------+            ^                                          |
                           |  (exclusive mux)                        |
                    +------+-------------------------------------+   |
                    | our SoC (Fig. 2) @ {soc.clock.frequency_hz / 1e6:g} MHz               |===+
                    | uRISC-V + {soc.config.name} NVDLA + program BRAM   |
                    +--------------------------------------------+
"""
