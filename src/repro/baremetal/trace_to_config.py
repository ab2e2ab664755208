"""VP trace → configuration file.

Implements the paper's §IV-B step 2: filter the VP log for
``nvdla.csb_adaptor`` entries and convert each into a register
command — writes become ``write_reg``, reads become ``read_reg``
"which store the expected register values".

Reads of the GLB interrupt-status register get a mask equal to their
expected value so the generated poll loop succeeds as soon as the
completion bit is set, independent of unrelated status bits.
"""

from __future__ import annotations

from repro.baremetal.config_file import ConfigCommand
from repro.nvdla.csb import UNIT_BASES
from repro.nvdla.units.glb import INTR_STATUS
from repro.vp.trace_log import TraceLog

_GLB_INTR_STATUS_ADDR = UNIT_BASES["GLB"] + INTR_STATUS


def trace_to_config(trace: TraceLog) -> list[ConfigCommand]:
    """Convert the CSB side of a trace into register commands."""
    commands: list[ConfigCommand] = []
    addresses, data, writes = (column.tolist() for column in trace.csb_arrays())
    for address, value, iswrite in zip(addresses, data, writes):
        if iswrite:
            commands.append(ConfigCommand("write_reg", address, value))
            continue
        if address == _GLB_INTR_STATUS_ADDR and value != 0:
            mask = value  # poll for exactly the completion bit(s)
        else:
            mask = 0xFFFFFFFF
        commands.append(ConfigCommand("read_reg", address, value, mask))
    return commands
