"""Codegen playback verification.

The strongest property of the bare-metal flow: executing the generated
machine code on the ISS against a scripted register bus must reproduce
the configuration-command sequence *exactly* — same writes, same
order, same values; polls must spin until the scripted value appears.
This closes the loop over codegen + assembler + CPU semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baremetal.codegen import CodegenOptions, MAGIC_DONE, generate_assembly
from repro.baremetal.config_file import ConfigCommand
from repro.bus.types import AccessType, BusPort, Reply, Transfer
from repro.riscv import Cpu, assemble

STATUS_BASE = 0x100000


class ScriptedRegisterBus(BusPort):
    """Replays expected register behaviour and records all accesses.

    Reads of a scripted address return 0 for ``delay`` polls, then the
    scripted value — emulating an NVDLA op completing.
    """

    def __init__(self, commands: list[ConfigCommand], poll_delay: int = 3) -> None:
        self.writes: list[tuple[int, int]] = []
        self.status_page: dict[int, int] = {}
        self._reads: dict[int, list[int]] = {}
        for command in commands:
            if command.kind == "read_reg":
                plan = [0] * poll_delay if command.mask != 0xFFFFFFFF else []
                self._reads.setdefault(command.address, []).extend(
                    plan + [command.data]
                )

    def transfer(self, xfer: Transfer) -> Reply:
        if xfer.access is AccessType.WRITE:
            value = int.from_bytes(xfer.data, "little")
            if xfer.address >= STATUS_BASE:
                self.status_page[xfer.address - STATUS_BASE] = value
            else:
                self.writes.append((xfer.address, value))
            return Reply(cycles=1)
        queue = self._reads.get(xfer.address)
        if queue:
            value = queue[0]
            if len(queue) > 1:
                queue.pop(0)
        else:
            value = 0
        return Reply(data=(value & 0xFFFFFFFF).to_bytes(4, "little"), cycles=1)


def _run(commands: list[ConfigCommand], poll_delay: int = 3) -> ScriptedRegisterBus:
    assembly = generate_assembly(commands, options=CodegenOptions(poll_limit=1000))
    program = assemble(assembly)
    bus = ScriptedRegisterBus(commands, poll_delay=poll_delay)
    cpu = Cpu(bus)
    cpu.load_program(program)
    cpu.run(max_instructions=2_000_000)
    assert bus.status_page.get(0) == MAGIC_DONE, "program did not self-report DONE"
    return bus


def test_writes_replayed_in_order():
    commands = [
        ConfigCommand("write_reg", 0x5010, 0xDEADBEEF),
        ConfigCommand("write_reg", 0xB014, 0x1),
        ConfigCommand("write_reg", 0x9020, 0x7FF),
    ]
    bus = _run(commands)
    assert bus.writes == [(0x5010, 0xDEADBEEF), (0xB014, 0x1), (0x9020, 0x7FF)]


def test_poll_spins_until_value_appears():
    commands = [
        ConfigCommand("write_reg", 0x5010, 1),
        ConfigCommand("read_reg", 0xC, 0x4, 0x4),  # poll (masked)
        ConfigCommand("write_reg", 0xC, 0x4),  # acknowledge
    ]
    bus = _run(commands, poll_delay=5)
    assert bus.writes == [(0x5010, 1), (0xC, 0x4)]


def test_plain_read_checks_immediately():
    commands = [ConfigCommand("read_reg", 0x0, 0x0, 0xFFFFFFFF)]
    _run(commands)  # value 0 matches instantly; DONE asserted


_ADDRESSES = st.integers(min_value=0, max_value=0x10FFC).map(lambda a: a & ~0x3)
_VALUES = st.integers(min_value=0, max_value=0xFFFFFFFF)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(_ADDRESSES, _VALUES).map(
            lambda av: ConfigCommand("write_reg", av[0], av[1])
        ),
        min_size=1,
        max_size=40,
    )
)
def test_arbitrary_write_sequences_replay_exactly(commands):
    bus = _run(commands)
    assert bus.writes == [(c.address, c.data) for c in commands]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(_ADDRESSES, _VALUES, st.booleans()),
        min_size=1,
        max_size=25,
    )
)
def test_mixed_sequences_complete(mix):
    commands = []
    for address, value, is_write in mix:
        if is_write:
            commands.append(ConfigCommand("write_reg", address, value))
        else:
            # Masked poll: the scripted bus eventually supplies the value.
            mask = value | 1  # non-zero mask
            commands.append(ConfigCommand("read_reg", address, value & mask, mask))
    bus = _run(commands)
    expected_writes = [
        (c.address, c.data) for c in commands if c.kind == "write_reg"
    ]
    assert bus.writes == expected_writes


def test_cycle_counter_recorded_in_status_page():
    from repro.baremetal.codegen import STATUS_CYCLES_LO

    commands = [ConfigCommand("write_reg", 0x5010, 1)]
    bus = _run(commands)
    assert bus.status_page.get(STATUS_CYCLES_LO, 0) > 0
