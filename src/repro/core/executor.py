"""The bare-metal run loop with poll fast-forwarding.

Executes the generated program on the ISS cycle-accountably: the CPU's
one interpreter loop (:meth:`~repro.riscv.cpu.Cpu.execute`) runs the
instructions and advances the shared clock, and returns here only on
halt, on a spent instruction budget, or when the CPU settles into a
register poll loop (detected by the CPU's poll tracker: identical
load, address and value repeating).  Then simulated time jumps to the
next scheduled NVDLA event instead of spinning through millions of
identical iterations.  Skipped cycles still count — the
reported latency is what the RTL system would measure — but wall-clock
simulation time collapses from hours to seconds for the big models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import Clock
from repro.errors import CpuFault
from repro.riscv.cpu import Cpu


@dataclass
class RunStats:
    """Result of one bare-metal execution."""

    cycles: int = 0
    instructions: int = 0
    seconds: float = 0.0
    fast_forwards: int = 0
    active_cycles: int = 0  # cycles the CPU actually executed
    skipped_cycles: int = 0  # cycles fast-forwarded through poll loops
    halted: bool = False
    by_class: dict[str, int] = field(default_factory=dict)

    @property
    def poll_fraction(self) -> float:
        """Share of total cycles fast-forwarded through poll loops.

        ``active_cycles`` and ``skipped_cycles`` are accumulated
        independently and partition ``cycles`` exactly — the property
        ``tests/core/test_fastpath.py`` pins down — so this fraction is
        unambiguous: it is *skipped* (NVDLA-wait) time, not a share of
        some third accounting.
        """
        return self.skipped_cycles / self.cycles if self.cycles else 0.0


class BaremetalExecutor:
    """Couples a CPU and the shared clock for a full program run."""

    POLL_STREAK_THRESHOLD = 8
    #: Stalled poll iterations (loads at or past the streak threshold)
    #: tolerated with no pending NVDLA event before declaring a
    #: deadlock.  Generous enough that a generated program with a
    #: modest poll budget reaches its own FAIL path.
    POLL_DEADLOCK_GRACE = 20_000

    def __init__(self, cpu: Cpu, clock: Clock) -> None:
        self.cpu = cpu
        self.clock = clock

    def run(self, max_instructions: int = 200_000_000) -> RunStats:
        cpu = self.cpu
        clock = self.clock
        threshold = self.POLL_STREAK_THRESHOLD
        stats = RunStats()
        stalled_polls = 0
        while not cpu.halted:
            budget = max_instructions - cpu.instret
            if budget <= 0:
                raise CpuFault(
                    f"program exceeded {max_instructions} instructions", pc=cpu.pc
                )
            before = cpu.cycles
            cpu.execute(budget, clock, threshold)
            stats.active_cycles += cpu.cycles - before
            if cpu.poll.streak >= threshold:
                before = clock.now
                if clock.fast_forward_to_next_event():
                    skipped = clock.now - before
                    cpu.cycles += skipped  # keep mcycle consistent
                    stats.fast_forwards += 1
                    stats.skipped_cycles += skipped
                    cpu.poll.reset()
                    stalled_polls = 0
                else:
                    stalled_polls += 1
                    if stalled_polls > self.POLL_DEADLOCK_GRACE:
                        raise CpuFault(
                            "poll loop will never complete: no pending NVDLA events "
                            f"while polling 0x{cpu.poll.address:08x}",
                            pc=cpu.pc,
                        )
        stats.cycles = clock.now
        stats.instructions = cpu.instret
        stats.seconds = clock.seconds()
        stats.halted = True
        stats.by_class = dict(cpu.pipeline.stats.by_class)
        return stats
