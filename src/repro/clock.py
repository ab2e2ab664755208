"""Simulation time base shared by every hardware model.

The whole SoC is simulated against a single :class:`Clock` measured in
cycles of the system clock domain.  Components that complete work in the
background (NVDLA layer operations, DMA bursts) register completion
callbacks on the clock's event queue; bus masters advance the clock as
they consume wait states.

The CPU's interpreter loop (:meth:`repro.riscv.cpu.Cpu.execute`) moves
:attr:`Clock.now` itself while no event is due, and calls
:meth:`Clock.advance_to` once :attr:`Clock.due` is reached, so every
callback still fires at its exact cycle.

The clock also supports *fast-forwarding*: when the CPU is spinning in a
polling loop waiting for an NVDLA interrupt, the executor can jump
straight to the next scheduled event instead of simulating millions of
identical loop iterations.  The skipped cycles are still accounted for,
so reported latencies are unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

#: :attr:`Clock.due` while no event is pending: later than any cycle.
IDLE = 1 << 63


@dataclass(order=True)
class _Event:
    cycle: int
    seq: int
    callback: Callable[[], None] = field(compare=False)


class Clock:
    """Cycle counter with an ordered event queue.

    Parameters
    ----------
    frequency_hz:
        Frequency of the clock domain; used only to convert cycle counts
        into wall-clock seconds for reports.
    """

    def __init__(self, frequency_hz: float = 100e6) -> None:
        if frequency_hz <= 0:
            raise ValueError("clock frequency must be positive")
        self.frequency_hz = float(frequency_hz)
        #: Current simulation time in cycles.  Outside this class only
        #: the CPU's interpreter loop writes it, and only below ``due``.
        self.now = 0
        #: Cycle of the earliest pending event, :data:`IDLE` if none.
        self.due = IDLE
        self._seq = 0
        self._events: list[_Event] = []

    def seconds(self, cycles: int | None = None) -> float:
        """Convert ``cycles`` (default: current time) to seconds."""
        if cycles is None:
            cycles = self.now
        return cycles / self.frequency_hz

    def schedule_at(self, cycle: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the clock reaches ``cycle``."""
        if cycle < self.now:
            raise ValueError(f"cannot schedule in the past ({cycle} < {self.now})")
        heapq.heappush(self._events, _Event(cycle, self._seq, callback))
        self._seq += 1
        self.due = self._events[0].cycle

    def advance(self, cycles: int) -> None:
        """Move time forward by ``cycles``, firing any due events."""
        if cycles < 0:
            raise ValueError("cannot advance by a negative amount")
        self.advance_to(self.now + cycles)

    def advance_to(self, cycle: int) -> None:
        """Move time forward to ``cycle``, firing events in order.

        Events are fired at their exact timestamps (the clock is set to
        the event's cycle while its callback runs), so a callback that
        schedules follow-up work keeps causal ordering.
        """
        if cycle < self.now:
            raise ValueError(f"cannot rewind the clock ({cycle} < {self.now})")
        events = self._events
        while events and events[0].cycle <= cycle:
            event = heapq.heappop(events)
            self.now = event.cycle
            self.due = events[0].cycle if events else IDLE
            event.callback()
        self.now = cycle

    def fast_forward_to_next_event(self) -> bool:
        """Jump to the earliest pending event and fire it.

        Returns ``True`` if an event was fired, ``False`` if the queue
        was empty (in which case time does not move).
        """
        if not self._events:
            return False
        self.advance_to(self._events[0].cycle)
        return True

    def reset(self) -> None:
        """Drop all pending events and rewind to cycle zero."""
        self.now = 0
        self.due = IDLE
        self._seq = 0
        self._events.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clock(now={self.now}, pending={len(self._events)}, f={self.frequency_hz / 1e6:g} MHz)"
