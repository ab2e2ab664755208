"""Timing model of the µRISC-V 4-stage pipeline.

The Codasip µRISC-V used in the paper is a 32-bit, 4-stage in-order
pipeline (IF / ID / EX / WB).  With a 1-cycle program BRAM it sustains
one instruction per cycle except for the classic in-order penalties:

- **load-use hazard** — a load followed immediately by a consumer
  stalls one cycle (the loaded value arrives at WB),
- **taken control flow** — branches resolve in EX, so a taken branch
  or any jump flushes the two younger stages,
- **multi-cycle EX** — M-extension multiply/divide iterate in EX,
- **bus wait states** — data-memory transfers beyond a single cycle
  stall the pipeline for the extra cycles (reported by the bus reply).

The model is table-driven and kept separate from the ISS so the same
functional core can be timed with different pipeline depths in
ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.riscv.isa import Decoded


@dataclass
class PipelineStats:
    """Cycle breakdown accumulated across a run."""

    instructions: int = 0
    cycles: int = 0
    load_use_stalls: int = 0
    control_flushes: int = 0
    muldiv_stalls: int = 0
    bus_wait_cycles: int = 0
    by_class: dict[str, int] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class StaticCost(NamedTuple):
    """The part of one instruction's timing that is fixed at decode."""

    cycles: int  # base CPI + fetch wait states + multi-cycle EX
    muldiv_extra: int
    flush_penalty: int | None  # paid when the instruction redirects; None if it cannot
    sources: tuple[int, int]  # rs1, rs2: load-use hazard candidates
    load_rd: int | None  # a load's destination, the next instruction's hazard
    klass: str


@dataclass
class PipelineModel:
    """Cost parameters of the 4-stage in-order pipeline.

    Pricing is split in two: :meth:`static_cost` is what the decoded
    instruction alone determines (the ISS prices each instruction word
    once, at decode), and :meth:`charge` adds the costs that depend on
    the dynamic instruction stream and updates :attr:`stats`.
    """

    base_cpi: int = 1
    load_use_penalty: int = 1
    taken_branch_penalty: int = 2  # IF+ID flushed on EX-resolved branches
    jump_penalty: int = 2
    mul_cycles: int = 3  # iterative 32x32 multiplier
    div_cycles: int = 18  # radix-2 divider
    fetch_wait_states: int = 0  # extra cycles per fetch beyond 1-cycle BRAM

    def __post_init__(self) -> None:
        self.stats = PipelineStats()
        self._pending_load_rd: int | None = None

    def reset(self) -> None:
        self.stats = PipelineStats()
        self._pending_load_rd = None

    def static_cost(self, decoded: Decoded) -> StaticCost:
        """Price everything about ``decoded`` that no run can change."""
        extra = 0
        if decoded.is_mul_div:
            iterations = (
                self.mul_cycles if decoded.mnemonic.startswith("mul") else self.div_cycles
            )
            extra = iterations - 1
        flush: int | None = None
        if decoded.is_jump:
            flush = self.jump_penalty
        elif decoded.is_branch:
            flush = self.taken_branch_penalty
        return StaticCost(
            cycles=self.base_cpi + self.fetch_wait_states + extra,
            muldiv_extra=extra,
            flush_penalty=flush,
            sources=(decoded.rs1, decoded.rs2),
            load_rd=decoded.rd if decoded.is_load else None,
            klass=_classify(decoded),
        )

    def charge(self, cost: StaticCost, taken: bool = False, bus_wait: int = 0) -> int:
        """Cycles of one executed instruction, given its static cost.

        Parameters
        ----------
        cost:
            The instruction's :meth:`static_cost`.
        taken:
            Whether a branch/jump redirected the front end.
        bus_wait:
            Extra bus cycles beyond the ideal single-cycle access
            (fetch plus data, from the bus :class:`~repro.bus.types.Reply`).
        """
        stats = self.stats
        cycles = cost.cycles

        # Load-use: the previous instruction was a load whose result
        # this instruction consumes before it reaches WB.
        pending = self._pending_load_rd
        if pending and pending in cost.sources:
            cycles += self.load_use_penalty
            stats.load_use_stalls += 1
        self._pending_load_rd = cost.load_rd

        if cost.muldiv_extra:
            stats.muldiv_stalls += cost.muldiv_extra

        if taken and cost.flush_penalty is not None:
            cycles += cost.flush_penalty
            stats.control_flushes += 1

        if bus_wait > 0:
            cycles += bus_wait
            stats.bus_wait_cycles += bus_wait

        stats.instructions += 1
        stats.cycles += cycles
        by_class = stats.by_class
        by_class[cost.klass] = by_class.get(cost.klass, 0) + 1
        return cycles

    def instruction_cycles(
        self,
        decoded: Decoded,
        taken: bool = False,
        bus_wait: int = 0,
    ) -> int:
        """Cycles consumed by one instruction (decode-time and run-time
        costs together; see :meth:`charge` for the parameters)."""
        return self.charge(self.static_cost(decoded), taken=taken, bus_wait=bus_wait)


def _classify(decoded: Decoded) -> str:
    if decoded.is_load:
        return "load"
    if decoded.is_store:
        return "store"
    if decoded.is_branch:
        return "branch"
    if decoded.is_jump:
        return "jump"
    if decoded.is_mul_div:
        return "muldiv"
    return "alu"
