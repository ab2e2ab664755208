"""Timing model of the µRISC-V 4-stage pipeline.

The Codasip µRISC-V used in the paper is a 32-bit, 4-stage in-order
pipeline (IF / ID / EX / WB).  It issues one instruction per cycle
except for the classic in-order penalties:

- **load-use hazard** — a load followed immediately by a consumer
  stalls one cycle (the loaded value arrives at WB),
- **taken control flow** — branches resolve in EX, so a taken branch
  or any jump flushes the two younger stages,
- **multi-cycle EX** — M-extension multiply/divide iterate in EX,
- **bus wait states** — an instruction fetch or data transfer beyond
  a single cycle stalls the pipeline for the extra cycles (the ISS
  composes the fetch price once and takes the data price from the
  bus reply).

The penalties are the module constants below.  :func:`static_cost`
prices what an instruction word alone determines, so the ISS prices
each distinct word once, at program load; :meth:`PipelineModel.charge`
adds what depends on the dynamic instruction stream.
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


#: Cycles every instruction takes through the pipeline.
BASE_CPI = 1
#: Stall of an instruction that reads the previous load's destination.
LOAD_USE_PENALTY = 1
#: IF and ID flushed on a taken branch, which resolves in EX.
TAKEN_BRANCH_PENALTY = 2
#: IF and ID flushed on a jump.
JUMP_PENALTY = 2
#: EX iterations of the 32x32 multiplier.
MUL_CYCLES = 3
#: EX iterations of the radix-2 divider.
DIV_CYCLES = 18


class StaticCost(NamedTuple):
    """The part of one instruction's timing that is fixed at decode."""

    cycles: int  # base CPI + multi-cycle EX
    muldiv_extra: int
    flush_penalty: int | None  # paid when the instruction redirects; None if it cannot
    sources: tuple[int, int]  # rs1, rs2: load-use hazard candidates
    load_rd: int | None  # a load's destination, the next instruction's hazard
    klass: str


def static_cost(decoded: Decoded) -> StaticCost:
    """Price everything about ``decoded`` that no run can change."""
    extra = 0
    if decoded.is_mul_div:
        extra = (MUL_CYCLES if decoded.mnemonic.startswith("mul") else DIV_CYCLES) - 1
    flush: int | None = None
    if decoded.is_jump:
        flush = JUMP_PENALTY
    elif decoded.is_branch:
        flush = TAKEN_BRANCH_PENALTY
    return StaticCost(
        cycles=BASE_CPI + extra,
        muldiv_extra=extra,
        flush_penalty=flush,
        sources=(decoded.rs1, decoded.rs2),
        load_rd=decoded.rd if decoded.is_load else None,
        klass=_classify(decoded),
    )


class PipelineModel:
    """The dynamic half of the pipeline timing: :meth:`charge` prices one
    executed instruction from its :func:`static_cost` and the stream
    before it, and accumulates :attr:`stats`."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stats = PipelineStats()
        self._pending_load_rd: int | None = None

    def charge(self, cost: StaticCost, taken: bool = False, bus_wait: int = 0) -> int:
        """Cycles of one executed instruction, given its static cost.

        Parameters
        ----------
        cost:
            The instruction's :func:`static_cost`.
        taken:
            Whether a branch/jump redirected the front end.
        bus_wait:
            Extra bus cycles beyond the ideal single-cycle access
            (fetch plus data).
        """
        stats = self.stats
        cycles, muldiv_extra, flush_penalty, sources, load_rd, klass = cost

        # Load-use: the previous instruction was a load whose result
        # this instruction consumes before it reaches WB.
        pending = self._pending_load_rd
        if pending and pending in sources:
            cycles += LOAD_USE_PENALTY
            stats.load_use_stalls += 1
        self._pending_load_rd = load_rd

        if muldiv_extra:
            stats.muldiv_stalls += muldiv_extra

        if taken and flush_penalty is not None:
            cycles += flush_penalty
            stats.control_flushes += 1

        if bus_wait > 0:
            cycles += bus_wait
            stats.bus_wait_cycles += bus_wait

        stats.instructions += 1
        stats.cycles += cycles
        by_class = stats.by_class
        by_class[klass] = by_class.get(klass, 0) + 1
        return cycles

    def instruction_cycles(
        self,
        decoded: Decoded,
        taken: bool = False,
        bus_wait: int = 0,
    ) -> int:
        """Cycles consumed by one instruction (decode-time and run-time
        costs together; see :meth:`charge` for the parameters)."""
        return self.charge(static_cost(decoded), taken=taken, bus_wait=bus_wait)


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
