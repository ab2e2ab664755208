"""Descriptor-chain → surface extraction, without execution.

The analyzer's front end: replay a :class:`~repro.nvdla.programming.
LayerChain`'s events into a *fresh* set of unit register files (the
same table the engine builds its units from), then reuse the units'
own ``parse()`` functions to recover typed descriptors — the shared
:func:`~repro.nvdla.programming.replay_chain` and
:func:`~repro.nvdla.programming.parse_descriptors` the engine and the
fast execution tier launch through — so the analyzer sees exactly what
the hardware model would see at launch, with zero ISS/bus/engine
involvement.  The cross-unit rules the engine and the fast tier reject
on (:func:`~repro.nvdla.programming.chain_violations`) become ``chain``
findings here.

The descriptors' DRAM streams come from
:func:`repro.nvdla.timing.dma_streams` — the list the engine prices —
and become :class:`Surface` records: every DMA read and write the
layer performs, sized in packed bytes, labeled with the compiler's
blob name so dataflow passes can reason about intent (which tensor
*should* live there) versus mechanics (which addresses the registers
*actually* touch).

Anything that goes wrong while replaying or parsing — unknown
register, double enable, inconsistent descriptor, nonsense field
values — becomes an ``ERROR`` diagnostic on the layer, never an
exception: a corrupted artifact must produce findings, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ops import HwOp
from repro.nvdla.config import HardwareConfig
from repro.nvdla.programming import (
    LayerChain,
    chain_launch,
    chain_violations,
    parse_descriptors,
    replay_chain,
)
from repro.nvdla.timing import dma_streams
from repro.nvdla.units import Unit, fresh_units
from repro.analyze.diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class Surface:
    """One DMA-visible byte range a layer reads or writes."""

    op_index: int
    op_name: str
    unit: str  # unit whose DMA touches it
    direction: str  # timing.READ or timing.WRITE
    kind: str  # "feature" | "weight" | "bias" (bias and BN blobs)
    label: str  # compiler blob name (or weights:/bias:/bn_mult: tag)
    address: int
    size: int

    @property
    def end(self) -> int:
        return self.address + self.size

    def overlaps(self, other: "Surface") -> bool:
        return self.address < other.end and other.address < self.end

    def describe(self) -> str:
        return (
            f"{self.op_name}/{self.unit} {self.direction} {self.label} "
            f"[0x{self.address:x}, 0x{self.end:x})"
        )


@dataclass
class ParsedLayer:
    """One chain's replayed registers, descriptors and surfaces."""

    chain: LayerChain
    op: HwOp
    units: dict[str, Unit] = field(default_factory=dict)
    descriptors: dict[str, object] = field(default_factory=dict)
    surfaces: list[Surface] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def parsed(self) -> bool:
        return bool(self.descriptors) and not any(
            d.severity is Severity.ERROR for d in self.diagnostics
        )


def _error(chain: LayerChain, pass_id: str, code: str, message: str, **kw) -> Diagnostic:
    return Diagnostic(
        severity=Severity.ERROR,
        pass_id=pass_id,
        code=code,
        message=message,
        layer=chain.op_name,
        op_index=chain.op_index,
        **kw,
    )


#: Surface kind per stream role: parameter blobs live in the weights
#: region, every other stream is feature traffic.
_SURFACE_KIND = {"weight": "weight", "bias": "bias", "bn_mult": "bias"}


def _label(op: HwOp, role: str) -> str:
    """The compiler's name for what a stream of ``role`` carries in ``op``:
    the blob of its input, output or eltwise operand tensor, or a
    ``role:op`` tag for parameter blobs and operands the op never named."""
    if role == "weight":
        return f"weights:{op.name}"
    if role in ("bias", "bn_mult"):
        return f"{role}:{op.name}"
    ref = getattr(op, "eltwise_input" if role == "eltwise" else role, None)
    return ref.blob if ref is not None else f"{role}:{op.name}"


def parse_chain(chain: LayerChain, op: HwOp, config: HardwareConfig) -> ParsedLayer:
    """Replay + parse one chain into descriptors and surfaces."""
    layer = ParsedLayer(chain=chain, op=op, units=fresh_units())
    for event, exc in replay_chain(chain, layer.units):
        if event.unit in layer.units:
            layer.diagnostics.append(
                _error(chain, "chain", "replay-failed", f"{type(exc).__name__}: {exc}",
                       unit=event.unit, register=event.register)
            )
        else:
            layer.diagnostics.append(
                _error(chain, "chain", "unknown-unit", str(exc), unit=event.unit)
            )
    try:
        descriptors = parse_descriptors(layer.units, chain_launch(chain), chain.group, config)
        layer.descriptors = descriptors
        for violation in chain_violations(descriptors):
            layer.diagnostics.append(
                _error(chain, "chain", violation.code, violation.message, unit=violation.unit)
            )
        layer.surfaces = [
            Surface(
                op_index=chain.op_index,
                op_name=chain.op_name,
                unit=stream.unit,
                direction=stream.direction,
                kind=_SURFACE_KIND.get(stream.role, "feature"),
                label=_label(op, stream.role),
                address=stream.address,
                size=stream.nbytes,
            )
            for stream in dma_streams(descriptors, config)
        ]
    except Exception as exc:  # ConfigurationError etc. → finding
        layer.diagnostics.append(
            _error(chain, "descriptor", "parse-failed", f"{type(exc).__name__}: {exc}")
        )
    return layer
