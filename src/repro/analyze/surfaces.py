"""Descriptor-chain → surface extraction, without execution.

The analyzer's front end: replay a :class:`~repro.nvdla.programming.
LayerChain`'s events into a *fresh* set of unit register files (the
same table the engine builds its units from), then reuse the units'
own ``parse()`` functions to recover typed descriptors — the shared
:func:`~repro.nvdla.programming.replay_chain` and
:func:`~repro.nvdla.programming.parse_descriptors` the fast execution
tier lowers through — so the analyzer sees exactly what the hardware
model would see at launch, with zero ISS/bus/engine involvement.

From the descriptors it extracts :class:`Surface` records: every DMA
read and write the layer performs, sized in packed bytes, labeled with
the compiler's blob name so dataflow passes can reason about intent
(which tensor *should* live there) versus mechanics (which addresses
the registers *actually* touch).

Anything that goes wrong while replaying or parsing — unknown
register, double enable, inconsistent descriptor, nonsense field
values — becomes an ``ERROR`` diagnostic on the layer, never an
exception: a corrupted artifact must produce findings, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ops import ConvOp, HwOp, PoolOp, SdpOp
from repro.nvdla.config import HardwareConfig, Precision
from repro.nvdla.descriptors import (
    CdpDescriptor,
    ConvDescriptor,
    PdpDescriptor,
    SdpDescriptor,
    TensorDesc,
)
from repro.nvdla.layout import weight_size_bytes
from repro.nvdla.programming import LayerChain, parse_descriptors, replay_chain
from repro.nvdla.units import Unit, fresh_units
from repro.analyze.diagnostics import Diagnostic, Severity

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class Surface:
    """One DMA-visible byte range a layer reads or writes."""

    op_index: int
    op_name: str
    unit: str  # unit whose DMA touches it
    direction: str  # READ or WRITE
    kind: str  # "feature" | "weight" | "bias"
    label: str  # compiler blob name (or weights:/bias: tag)
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


def _tensor_surface(
    chain: LayerChain,
    unit: str,
    direction: str,
    label: str,
    desc: TensorDesc,
    config: HardwareConfig,
) -> Surface:
    atom = config.atom_channels(desc.precision)
    return Surface(
        op_index=chain.op_index,
        op_name=chain.op_name,
        unit=unit,
        direction=direction,
        kind="feature",
        label=label,
        address=desc.address,
        size=desc.packed_bytes(atom),
    )


def _extract_conv(
    layer: ParsedLayer,
    config: HardwareConfig,
    conv: ConvDescriptor,
    sdp: SdpDescriptor,
    pdp: PdpDescriptor | None = None,
) -> None:
    chain, op = layer.chain, layer.op
    assert isinstance(op, ConvOp)
    surfaces = layer.surfaces
    surfaces.append(
        _tensor_surface(chain, "CDMA", READ, op.input.blob, conv.input, config)
    )
    atomic_c, atomic_k = config.atoms(conv.precision)
    surfaces.append(
        Surface(
            op_index=chain.op_index,
            op_name=chain.op_name,
            unit="CDMA",
            direction=READ,
            kind="weight",
            label=f"weights:{op.name}",
            address=conv.weight_address,
            size=weight_size_bytes(conv.weight_shape, atomic_c, atomic_k, conv.precision),
        )
    )
    if sdp.bias_address is not None:
        per_channel = 4 if conv.precision is Precision.INT8 else 2
        surfaces.append(
            Surface(
                op_index=chain.op_index,
                op_name=chain.op_name,
                unit="SDP_RDMA",
                direction=READ,
                kind="bias",
                label=f"bias:{op.name}",
                address=sdp.bias_address,
                size=sdp.output.channels * per_channel,
            )
        )
    if sdp.eltwise_input is not None and op.eltwise_input is not None:
        surfaces.append(
            _tensor_surface(
                chain, "SDP_RDMA", READ, op.eltwise_input.blob, sdp.eltwise_input, config
            )
        )
    if pdp is not None:
        # Fused epilogue: the SDP result streams on-chip (no DMA write,
        # no PDP_RDMA read) and only the pooled output touches memory.
        surfaces.append(
            _tensor_surface(chain, "PDP", WRITE, op.output.blob, pdp.output, config)
        )
    else:
        surfaces.append(
            _tensor_surface(chain, "SDP", WRITE, op.output.blob, sdp.output, config)
        )


def _extract_sdp(layer: ParsedLayer, config: HardwareConfig, sdp: SdpDescriptor) -> None:
    chain, op = layer.chain, layer.op
    assert isinstance(op, SdpOp)
    if sdp.input is not None:
        layer.surfaces.append(
            _tensor_surface(chain, "SDP_RDMA", READ, op.input.blob, sdp.input, config)
        )
    if sdp.eltwise_input is not None and op.eltwise_input is not None:
        layer.surfaces.append(
            _tensor_surface(
                chain, "SDP_RDMA", READ, op.eltwise_input.blob, sdp.eltwise_input, config
            )
        )
    layer.surfaces.append(
        _tensor_surface(chain, "SDP", WRITE, op.output.blob, sdp.output, config)
    )


def _extract_simple(
    layer: ParsedLayer,
    config: HardwareConfig,
    desc: PdpDescriptor | CdpDescriptor,
    rdma: str,
    sink: str,
) -> None:
    chain, op = layer.chain, layer.op
    layer.surfaces.append(
        _tensor_surface(chain, rdma, READ, op.input.blob, desc.input, config)
    )
    layer.surfaces.append(
        _tensor_surface(chain, sink, WRITE, op.output.blob, desc.output, config)
    )


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
        descriptors = parse_descriptors(layer.units, op.kind, chain.group, config)
        layer.descriptors = descriptors
        if isinstance(op, ConvOp):
            pdp = descriptors.get("pdp")
            if pdp is not None and not pdp.src_flying:
                layer.diagnostics.append(
                    _error(
                        chain,
                        "chain",
                        "dangling-flying-producer",
                        "SDP streams its result on-chip (D_DST_FLYING) but "
                        "PDP reads from memory — the SDP output has no "
                        "consumer and the pooled input is unproduced",
                        unit="SDP",
                    )
                )
            _extract_conv(layer, config, descriptors["conv"], descriptors["sdp"], pdp=pdp)
        elif isinstance(op, SdpOp):
            _extract_sdp(layer, config, descriptors["sdp"])
        elif isinstance(op, PoolOp):
            pdp = descriptors["pdp"]
            if pdp.src_flying:
                layer.diagnostics.append(
                    _error(
                        chain,
                        "chain",
                        "flying-source-without-producer",
                        "standalone PDP chain claims an on-chip source "
                        "(D_SRC_FLYING) but no SDP streams into it",
                        unit="PDP",
                    )
                )
            _extract_simple(layer, config, pdp, "PDP_RDMA", "PDP")
        else:
            _extract_simple(layer, config, descriptors["cdp"], "CDP_RDMA", "CDP")
    except Exception as exc:  # ConfigurationError etc. → finding
        layer.diagnostics.append(
            _error(chain, "descriptor", "parse-failed", f"{type(exc).__name__}: {exc}")
        )
    return layer
