"""The analyzer's pass library.

Each pass is a function ``(AnalysisContext) -> list[Diagnostic]`` over
the parsed layers (descriptor chains replayed into fresh register
blocks, surfaces extracted — see :mod:`repro.analyze.surfaces`).  The
default pipeline, in the order :func:`repro.analyze.analyzer.
analyze_chains` runs it:

``memory-map``
    Artifact-level sanity of the allocator's plan: regions inside the
    DRAM window, mutually disjoint, clear of the bare-metal status
    page; network input/output tensors inside their regions.
``chain``
    Structural legality of each descriptor chain: writes target
    selected groups, nothing is written after its unit launched,
    enables hit configured units.  The surface builder reports under
    the same pass id the replay failures (unknown register, double
    enable) and the cross-unit rules the engine and the fast tier
    reject on (:func:`repro.nvdla.programming.chain_violations`):
    paired SDP → PDP flying links, a conv-sourced fused stage, and
    cubes that agree from CACC to SDP to PDP.
``register-field``
    Every written value fits its field's width/enum per the table in
    :mod:`repro.nvdla.registers`.
``dma-bounds``
    Every read/write surface — the streams the engine prices
    (:func:`repro.nvdla.timing.dma_streams`) — against the SoC address
    map and its allocated region: weights, bias and BN-multiplier blobs
    inside the weights region, feature traffic inside
    input+activations, nothing touching the status page, writes never
    landing on the input region.
``hazard``
    Byte-granular RAW/WAW timeline across the schedule, over the same
    priced streams' feature surfaces (input, eltwise operand and
    output; parameter blobs are preloaded): reads must be
    fully produced (by earlier writes, the preloaded weights, or the
    input image) and the *latest* writer of every byte read must be
    the tensor the compiler intended — catches clobbers both within a
    layer and across adjacent layers.
``dependency``
    Blob-level dataflow: dangling producers, use-before-def (swapped
    producer/consumer), dependency cycles.
``cbuf``
    The CDMA bank split against CBUF capacity
    (:class:`repro.nvdla.cbuf.Cbuf`), plus kernel-split INFO when the
    weight partition forces K-splitting.
``layout``
    Precision/stride/shape consistency: descriptor strides must equal
    the canonical :func:`repro.nvdla.layout.feature_strides`, shapes
    and precisions must match the loadable's tensor metadata, and the
    kernel's K and C must match the SDP output and input channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.allocator import MemoryMap, Region
from repro.compiler.loadable import Loadable
from repro.compiler.ops import ConvOp, TensorRef
from repro.core.address_map import AddressMap, DEFAULT_MAP, STATUS_PAGE_BASE, STATUS_PAGE_SIZE
from repro.errors import TilingError
from repro.nvdla.cbuf import Cbuf
from repro.nvdla.config import HardwareConfig
from repro.nvdla.descriptors import TensorDesc
from repro.nvdla.layout import feature_strides
from repro.nvdla.programming import ENABLE, SELECT, WRITE as EV_WRITE, LayerChain
from repro.nvdla.registers import check_field
from repro.nvdla.timing import READ, WRITE
from repro.analyze.diagnostics import Diagnostic, Severity
from repro.analyze.surfaces import ParsedLayer, Surface

Interval = tuple[int, int]  # [start, end)


@dataclass
class AnalysisContext:
    """Everything a pass may look at."""

    loadable: Loadable
    config: HardwareConfig
    layers: list[ParsedLayer]
    address_map: AddressMap = field(default_factory=lambda: DEFAULT_MAP)

    @property
    def memory_map(self) -> MemoryMap:
        return self.loadable.memory_map

    def surfaces(self) -> list[Surface]:
        return [s for layer in self.layers for s in layer.surfaces]


def _diag(
    severity: Severity, pass_id: str, code: str, message: str, **kw
) -> Diagnostic:
    return Diagnostic(severity=severity, pass_id=pass_id, code=code, message=message, **kw)


def _surface_diag(
    severity: Severity, pass_id: str, code: str, message: str, surface: Surface
) -> Diagnostic:
    return _diag(
        severity,
        pass_id,
        code,
        message,
        layer=surface.op_name,
        op_index=surface.op_index,
        unit=surface.unit,
        surface=surface.label,
    )


def _contains(region: Region, start: int, end: int) -> bool:
    return region.address <= start and end <= region.end


def _overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    return a_start < b_end and b_start < a_end


def _subtract(intervals: list[Interval], cut: Interval) -> list[Interval]:
    """Remove ``cut`` from a list of disjoint intervals."""
    out: list[Interval] = []
    c0, c1 = cut
    for start, end in intervals:
        if c1 <= start or end <= c0:
            out.append((start, end))
            continue
        if start < c0:
            out.append((start, c0))
        if c1 < end:
            out.append((c1, end))
    return out


# ----------------------------------------------------------------------
# memory-map
# ----------------------------------------------------------------------


def pass_memory_map(ctx: AnalysisContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    mm = ctx.memory_map
    regions = [mm.weights, mm.input, mm.activations]
    dram = (ctx.address_map.dram_base, ctx.address_map.dram_limit + 1)
    for region in regions:
        if not (dram[0] <= region.address and region.end <= dram[1]):
            diags.append(
                _diag(
                    Severity.ERROR,
                    "memory-map",
                    "region-out-of-window",
                    f"region {region.name} [0x{region.address:x}, 0x{region.end:x}) "
                    f"outside DRAM window [0x{dram[0]:x}, 0x{dram[1]:x})",
                    surface=region.name,
                )
            )
        if _overlap(region.address, region.end, STATUS_PAGE_BASE,
                    STATUS_PAGE_BASE + STATUS_PAGE_SIZE):
            diags.append(
                _diag(
                    Severity.ERROR,
                    "memory-map",
                    "region-on-status-page",
                    f"region {region.name} overlaps the bare-metal status page",
                    surface=region.name,
                )
            )
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            if a.size and b.size and _overlap(a.address, a.end, b.address, b.end):
                diags.append(
                    _diag(
                        Severity.ERROR,
                        "memory-map",
                        "region-overlap",
                        f"regions {a.name} and {b.name} overlap",
                        surface=f"{a.name}+{b.name}",
                    )
                )
    if len(ctx.loadable.weight_blob) > mm.weights.size:
        diags.append(
            _diag(
                Severity.ERROR,
                "memory-map",
                "weights-overflow",
                f"weight blob {len(ctx.loadable.weight_blob)} B exceeds weights "
                f"region {mm.weights.size} B",
                surface="weights",
            )
        )
    for name, ref, region in (
        ("input", ctx.loadable.input_tensor, mm.input),
        ("output", ctx.loadable.output_tensor, mm.activations),
    ):
        atom = ctx.config.atom_channels(ref.precision)
        address = ref.address
        if address is None:
            diags.append(
                _diag(
                    Severity.ERROR,
                    "memory-map",
                    "unallocated-tensor",
                    f"network {name} tensor {ref.blob!r} has no address",
                    surface=ref.blob,
                )
            )
            continue
        if not _contains(region, address, address + ref.packed_bytes(atom)):
            diags.append(
                _diag(
                    Severity.ERROR,
                    "memory-map",
                    "tensor-outside-region",
                    f"network {name} tensor {ref.blob!r} outside {region.name} region",
                    surface=ref.blob,
                )
            )
    return diags


# ----------------------------------------------------------------------
# chain
# ----------------------------------------------------------------------


def pass_chain(ctx: AnalysisContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for layer in ctx.layers:
        chain = layer.chain
        selected: dict[str, int] = {}
        enabled: set[str] = set()
        wrote: set[str] = set()
        for event in chain.events:
            if event.kind == SELECT:
                selected[event.unit] = event.value
                continue
            if event.unit not in selected:
                diags.append(
                    _diag(
                        Severity.ERROR,
                        "chain",
                        "unselected-group",
                        f"{event.kind} before any S_POINTER select of {event.unit}",
                        layer=chain.op_name,
                        op_index=chain.op_index,
                        unit=event.unit,
                        register=event.register,
                    )
                )
            elif selected[event.unit] != chain.group:
                diags.append(
                    _diag(
                        Severity.ERROR,
                        "chain",
                        "wrong-group",
                        f"{event.unit} selected to group {selected[event.unit]}, "
                        f"chain targets group {chain.group}",
                        layer=chain.op_name,
                        op_index=chain.op_index,
                        unit=event.unit,
                    )
                )
            if event.kind == EV_WRITE:
                if event.unit in enabled:
                    diags.append(
                        _diag(
                            Severity.ERROR,
                            "chain",
                            "write-after-enable",
                            f"descriptor write to {event.unit}.{event.register} after "
                            f"the unit's group was enabled",
                            layer=chain.op_name,
                            op_index=chain.op_index,
                            unit=event.unit,
                            register=event.register,
                        )
                    )
                wrote.add(event.unit)
            elif event.kind == ENABLE:
                enabled.add(event.unit)
                if event.unit not in wrote:
                    diags.append(
                        _diag(
                            Severity.WARNING,
                            "chain",
                            "enable-without-writes",
                            f"{event.unit} enabled with no descriptor writes in "
                            f"this chain",
                            layer=chain.op_name,
                            op_index=chain.op_index,
                            unit=event.unit,
                        )
                    )
        if chain.sink not in enabled:
            diags.append(
                _diag(
                    Severity.ERROR,
                    "chain",
                    "sink-not-enabled",
                    f"sink {chain.sink} never enabled",
                    layer=chain.op_name,
                    op_index=chain.op_index,
                    unit=chain.sink,
                )
            )
    return diags


# ----------------------------------------------------------------------
# register-field
# ----------------------------------------------------------------------


def pass_register_fields(ctx: AnalysisContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for layer in ctx.layers:
        chain = layer.chain
        for event in chain.writes():
            reason = check_field(event.register, event.value)
            if reason is not None:
                diags.append(
                    _diag(
                        Severity.ERROR,
                        "register-field",
                        "illegal-field",
                        f"{event.unit}.{event.register}: {reason}",
                        layer=chain.op_name,
                        op_index=chain.op_index,
                        unit=event.unit,
                        register=event.register,
                    )
                )
    return diags


# ----------------------------------------------------------------------
# dma-bounds
# ----------------------------------------------------------------------


def pass_dma_bounds(ctx: AnalysisContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    mm = ctx.memory_map
    dram = (ctx.address_map.dram_base, ctx.address_map.dram_limit + 1)
    status = (STATUS_PAGE_BASE, STATUS_PAGE_BASE + STATUS_PAGE_SIZE)
    for surface in ctx.surfaces():
        if surface.size <= 0:
            diags.append(
                _surface_diag(
                    Severity.ERROR, "dma-bounds", "empty-surface",
                    f"surface has non-positive size {surface.size}", surface,
                )
            )
            continue
        if not (dram[0] <= surface.address and surface.end <= dram[1]):
            diags.append(
                _surface_diag(
                    Severity.ERROR,
                    "dma-bounds",
                    "dma-out-of-window",
                    f"{surface.describe()} outside DRAM window "
                    f"[0x{dram[0]:x}, 0x{dram[1]:x})",
                    surface,
                )
            )
            continue
        if _overlap(surface.address, surface.end, *status):
            diags.append(
                _surface_diag(
                    Severity.ERROR,
                    "dma-bounds",
                    "status-page-access",
                    f"{surface.describe()} overlaps the bare-metal status page",
                    surface,
                )
            )
        if surface.kind in ("weight", "bias"):
            if not _contains(mm.weights, surface.address, surface.end):
                diags.append(
                    _surface_diag(
                        Severity.ERROR,
                        "dma-bounds",
                        "outside-weights-region",
                        f"{surface.describe()} outside weights region "
                        f"[0x{mm.weights.address:x}, 0x{mm.weights.end:x})",
                        surface,
                    )
                )
            continue
        # Feature traffic.
        if surface.direction == WRITE:
            if not _contains(mm.activations, surface.address, surface.end):
                diags.append(
                    _surface_diag(
                        Severity.ERROR,
                        "dma-bounds",
                        "write-outside-activations",
                        f"{surface.describe()} outside activations region "
                        f"[0x{mm.activations.address:x}, 0x{mm.activations.end:x})",
                        surface,
                    )
                )
            if _overlap(surface.address, surface.end, mm.input.address, mm.input.end):
                diags.append(
                    _surface_diag(
                        Severity.ERROR,
                        "dma-bounds",
                        "input-region-clobber",
                        f"{surface.describe()} writes over the network input region",
                        surface,
                    )
                )
        else:
            if not (
                _contains(mm.input, surface.address, surface.end)
                or _contains(mm.activations, surface.address, surface.end)
            ):
                diags.append(
                    _surface_diag(
                        Severity.ERROR,
                        "dma-bounds",
                        "read-outside-regions",
                        f"{surface.describe()} not contained in the input or "
                        f"activations region",
                        surface,
                    )
                )
    return diags


# ----------------------------------------------------------------------
# hazard
# ----------------------------------------------------------------------


def pass_hazard(ctx: AnalysisContext) -> list[Diagnostic]:
    """Byte-granular RAW/WAW timeline over the schedule."""
    diags: list[Diagnostic] = []
    mm = ctx.memory_map
    input_label = ctx.loadable.input_tensor.blob
    # Last schedule position that reads each blob (for WAW liveness).
    last_read: dict[str, int] = {}
    for layer in ctx.layers:
        for surface in layer.surfaces:
            if surface.direction == READ and surface.kind == "feature":
                last_read[surface.label] = max(
                    last_read.get(surface.label, -1), surface.op_index
                )
    writes: list[Surface] = []  # in schedule order
    for layer in ctx.layers:
        for surface in layer.surfaces:
            if surface.direction != READ or surface.kind != "feature":
                continue
            remaining: list[Interval] = [(surface.address, surface.end)]
            for writer in reversed(writes):  # newest first = latest writer
                if not remaining:
                    break
                overlapped = [
                    (max(s, writer.address), min(e, writer.end))
                    for s, e in remaining
                    if _overlap(s, e, writer.address, writer.end)
                ]
                if not overlapped:
                    continue
                if writer.label != surface.label:
                    lo, hi = overlapped[0]
                    diags.append(
                        _surface_diag(
                            Severity.ERROR,
                            "hazard",
                            "raw-clobbered",
                            f"read of {surface.label!r} sees bytes "
                            f"[0x{lo:x}, 0x{hi:x}) last written by "
                            f"{writer.label!r} ({writer.op_name})",
                            surface,
                        )
                    )
                for cut in overlapped:
                    remaining = _subtract(remaining, cut)
            # Bytes no scheduled op wrote: legitimate only if preloaded.
            for start, end in remaining:
                if _contains(mm.input, start, end):
                    if surface.label != input_label:
                        diags.append(
                            _surface_diag(
                                Severity.ERROR,
                                "hazard",
                                "raw-clobbered",
                                f"read of {surface.label!r} aliases the network "
                                f"input image",
                                surface,
                            )
                        )
                    continue
                if _contains(mm.weights, start, end):
                    continue  # preloaded weight blob
                diags.append(
                    _surface_diag(
                        Severity.ERROR,
                        "hazard",
                        "read-uninitialized",
                        f"read of {surface.label!r} covers bytes "
                        f"[0x{start:x}, 0x{end:x}) no earlier op produced",
                        surface,
                    )
                )
        for surface in layer.surfaces:
            if surface.direction != WRITE:
                continue
            for writer in writes:
                if writer.label == surface.label:
                    continue
                if not writer.overlaps(surface):
                    continue
                if last_read.get(writer.label, -1) > surface.op_index:
                    diags.append(
                        _surface_diag(
                            Severity.ERROR,
                            "hazard",
                            "waw-live-overwrite",
                            f"write of {surface.label!r} overwrites "
                            f"{writer.label!r} (written by {writer.op_name}) "
                            f"which is still read later",
                            surface,
                        )
                    )
            writes.append(surface)
    return diags


# ----------------------------------------------------------------------
# dependency
# ----------------------------------------------------------------------


def pass_dependency(ctx: AnalysisContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    input_label = ctx.loadable.input_tensor.blob
    producers: dict[str, list[int]] = {}
    for layer in ctx.layers:
        for surface in layer.surfaces:
            if surface.direction == WRITE and surface.kind == "feature":
                producers.setdefault(surface.label, []).append(surface.op_index)
    edges: dict[int, set[int]] = {}
    for layer in ctx.layers:
        for surface in layer.surfaces:
            if surface.direction != READ or surface.kind != "feature":
                continue
            if surface.label == input_label:
                continue
            made = producers.get(surface.label)
            if not made:
                diags.append(
                    _surface_diag(
                        Severity.ERROR,
                        "dependency",
                        "dangling-producer",
                        f"{surface.op_name} reads {surface.label!r} which no op "
                        f"produces and which is not the network input",
                        surface,
                    )
                )
                continue
            if min(made) > surface.op_index:
                diags.append(
                    _surface_diag(
                        Severity.ERROR,
                        "dependency",
                        "use-before-def",
                        f"{surface.op_name} (op {surface.op_index}) reads "
                        f"{surface.label!r} first produced by op {min(made)} — "
                        f"producer/consumer order violated",
                        surface,
                    )
                )
            for producer_index in made:
                edges.setdefault(producer_index, set()).add(surface.op_index)
    # Cycle detection over op-level dataflow.
    seen: dict[int, int] = {}  # 0 = visiting, 1 = done

    def visit(node: int, stack: list[int]) -> list[int] | None:
        state = seen.get(node)
        if state == 1:
            return None
        if state == 0:
            return stack[stack.index(node):] + [node]
        seen[node] = 0
        stack.append(node)
        for nxt in sorted(edges.get(node, ())):
            if nxt == node:
                continue
            cycle = visit(nxt, stack)
            if cycle is not None:
                return cycle
        stack.pop()
        seen[node] = 1
        return None

    for node in sorted(edges):
        cycle = visit(node, [])
        if cycle is not None:
            diags.append(
                _diag(
                    Severity.ERROR,
                    "dependency",
                    "dependency-cycle",
                    f"dataflow cycle through ops {cycle}",
                    op_index=cycle[0],
                )
            )
            break
    return diags


# ----------------------------------------------------------------------
# cbuf
# ----------------------------------------------------------------------


def pass_cbuf(ctx: AnalysisContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    cbuf = Cbuf(ctx.config)
    for layer in ctx.layers:
        if not isinstance(layer.op, ConvOp):
            continue
        chain = layer.chain
        values = {e.register: e.value for e in chain.writes() if e.unit == "CDMA"}
        data_banks = values.get("D_BANK_DATA")
        weight_banks = values.get("D_BANK_WEIGHT")
        if data_banks is None or weight_banks is None:
            diags.append(
                _diag(
                    Severity.ERROR,
                    "cbuf",
                    "missing-bank-split",
                    "conv chain programs no CBUF bank split",
                    layer=chain.op_name,
                    op_index=chain.op_index,
                    unit="CDMA",
                )
            )
            continue
        try:
            allocation = cbuf.allocate(data_banks, weight_banks)
        except TilingError as exc:
            diags.append(
                _diag(
                    Severity.ERROR,
                    "cbuf",
                    "bank-overbudget",
                    str(exc),
                    layer=chain.op_name,
                    op_index=chain.op_index,
                    unit="CDMA",
                    register="D_BANK_DATA",
                )
            )
            continue
        weight_bytes = values.get("D_WEIGHT_BYTES", 0)
        splits = cbuf.kernel_splits(weight_bytes, allocation.weight_banks)
        if splits > 1:
            diags.append(
                _diag(
                    Severity.INFO,
                    "cbuf",
                    "kernel-splits",
                    f"weights ({weight_bytes} B) exceed the weight partition "
                    f"({allocation.weight_bytes} B): {splits} K-splits, input "
                    f"re-streamed per split",
                    layer=chain.op_name,
                    op_index=chain.op_index,
                    unit="CDMA",
                )
            )
    return diags


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------


def _check_tensor_layout(
    diags: list[Diagnostic],
    chain: LayerChain,
    unit: str,
    what: str,
    desc: TensorDesc,
    ref: TensorRef | None,
    config: HardwareConfig,
) -> None:
    atom = config.atom_channels(desc.precision)
    expected_line, expected_surf = feature_strides(desc.shape, atom, desc.precision)
    if (desc.line_stride, desc.surf_stride) != (expected_line, expected_surf):
        diags.append(
            _diag(
                Severity.ERROR,
                "layout",
                "stride-mismatch",
                f"{what} strides (line={desc.line_stride}, surf={desc.surf_stride}) "
                f"!= canonical ({expected_line}, {expected_surf}) for shape "
                f"{desc.shape} {desc.precision.value}",
                layer=chain.op_name,
                op_index=chain.op_index,
                unit=unit,
                surface=ref.blob if ref is not None else "",
            )
        )
    if ref is None:
        return
    if desc.shape != ref.shape:
        diags.append(
            _diag(
                Severity.ERROR,
                "layout",
                "shape-mismatch",
                f"{what} descriptor shape {desc.shape} != compiled tensor "
                f"{ref.blob!r} shape {ref.shape}",
                layer=chain.op_name,
                op_index=chain.op_index,
                unit=unit,
                surface=ref.blob,
            )
        )
    if desc.precision is not ref.precision:
        diags.append(
            _diag(
                Severity.ERROR,
                "layout",
                "precision-mismatch",
                f"{what} descriptor precision {desc.precision.value} != compiled "
                f"tensor {ref.blob!r} precision {ref.precision.value}",
                layer=chain.op_name,
                op_index=chain.op_index,
                unit=unit,
                surface=ref.blob,
            )
        )


def pass_layout(ctx: AnalysisContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for layer in ctx.layers:
        chain = layer.chain
        op = layer.op
        conv = layer.descriptors.get("conv")
        sdp = layer.descriptors.get("sdp")
        if conv is not None:
            _check_tensor_layout(
                diags, chain, "CDMA", "conv input", conv.input, op.input, ctx.config
            )
            if sdp is not None:
                out = sdp.output
                if conv.kernel_k != out.channels:
                    diags.append(
                        _diag(
                            Severity.ERROR,
                            "layout",
                            "pipeline-dims-mismatch",
                            f"kernel K={conv.kernel_k} != SDP output channels "
                            f"{out.channels}",
                            layer=chain.op_name,
                            op_index=chain.op_index,
                            unit="CACC",
                        )
                    )
                in_c = conv.input.channels
                if conv.kernel_c != in_c:
                    diags.append(
                        _diag(
                            Severity.ERROR,
                            "layout",
                            "pipeline-dims-mismatch",
                            f"kernel C={conv.kernel_c} != input channels {in_c}",
                            layer=chain.op_name,
                            op_index=chain.op_index,
                            unit="CSC",
                        )
                    )
        if sdp is not None:
            if sdp.input is not None and hasattr(op, "input"):
                _check_tensor_layout(
                    diags, chain, "SDP_RDMA", "SDP source", sdp.input, op.input, ctx.config
                )
            eltwise_ref = getattr(op, "eltwise_input", None)
            if sdp.eltwise_input is not None and eltwise_ref is not None:
                _check_tensor_layout(
                    diags, chain, "SDP_RDMA", "eltwise operand", sdp.eltwise_input,
                    eltwise_ref, ctx.config,
                )
            if sdp.dst_flying:
                # Flying destination: no compiled tensor backs the on-chip
                # link (address 0), but the cube geometry must still carry
                # canonical strides for the downstream consumer.
                _check_tensor_layout(
                    diags, chain, "SDP", "SDP flying destination", sdp.output, None,
                    ctx.config,
                )
                if sdp.output.address != 0:
                    diags.append(
                        _diag(
                            Severity.ERROR,
                            "layout",
                            "flying-nonnull-address",
                            f"SDP flying destination carries address "
                            f"0x{sdp.output.address:x}; an on-chip link must be "
                            f"programmed with a null address",
                            layer=chain.op_name,
                            op_index=chain.op_index,
                            unit="SDP",
                        )
                    )
            else:
                _check_tensor_layout(
                    diags, chain, "SDP", "SDP destination", sdp.output, op.output,
                    ctx.config,
                )
        pdp = layer.descriptors.get("pdp")
        cdp = layer.descriptors.get("cdp")
        if pdp is not None and sdp is not None and sdp.dst_flying:
            # Fused conv+SDP+PDP epilogue (the cube handed across the link
            # is a chain rule): only the pooled output is memory-backed.
            _check_tensor_layout(
                diags, chain, "PDP_RDMA", "fused PDP source", pdp.input, None, ctx.config
            )
            _check_tensor_layout(
                diags, chain, "PDP", "fused PDP destination", pdp.output, op.output,
                ctx.config,
            )
        else:
            simple = pdp or cdp
            if simple is not None:
                rdma = "PDP_RDMA" if pdp is not None else "CDP_RDMA"
                sink = "PDP" if pdp is not None else "CDP"
                _check_tensor_layout(
                    diags, chain, rdma, f"{sink} source", simple.input, op.input,
                    ctx.config,
                )
                _check_tensor_layout(
                    diags, chain, sink, f"{sink} destination", simple.output, op.output,
                    ctx.config,
                )
    return diags


#: The default pipeline, in execution order.
DEFAULT_PASSES: tuple[tuple[str, object], ...] = (
    ("memory-map", pass_memory_map),
    ("chain", pass_chain),
    ("register-field", pass_register_fields),
    ("dma-bounds", pass_dma_bounds),
    ("hazard", pass_hazard),
    ("dependency", pass_dependency),
    ("cbuf", pass_cbuf),
    ("layout", pass_layout),
)
