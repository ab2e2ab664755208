"""Graph analysis passes: pruning, fusion planning, concat aliasing.

Works on the :class:`~repro.nn.graph.Network` IR before lowering:

- **pruning** — keep only layers reachable backwards from the
  declared output (drops GoogLeNet's auxiliary heads),
- **fusion planning** — each Convolution/InnerProduct absorbs a
  directly-following BatchNorm → Scale → ReLU chain (any prefix);
  each Eltwise absorbs a following ReLU; Dropout is elided,
- **concat aliasing** — channel-wise Concat becomes zero-copy: each
  input blob is a channel-offset view into the concat output blob.
  Chained concats collapse into the outermost blob.

Plus one pass *after* lowering, on the hardware-op schedule:

- **descriptor-chain fusion** (:func:`fuse_descriptor_chains`) — a
  ``ConvOp`` followed by the sole consumer of its output collapses
  into one pipelined descriptor chain: a relu/eltwise ``SdpOp`` folds
  into the conv's SDP stage, and a ``PoolOp`` becomes a PDP epilogue
  streaming the SDP result on-chip.  The intermediate blob disappears
  from every op reference, so the allocator never materialises it and
  the DRAM round-trip between the stages is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CompilerError
from repro.nn.graph import Network
from repro.nn.layers import (
    BatchNorm,
    Concat,
    Convolution,
    Dropout,
    Eltwise,
    InnerProduct,
    Layer,
    ReLU,
    Scale,
)


def prune_to_output(net: Network) -> list[Layer]:
    """Layers reachable backwards from the output blob, in order."""
    needed_blobs = {net.output_blob}
    keep: list[Layer] = []
    for layer in reversed(net.layers):
        if any(top in needed_blobs for top in layer.tops):
            keep.append(layer)
            needed_blobs.update(layer.bottoms)
    keep.reverse()
    return keep


@dataclass
class FusionPlan:
    """Which layers each producer absorbs, and which disappear."""

    # producer layer name -> ordered absorbed layers
    absorbed: dict[str, list[Layer]] = field(default_factory=dict)
    # layer names that are absorbed into some producer (skip at lowering)
    consumed: set[str] = field(default_factory=set)
    # blob -> blob aliases for elided layers (dropout): top -> bottom
    aliases: dict[str, str] = field(default_factory=dict)
    # graph-level absorption on (False only for fusion="off"): ReLUs
    # fold into producers and residual adds ride the conv's SDP pass
    absorb: bool = True

    def resolve_blob(self, blob: str) -> str:
        seen: set[str] = set()
        while blob in self.aliases:
            if blob in seen:
                raise CompilerError(
                    f"cyclic blob alias chain through {blob!r}: "
                    f"{sorted(seen)} alias each other"
                )
            seen.add(blob)
            blob = self.aliases[blob]
        return blob


_FOLDABLE_AFTER_CONV = (BatchNorm, Scale, ReLU)


def plan_fusion(net: Network, layers: list[Layer], absorb_relu: bool = True) -> FusionPlan:
    """Greedy single-consumer chain fusion.

    A layer is absorbed only when it is the *sole* consumer of its
    bottom blob, so branch points (e.g. a ReLU output feeding two
    inception branches) stay materialised.

    ``absorb_relu=False`` (the ``fusion="off"`` ablation) keeps every
    ReLU as a standalone SDP layer and every residual add as a
    standalone eltwise op — one descriptor chain per network layer,
    each paying its own DRAM round-trip.  BN/Scale still fold:
    a standalone BatchNorm has no hardware lowering.
    """
    plan = FusionPlan(absorb=absorb_relu)
    by_index = {layer.name: i for i, layer in enumerate(layers)}
    consumers: dict[str, list[Layer]] = {}
    for layer in layers:
        for bottom in layer.bottoms:
            consumers.setdefault(bottom, []).append(layer)

    for layer in layers:
        if isinstance(layer, Dropout):
            plan.consumed.add(layer.name)
            plan.aliases[layer.tops[0]] = layer.bottoms[0]
            continue
        if isinstance(layer, (Convolution, InnerProduct)):
            allowed: tuple[type, ...] = (
                _FOLDABLE_AFTER_CONV if absorb_relu else (BatchNorm, Scale)
            )
        elif isinstance(layer, Eltwise):
            if not absorb_relu:
                continue
            allowed = (ReLU,)
        else:
            continue
        absorbed: list[Layer] = []
        blob = layer.tops[0]
        seen_relu = False
        while True:
            users = [u for u in consumers.get(blob, []) if u.name not in plan.consumed]
            if len(users) != 1:
                break
            follower = users[0]
            if not isinstance(follower, allowed):
                break
            if isinstance(follower, ReLU):
                if seen_relu:
                    break
                seen_relu = True
            if isinstance(follower, (BatchNorm, Scale)) and seen_relu:
                break  # BN/Scale after ReLU cannot fold into the conv
            absorbed.append(follower)
            plan.consumed.add(follower.name)
            blob = follower.tops[0]
        if absorbed:
            plan.absorbed[layer.name] = absorbed
    return plan


def fused_output_blob(layer: Layer, plan: FusionPlan) -> str:
    """Blob name the fused group ultimately produces."""
    absorbed = plan.absorbed.get(layer.name)
    if absorbed:
        return absorbed[-1].tops[0]
    return layer.tops[0]


def fold_batchnorm_scale(
    net: Network,
    conv_weight: np.ndarray,
    conv_bias: np.ndarray | None,
    absorbed: list[Layer],
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Fold absorbed BatchNorm/Scale parameters into weight/bias.

    Returns ``(weight, bias, relu)`` in float32.  Convolution weights
    are per-output-channel scaled: ``w' = w * g``, ``b' = (b - mean) *
    g_bn * g_scale + beta`` with the usual BN folding algebra.
    """
    weight = conv_weight.astype(np.float32)
    k = weight.shape[0]
    bias = (conv_bias.astype(np.float32) if conv_bias is not None else np.zeros(k, np.float32))
    relu = False
    for layer in absorbed:
        params = net.params.get(layer.name, {})
        if isinstance(layer, BatchNorm):
            mean = params["mean"].astype(np.float32)
            var = params["variance"].astype(np.float32)
            gain = 1.0 / np.sqrt(var + layer.eps)
            weight = weight * gain.reshape(-1, *([1] * (weight.ndim - 1)))
            bias = (bias - mean) * gain
        elif isinstance(layer, Scale):
            gain = params["scale"].astype(np.float32)
            weight = weight * gain.reshape(-1, *([1] * (weight.ndim - 1)))
            bias = bias * gain
            if layer.bias:
                bias = bias + params["bias"].astype(np.float32)
        elif isinstance(layer, ReLU):
            relu = True
        else:  # pragma: no cover - plan_fusion restricts the types
            raise CompilerError(f"cannot fold layer {layer.type_name}")
    return weight, bias, relu


@dataclass
class ConcatAlias:
    """One concat input's placement inside the concat output blob."""

    parent_blob: str
    channel_offset: int
    parent_channels: int


def plan_concats(net: Network, layers: list[Layer], plan: FusionPlan) -> dict[str, ConcatAlias]:
    """Map each concat-input blob to its slot in the concat blob.

    Chained concats collapse: offsets compose into the outermost
    parent.  Returns ``{}`` when the network has no Concat layers.
    """
    aliases: dict[str, ConcatAlias] = {}
    for layer in layers:
        if not isinstance(layer, Concat):
            continue
        out_blob = layer.tops[0]
        total = net.blob_shapes[out_blob][0]
        offset = 0
        for bottom in layer.bottoms:
            bottom = plan.resolve_blob(bottom)
            channels = net.blob_shapes[bottom][0]
            aliases[bottom] = ConcatAlias(
                parent_blob=out_blob, channel_offset=offset, parent_channels=total
            )
            offset += channels
    # Collapse chains: an alias whose parent is itself aliased.
    changed = True
    while changed:
        changed = False
        for blob, alias in list(aliases.items()):
            parent = aliases.get(alias.parent_blob)
            if parent is not None:
                aliases[blob] = ConcatAlias(
                    parent_blob=parent.parent_blob,
                    channel_offset=alias.channel_offset + parent.channel_offset,
                    parent_channels=parent.parent_channels,
                )
                changed = True
    return aliases


# ----------------------------------------------------------------------
# Descriptor-chain fusion (post-lowering, on the hardware schedule).
# ----------------------------------------------------------------------


def _schedule_read_counts(schedule) -> dict[str, int]:
    """How many op-input references each blob has."""
    counts: dict[str, int] = {}
    for op in schedule.ops:
        for ref in op.inputs():
            counts[ref.blob] = counts.get(ref.blob, 0) + 1
    return counts


def _full_blob_view(ref) -> bool:
    """True when the ref covers its whole allocation blob."""
    return ref.channel_offset == 0 and ref.parent_channels in (None, ref.shape[0])


def _intermediate_is_private(conv, follower_input, reads, output_blob) -> bool:
    """The conv output exists only to feed ``follower_input``.

    Legality core of descriptor fusion: the blob must be a full view
    on both sides, read exactly once schedule-wide, and must not be
    the network output the host reads back.
    """
    out = conv.output
    if out.blob != follower_input.blob:
        return False
    if not _full_blob_view(out) or not _full_blob_view(follower_input):
        return False
    if out.shape != follower_input.shape:
        return False
    if output_blob is not None and out.blob == output_blob:
        return False
    return reads.get(out.blob, 0) == 1


def _try_fuse_pool(conv, pool, reads, output_blob) -> bool:
    """Fold a ``PoolOp`` into ``conv`` as a PDP streaming epilogue."""
    from repro.compiler.ops import PoolOp

    if not isinstance(pool, PoolOp) or conv.has_pool_epilogue:
        return False
    if pool.precision is not conv.precision:
        return False
    if pool.output.blob == conv.output.blob:
        return False
    if not _intermediate_is_private(conv, pool.input, reads, output_blob):
        return False
    conv.conv_out_shape = conv.output.shape
    conv.pool_mode = pool.mode
    conv.pool_kernel = pool.kernel
    conv.pool_stride = pool.stride
    conv.pool_pad = pool.pad
    conv.output = pool.output
    return True


def _try_fuse_sdp(conv, sdp, reads, output_blob) -> bool:
    """Fold a standalone relu/eltwise ``SdpOp`` into the conv's SDP stage."""
    from repro.compiler.ops import EltwiseOpKind, SdpOp
    from repro.nn.quantize import requant_constants
    from repro.nvdla.config import Precision

    if not isinstance(sdp, SdpOp) or conv.has_pool_epilogue:
        return False
    if conv.relu or conv.eltwise is not None:
        return False  # the conv's SDP stage is already claimed
    if sdp.precision is not conv.precision:
        return False
    if sdp.eltwise is not None and sdp.eltwise is not EltwiseOpKind.ADD:
        return False  # requant algebra below only covers ADD
    if sdp.eltwise_input is not None and sdp.eltwise_input.blob == conv.output.blob:
        return False
    if sdp.output.blob == conv.output.blob:
        return False
    if not _intermediate_is_private(conv, sdp.input, reads, output_blob):
        return False
    if conv.precision is Precision.INT8:
        acc_scale = conv.input.scale * conv.weight_scale
        conv.cvt_mult, conv.cvt_shift = requant_constants(
            conv.input.scale, conv.weight_scale, sdp.output.scale
        )
        if sdp.eltwise_input is not None:
            conv.ew_cvt_mult, conv.ew_cvt_shift = requant_constants(
                sdp.eltwise_input.scale, 1.0, acc_scale
            )
    conv.eltwise = sdp.eltwise
    conv.eltwise_input = sdp.eltwise_input
    conv.relu = sdp.relu
    conv.output = sdp.output
    return True


def fuse_descriptor_chains(schedule) -> int:
    """Collapse conv → SDP/pool pairs into single pipelined chains.

    Mutates ``schedule`` in place and returns the number of ops
    absorbed.  Runs after lowering and before weight packing /
    allocation, so absorbed intermediates simply never reach the
    allocator.  Only adjacent schedule pairs fuse: the engine launches
    a fused chain as one shadow-group occupancy across the conv
    pipeline, SDP and PDP, which requires the stages to be programmed
    together.
    """
    from repro.compiler.ops import ConvOp

    fused = 0
    changed = True
    while changed:
        changed = False
        reads = _schedule_read_counts(schedule)
        output_blob = (
            schedule.output_tensor.blob if schedule.output_tensor is not None else None
        )
        for idx in range(len(schedule.ops) - 1):
            conv, follower = schedule.ops[idx], schedule.ops[idx + 1]
            if not isinstance(conv, ConvOp):
                continue
            if _try_fuse_pool(conv, follower, reads, output_blob) or _try_fuse_sdp(
                conv, follower, reads, output_blob
            ):
                del schedule.ops[idx + 1]
                fused += 1
                changed = True
                break
    return fused
