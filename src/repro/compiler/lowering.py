"""Layer-to-hardware-op lowering.

Maps the pruned, fusion-planned layer graph onto NVDLA hardware ops:

=================  ====================================================
Convolution        ConvOp (conv pipeline + SDP); grouped convolutions
                   split per group, depthwise regrouped into
                   ``atomic_c``-channel block-diagonal ConvOps
InnerProduct       ConvOp with the kernel spanning the input cube
Pooling            PoolOp (PDP) with ceil-mode pads rebalanced
Eltwise (+ReLU)    SdpOp with a second memory operand
LRN                LrnOp (CDP); INT8 alpha is pre-scaled by the input
                   quantisation scale squared so CDP arithmetic stays
                   in the quantised domain
ReLU (standalone)  SdpOp
Concat             zero-copy (resolved by concat aliasing)
Softmax            CpuSoftmaxOp (host)
=================  ====================================================

Quantisation-scale resolution: blobs joined by scale-preserving ops
(pool, LRN, standalone ReLU) or scale-sharing constraints (eltwise
operands, concat branches) are unioned, and each group takes the
largest calibrated scale — the standard conservative rule, keeping
integer eltwise adds and zero-copy concats exact.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompilerError
from repro.nn.graph import Network
from repro.nn.layers import (
    BatchNorm,
    Concat,
    Convolution,
    Dropout,
    Eltwise,
    EltwiseKind,
    InnerProduct,
    Input,
    Layer,
    Lrn,
    Pooling,
    PoolKind,
    ReLU,
    Scale,
    Softmax,
)
from repro.nn.quantize import CalibrationTable, quantize_weights, requant_constants
from repro.compiler.fusion import (
    ConcatAlias,
    FusionPlan,
    fold_batchnorm_scale,
    fused_output_blob,
    plan_concats,
    plan_fusion,
    prune_to_output,
)
from repro.compiler.ops import (
    ConvOp,
    CpuSoftmaxOp,
    EltwiseOpKind,
    LrnOp,
    PoolOp,
    Schedule,
    SdpOp,
    TensorRef,
)
from repro.nvdla.config import HardwareConfig, Precision

_ELTWISE_KIND = {
    EltwiseKind.SUM: EltwiseOpKind.ADD,
    EltwiseKind.PROD: EltwiseOpKind.MUL,
    EltwiseKind.MAX: EltwiseOpKind.MAX,
}


class _ScaleUnion:
    """Union-find over blob names for scale-sharing groups."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, blob: str) -> str:
        parent = self._parent.setdefault(blob, blob)
        if parent != blob:
            root = self.find(parent)
            self._parent[blob] = root
            return root
        return blob

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


def resolve_scales(
    net: Network,
    layers: list[Layer],
    plan: FusionPlan,
    calibration: CalibrationTable | None,
    precision: Precision,
) -> dict[str, float]:
    """Final per-blob scales (all 1.0 for FP16)."""
    blobs = {top for layer in layers for top in layer.tops}
    if precision is Precision.FP16:
        return {blob: 1.0 for blob in blobs}
    if calibration is None:
        raise CompilerError("INT8 compilation requires a calibration table")

    union = _ScaleUnion()
    for layer in layers:
        if layer.name in plan.consumed:
            continue
        if isinstance(layer, Eltwise):
            out = fused_output_blob(layer, plan)
            union.union(layer.bottoms[0], layer.bottoms[1])
            union.union(layer.bottoms[0], layer.tops[0])
            union.union(layer.tops[0], out)
        elif isinstance(layer, Concat):
            for bottom in layer.bottoms:
                union.union(bottom, layer.tops[0])
        elif isinstance(layer, (Pooling, Lrn, Dropout)):
            union.union(layer.bottoms[0], layer.tops[0])
        elif isinstance(layer, ReLU) and layer.name not in plan.consumed:
            union.union(layer.bottoms[0], layer.tops[0])

    # Standalone ReLUs that graph fusion would have absorbed (sole
    # consumer of a conv/FC output — the ``fusion="off"`` ablation):
    # the pre-ReLU blob must not widen the group's scale, so the
    # quantised schedule matches the absorbed one bit for bit — the
    # extra negative range it would claim is zeroed by the ReLU anyway.
    producers = {layer.tops[0]: layer for layer in layers if layer.tops}
    consumer_count: dict[str, int] = {}
    for layer in layers:
        if layer.name in plan.consumed:
            continue
        for bottom in layer.bottoms:
            consumer_count[bottom] = consumer_count.get(bottom, 0) + 1
    def _effective_producer(blob: str) -> Layer | None:
        # BN/Scale folded into the conv leave their tops as aliases of
        # the conv's output (conv→BN→Scale→ReLU chains); walk back
        # through the consumed layers to the op that really writes.
        layer = producers.get(blob)
        while isinstance(layer, (BatchNorm, Scale)) and layer.name in plan.consumed:
            layer = producers.get(layer.bottoms[0])
        return layer

    deabsorbed_inputs = {
        layer.bottoms[0]
        for layer in layers
        if isinstance(layer, ReLU)
        and layer.name not in plan.consumed
        and consumer_count.get(layer.bottoms[0], 0) == 1
        and isinstance(
            _effective_producer(layer.bottoms[0]), (Convolution, InnerProduct)
        )
    }

    group_scale: dict[str, float] = {}
    for blob in blobs:
        if blob in deabsorbed_inputs:
            continue
        root = union.find(blob)
        scale = calibration.scales.get(blob)
        if scale is None:
            continue
        group_scale[root] = max(group_scale.get(root, 0.0), scale)
    resolved: dict[str, float] = {}
    for blob in blobs:
        root = union.find(blob)
        resolved[blob] = group_scale.get(root) or calibration.scale_for(blob)
    return resolved


def lower_network(
    net: Network,
    config: HardwareConfig,
    precision: Precision,
    calibration: CalibrationTable | None,
    absorb_relu: bool = True,
) -> Schedule:
    """Run pruning, fusion, scale resolution and op emission."""
    if not config.supports(precision):
        raise CompilerError(f"{config.name} does not support {precision.value}")
    net.validate()
    layers = prune_to_output(net)
    plan = plan_fusion(net, layers, absorb_relu=absorb_relu)
    concat_aliases = plan_concats(net, layers, plan)
    scales = resolve_scales(net, layers, plan, calibration, precision)
    atom = config.atom_channels(precision)
    builder = _Lowerer(net, config, precision, plan, concat_aliases, scales, atom)
    return builder.build(layers)


class _Lowerer:
    def __init__(
        self,
        net: Network,
        config: HardwareConfig,
        precision: Precision,
        plan: FusionPlan,
        concat_aliases: dict[str, ConcatAlias],
        scales: dict[str, float],
        atom: int,
    ) -> None:
        self.net = net
        self.config = config
        self.precision = precision
        self.plan = plan
        self.concat_aliases = concat_aliases
        self.scales = scales
        self.atom = atom
        self.refs: dict[str, TensorRef] = {}
        self.schedule = Schedule()

    # ------------------------------------------------------------------

    def ref_for(self, blob: str) -> TensorRef:
        blob = self.plan.resolve_blob(blob)
        if blob in self.refs:
            return self.refs[blob]
        shape = self.net.blob_shapes[blob]
        alias = self.concat_aliases.get(blob)
        if alias is not None:
            ref = TensorRef(
                blob=alias.parent_blob,
                shape=shape,
                precision=self.precision,
                scale=self.scales[blob],
                channel_offset=alias.channel_offset,
                parent_channels=alias.parent_channels,
            )
        else:
            ref = TensorRef(
                blob=blob, shape=shape, precision=self.precision, scale=self.scales[blob]
            )
        self.refs[blob] = ref
        return ref

    def channel_view(self, ref: TensorRef, offset: int, channels: int) -> TensorRef:
        """A channel-sliced view of an existing reference."""
        if offset % self.atom:
            raise CompilerError(
                f"channel slice at {offset} of {ref.blob!r} not aligned to "
                f"{self.atom}-channel atoms on {self.config.name}"
            )
        parent = ref.parent_channels if ref.parent_channels is not None else ref.shape[0]
        return TensorRef(
            blob=ref.blob,
            shape=(channels, ref.shape[1], ref.shape[2]),
            precision=ref.precision,
            scale=ref.scale,
            channel_offset=ref.channel_offset + offset,
            parent_channels=parent,
        )

    # ------------------------------------------------------------------

    def build(self, layers: list[Layer]) -> Schedule:
        for layer in layers:
            if layer.name in self.plan.consumed:
                continue
            if isinstance(layer, Input):
                self.schedule.input_tensor = self.ref_for(layer.tops[0])
            elif isinstance(layer, Convolution):
                self._lower_conv(layer)
            elif isinstance(layer, InnerProduct):
                self._lower_fc(layer)
            elif isinstance(layer, Pooling):
                self._lower_pool(layer)
            elif isinstance(layer, Eltwise):
                self._lower_eltwise(layer)
            elif isinstance(layer, Lrn):
                self._lower_lrn(layer)
            elif isinstance(layer, Concat):
                self.ref_for(layer.tops[0])  # materialise the parent blob
            elif isinstance(layer, ReLU):
                self._lower_relu(layer)
            elif isinstance(layer, Softmax):
                op = CpuSoftmaxOp(name=layer.name, input=self.ref_for(layer.bottoms[0]))
                self.schedule.ops.append(op)
                self.schedule.cpu_ops.append(op)
                self.refs[layer.tops[0]] = self.ref_for(layer.bottoms[0])
            else:
                raise CompilerError(
                    f"cannot lower standalone layer {layer.name!r} ({layer.type_name})"
                )
        output_blob = self.plan.resolve_blob(self.net.output_blob)
        # Softmax runs on the CPU, so the accelerator-side output is the
        # softmax's input tensor (already aliased in refs).
        self.schedule.output_tensor = self.refs.get(output_blob) or self.ref_for(output_blob)
        if self.schedule.input_tensor is None:
            raise CompilerError("network has no Input layer after pruning")
        return self.schedule

    # ------------------------------------------------------------------

    def _quantize_conv(
        self, op: ConvOp, in_scale: float, out_scale: float
    ) -> None:
        if self.precision is Precision.FP16:
            op.cvt_mult, op.cvt_shift = 1, 0
            return
        q = quantize_weights(op.weight, op.bias, in_scale)
        op.q_weight = q.weight
        op.q_bias = q.bias
        op.weight_scale = q.weight_scale
        op.cvt_mult, op.cvt_shift = requant_constants(in_scale, q.weight_scale, out_scale)

    def _emit_conv(
        self,
        name: str,
        input_ref: TensorRef,
        output_ref: TensorRef,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: tuple[int, int],
        pad: tuple[int, int, int, int],
        relu: bool,
    ) -> None:
        op = ConvOp(
            name=name,
            input=input_ref,
            output=output_ref,
            weight=weight.astype(np.float32),
            bias=None if bias is None else bias.astype(np.float32),
            stride=stride,
            pad=pad,
            relu=relu,
            precision=self.precision,
            kernel_dims=tuple(weight.shape),  # type: ignore[arg-type]
        )
        self._quantize_conv(op, input_ref.scale, output_ref.scale)
        self.schedule.ops.append(op)

    def _lower_conv(self, layer: Convolution) -> None:
        params = self.net.params[layer.name]
        absorbed = self.plan.absorbed.get(layer.name, [])
        weight, bias, relu = fold_batchnorm_scale(
            self.net, params["weight"], params.get("bias"), absorbed
        )
        out_blob = fused_output_blob(layer, self.plan)
        input_ref = self.ref_for(layer.bottoms[0])
        output_ref = self.ref_for(out_blob)
        stride = (layer.stride, layer.stride)
        pad = (layer.pad, layer.pad, layer.pad, layer.pad)

        if layer.group == 1:
            self._emit_conv(layer.name, input_ref, output_ref, weight, bias, stride, pad, relu)
            return

        c_in = input_ref.shape[0]
        in_per = c_in // layer.group
        out_per = layer.num_output // layer.group
        if in_per == 1:
            self._lower_depthwise(layer, input_ref, output_ref, weight, bias, stride, pad, relu)
            return
        if in_per % self.atom or out_per % self.atom:
            raise CompilerError(
                f"conv {layer.name!r}: group slices of {in_per}/{out_per} channels do not "
                f"align to {self.atom}-channel atoms on {self.config.name}"
            )
        for g in range(layer.group):
            in_view = self.channel_view(input_ref, g * in_per, in_per)
            out_view = self.channel_view(output_ref, g * out_per, out_per)
            w_g = weight[g * out_per : (g + 1) * out_per]
            b_g = None if bias is None else bias[g * out_per : (g + 1) * out_per]
            self._emit_conv(
                f"{layer.name}_g{g}", in_view, out_view, w_g, b_g, stride, pad, relu
            )

    def _lower_depthwise(
        self,
        layer: Convolution,
        input_ref: TensorRef,
        output_ref: TensorRef,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: tuple[int, int],
        pad: tuple[int, int, int, int],
        relu: bool,
    ) -> None:
        """Depthwise conv → block-diagonal convs of ``atomic_c`` channels.

        NVDLA has no native depthwise mode; the compiler regroups the
        per-channel kernels into dense blocks whose off-diagonal weights
        are zero.  The MAC array still burns full atoms on those zeros —
        the padding-efficiency cliff discussed in the MobileNet Table III
        row — but op count stays manageable (C / atomic_c ops).
        """
        block = self.config.atoms(self.precision)[0]
        if block % self.atom:
            raise CompilerError(
                f"{self.config.name}: atomic_c {block} not a multiple of the "
                f"{self.atom}-channel memory atom"
            )
        channels = input_ref.shape[0]
        _, r, s = weight.shape[1:]
        index = 0
        for start in range(0, channels, block):
            count = min(block, channels - start)
            w_block = np.zeros((count, count, r, s), dtype=np.float32)
            for i in range(count):
                w_block[i, i] = weight[start + i, 0]
            b_block = None if bias is None else bias[start : start + count]
            in_view = self.channel_view(input_ref, start, count)
            out_view = self.channel_view(output_ref, start, count)
            self._emit_conv(
                f"{layer.name}_b{index}", in_view, out_view, w_block, b_block, stride, pad, relu
            )
            index += 1

    def _lower_fc(self, layer: InnerProduct) -> None:
        """FC as a convolution whose kernel spans the input cube."""
        params = self.net.params[layer.name]
        absorbed = self.plan.absorbed.get(layer.name, [])
        weight2d, bias, relu = fold_batchnorm_scale(
            self.net, params["weight"], params.get("bias"), absorbed
        )
        input_ref = self.ref_for(layer.bottoms[0])
        c, h, w = input_ref.shape
        weight = weight2d.reshape(layer.num_output, c, h, w)
        out_blob = fused_output_blob(layer, self.plan)
        output_ref = self.ref_for(out_blob)
        self._emit_conv(
            layer.name, input_ref, output_ref, weight, bias, (1, 1), (0, 0, 0, 0), relu
        )

    def _lower_pool(self, layer: Pooling) -> None:
        input_ref = self.ref_for(layer.bottoms[0])
        output_ref = self.ref_for(layer.tops[0])
        kernel_h, kernel_w = layer.effective_kernel(input_ref.shape)
        stride = 1 if layer.global_pooling else layer.stride
        pad = 0 if layer.global_pooling else layer.pad
        # Caffe computes ceil-mode output dims; PDP's geometry is exact,
        # so rebalance by growing the right/bottom pads to cover the
        # last (partial) window.
        _, h, w = input_ref.shape
        _, out_h, out_w = output_ref.shape
        pad_bottom = max(pad, (out_h - 1) * stride + kernel_h - h - pad)
        pad_right = max(pad, (out_w - 1) * stride + kernel_w - w - pad)
        self.schedule.ops.append(
            PoolOp(
                name=layer.name,
                input=input_ref,
                output=output_ref,
                mode="max" if layer.kind is PoolKind.MAX else "avg",
                kernel=(kernel_h, kernel_w),
                stride=(stride, stride),
                pad=(pad, pad_bottom, pad, pad_right),
                precision=self.precision,
            )
        )

    def _lower_eltwise(self, layer: Eltwise) -> None:
        out_blob = fused_output_blob(layer, self.plan)
        relu = bool(self.plan.absorbed.get(layer.name))
        a = self.ref_for(layer.bottoms[0])
        b = self.ref_for(layer.bottoms[1])
        if self._fuse_eltwise_into_conv(layer, a, b, out_blob, relu):
            return
        self.schedule.ops.append(
            SdpOp(
                name=layer.name,
                input=a,
                output=self.ref_for(out_blob),
                relu=relu,
                eltwise=_ELTWISE_KIND[layer.kind],
                eltwise_input=b,
                precision=self.precision,
            )
        )

    def _fuse_eltwise_into_conv(
        self,
        layer: Eltwise,
        a: TensorRef,
        b: TensorRef,
        out_blob: str,
        relu: bool,
    ) -> bool:
        """Residual-add fusion: ride the producing conv's SDP pass.

        The fused operand is read by ERDMA while the conv result flies
        in from CACC, like the NVDLA compiler schedules ResNet
        shortcuts.  For INT8 the operand is rescaled into the
        accumulator domain by the ERDMA converter (its scale equals the
        fused output scale, which scale resolution pinned to the
        eltwise group), and the output converter is recomputed for the
        fused output blob.
        """
        if not self.plan.absorb:
            return False
        if not self.schedule.ops or not isinstance(self.schedule.ops[-1], ConvOp):
            return False
        conv = self.schedule.ops[-1]
        if conv.relu or conv.eltwise is not None:
            return False
        if conv.output is a:
            operand = b
        elif conv.output is b:
            operand = a
        else:
            return False
        # The conv's raw output must feed only this eltwise.
        raw_blob = conv.output.blob
        consumers = [
            consumer
            for consumer in self.net.layers
            if any(self.plan.resolve_blob(bb) == raw_blob for bb in consumer.bottoms)
        ]
        if len(consumers) != 1:
            return False
        output = self.ref_for(out_blob)
        if self.precision is Precision.INT8:
            acc_scale = conv.input.scale * conv.weight_scale
            conv.cvt_mult, conv.cvt_shift = requant_constants(
                conv.input.scale, conv.weight_scale, output.scale
            )
            conv.ew_cvt_mult, conv.ew_cvt_shift = requant_constants(
                operand.scale, 1.0, acc_scale
            )
        conv.eltwise = _ELTWISE_KIND[layer.kind]
        conv.eltwise_input = operand
        conv.relu = relu
        conv.output = output
        return True

    def _lower_relu(self, layer: ReLU) -> None:
        self.schedule.ops.append(
            SdpOp(
                name=layer.name,
                input=self.ref_for(layer.bottoms[0]),
                output=self.ref_for(layer.tops[0]),
                relu=True,
                precision=self.precision,
            )
        )

    def _lower_lrn(self, layer: Lrn) -> None:
        input_ref = self.ref_for(layer.bottoms[0])
        alpha = layer.alpha
        if self.precision is Precision.INT8:
            # CDP computes on quantised values q = x / s: the sum-of-
            # squares term needs alpha scaled by s^2 to be equivalent.
            alpha = layer.alpha * (input_ref.scale**2)
        self.schedule.ops.append(
            LrnOp(
                name=layer.name,
                input=input_ref,
                output=self.ref_for(layer.tops[0]),
                local_size=layer.local_size,
                alpha=alpha,
                beta=layer.beta,
                k=layer.k,
                precision=self.precision,
            )
        )
