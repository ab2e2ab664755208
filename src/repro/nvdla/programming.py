"""NVDLA register programs: the one producer and the one reader.

The producer: :func:`program_op` turns one scheduled
:class:`~repro.compiler.ops.HwOp` into a :class:`LayerChain` — the
exact ordered sequence of shadow-group selects, descriptor-register
writes, and ``D_OP_ENABLE`` kicks the user-mode driver performs.  The
VP runtime (:mod:`repro.vp.runtime`) replays the events through the
CSB, so traces, and the golden bare-metal configs derived from them,
are byte-for-byte this sequence.

The reader: everything that turns a programmed register group into
something runnable goes through the second half of this module —

- :data:`LAUNCHES`, the producer table (sink → required producer
  units), picked from live registers by :func:`sink_launch` (the
  engine) or from a chain by :func:`chain_launch` (the fast tier and
  the analyzer, which first :func:`replay_chain` into fresh register
  files; :func:`lower_chain` does both and checks the result);
- :func:`parse_descriptors`, the units' own parsers per stage;
- :func:`chain_violations`, the cross-unit rules (:func:`lower_group`
  raises on the first, naming its code; the analyzer reports each);
- :func:`execute_descriptors`, the one dispatch onto the unit kernels
  (:func:`repro.nvdla.timing.op_timing` is its pricing twin).

So the cycle-accurate engine, the fast tier and the static analyzer
accept and reject exactly the same programs.

Event order is load-bearing: the golden-config regression fixtures pin
the byte-exact CSB sequence, so any reordering here is a deliberate,
fixture-updating change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError, NvdlaError, RegisterError
from repro.nvdla.cbuf import Cbuf
from repro.nvdla.config import HardwareConfig, Precision
from repro.nvdla.descriptors import SdpSource, f32_to_bits
from repro.nvdla.layout import feature_strides
from repro.nvdla.mcif import Mcif
from repro.nvdla.registers import D_OP_ENABLE, S_POINTER
from repro.nvdla.units import Unit, conv_pipeline, fresh_units
from repro.nvdla.units import bdma as bdma_mod
from repro.nvdla.units import cdp as cdp_mod
from repro.nvdla.units import pdp as pdp_mod
from repro.nvdla.units import rubik as rubik_mod
from repro.nvdla.units import sdp as sdp_mod

if TYPE_CHECKING:  # the compiler imports repro.nvdla, not the reverse
    from repro.compiler.loadable import Loadable
    from repro.compiler.ops import ConvOp, HwOp, LrnOp, PoolOp, SdpOp, TensorRef

ELTWISE_CODE = {"add": 1, "mul": 2, "max": 3}  # by EltwiseOpKind value
POOL_CODE = {"max": 0, "avg": 1}

#: One launch's typed descriptors, keyed by stage (see :data:`LAUNCHES`).
Descriptors = dict[str, Any]

SELECT = "select"
WRITE = "write"
ENABLE = "enable"


@dataclass(frozen=True)
class ChainEvent:
    """One CSB-visible step of programming a hardware layer.

    ``kind`` is one of :data:`SELECT` (write ``S_POINTER`` = ``value``),
    :data:`WRITE` (write descriptor register ``register`` = ``value``)
    or :data:`ENABLE` (write ``D_OP_ENABLE`` = 1).  ``register`` is
    empty for selects and enables.
    """

    kind: str
    unit: str
    register: str = ""
    value: int = 0


@dataclass
class LayerChain:
    """The full descriptor chain for one scheduled hardware op."""

    op_index: int
    op_name: str
    op_kind: str
    group: int
    sink: str
    events: list[ChainEvent] = field(default_factory=list)

    def writes(self) -> list[ChainEvent]:
        return [e for e in self.events if e.kind == WRITE]


class _ChainBuilder:
    """Accumulates events in exactly the runtime's historical order."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        self.events: list[ChainEvent] = []

    def select(self, unit: str, group: int) -> None:
        self.events.append(ChainEvent(SELECT, unit, value=group))

    def write(self, unit: str, register: str, value: int) -> None:
        self.events.append(ChainEvent(WRITE, unit, register, value & 0xFFFFFFFF))

    def enable(self, unit: str) -> None:
        self.events.append(ChainEvent(ENABLE, unit, value=1))

    def write_tensor(self, unit: str, prefix: str, ref: TensorRef) -> None:
        atom = self.config.atom_channels(ref.precision)
        c, h, w = ref.shape
        line, surf = feature_strides((c, h, w), atom, ref.precision)
        address = ref.require_address()
        self.write(unit, f"{prefix}_ADDR_HIGH", address >> 32)
        self.write(unit, f"{prefix}_ADDR_LOW", address & 0xFFFFFFFF)
        self.write(unit, f"{prefix}_WIDTH", w)
        self.write(unit, f"{prefix}_HEIGHT", h)
        self.write(unit, f"{prefix}_CHANNEL", c)
        self.write(unit, f"{prefix}_LINE_STRIDE", line)
        self.write(unit, f"{prefix}_SURF_STRIDE", surf)

    def write_flying_tensor(
        self, unit: str, prefix: str, shape: tuple[int, int, int], precision: Precision
    ) -> None:
        """Cube geometry for an on-chip link: null address, real dims.

        The strides stay canonical for the shape so the layout pass can
        validate fused stages exactly like memory surfaces.
        """
        atom = self.config.atom_channels(precision)
        c, h, w = shape
        line, surf = feature_strides((c, h, w), atom, precision)
        self.write(unit, f"{prefix}_ADDR_HIGH", 0)
        self.write(unit, f"{prefix}_ADDR_LOW", 0)
        self.write(unit, f"{prefix}_WIDTH", w)
        self.write(unit, f"{prefix}_HEIGHT", h)
        self.write(unit, f"{prefix}_CHANNEL", c)
        self.write(unit, f"{prefix}_LINE_STRIDE", line)
        self.write(unit, f"{prefix}_SURF_STRIDE", surf)


def _precision_code(precision: Precision) -> int:
    return 0 if precision is Precision.INT8 else 1


def _sdp_stage(b: _ChainBuilder, op: ConvOp | SdpOp, bias: bool) -> None:
    """Common SDP core registers (fused conv or standalone).

    With a fused pooling epilogue the SDP destination is the on-chip
    link to PDP: the cube geometry is the *conv* output shape and the
    address is null.  ``D_DST_FLYING`` is written unconditionally
    because shadow groups are reused across chains — a stale flying
    flag from a previous layer must never leak into this one.
    """
    out = op.output
    is_conv = op.kind == "conv"
    flying = is_conv and op.has_pool_epilogue
    out_shape = op.sdp_out_shape if is_conv else out.shape
    b.write("SDP", "D_MISC_CFG", _precision_code(op.precision))
    b.write("SDP", "D_DATA_CUBE_WIDTH", out_shape[2])
    b.write("SDP", "D_DATA_CUBE_HEIGHT", out_shape[1])
    b.write("SDP", "D_DATA_CUBE_CHANNEL", out_shape[0])
    if flying:
        b.write_flying_tensor("SDP", "D_DST", out_shape, out.precision)
    else:
        b.write_tensor("SDP", "D_DST", out)
    b.write("SDP", "D_DP_BS_CFG", 1 if bias else 0)
    b.write("SDP", "D_DP_BN_CFG", 0)
    eltwise = getattr(op, "eltwise", None)
    b.write("SDP", "D_DP_EW_CFG", 0 if eltwise is None else ELTWISE_CODE[eltwise.value])
    b.write("SDP", "D_EW_CVT_MULT", getattr(op, "ew_cvt_mult", 1))
    b.write("SDP", "D_EW_CVT_SHIFT", getattr(op, "ew_cvt_shift", 0))
    b.write("SDP", "D_ACT_CFG", 1 if op.relu else 0)
    b.write("SDP", "D_CVT_MULT", op.cvt_mult)
    b.write("SDP", "D_CVT_SHIFT", op.cvt_shift)
    b.write("SDP", "D_OUT_PRECISION", _precision_code(out.precision))
    b.write("SDP", "D_DST_FLYING", 1 if flying else 0)


def _program_conv(b: _ChainBuilder, op: ConvOp, group: int, weight_base: int) -> str:
    prec = _precision_code(op.precision)
    k, c, r, s = op.kernel_shape
    _, out_h, out_w = op.sdp_out_shape
    weight_address = weight_base + (op.weight_offset or 0)
    pad_top, pad_bottom, pad_left, pad_right = op.pad
    conv_units = ("CACC", "CMAC_A", "CMAC_B", "CSC", "CDMA", "SDP_RDMA", "SDP")
    if op.has_pool_epilogue:
        conv_units += ("PDP_RDMA", "PDP")
    for unit in conv_units:
        b.select(unit, group)

    b.write("CDMA", "D_MISC_CFG", prec)
    b.write_tensor("CDMA", "D_DAIN", op.input)
    b.write("CDMA", "D_WEIGHT_ADDR_HIGH", weight_address >> 32)
    b.write("CDMA", "D_WEIGHT_ADDR_LOW", weight_address & 0xFFFFFFFF)
    b.write("CDMA", "D_WEIGHT_BYTES", op.weight_bytes or 0)
    b.write("CDMA", "D_CONV_STRIDE_X", op.stride[1])
    b.write("CDMA", "D_CONV_STRIDE_Y", op.stride[0])
    b.write("CDMA", "D_ZERO_PADDING_LEFT", pad_left)
    b.write("CDMA", "D_ZERO_PADDING_RIGHT", pad_right)
    b.write("CDMA", "D_ZERO_PADDING_TOP", pad_top)
    b.write("CDMA", "D_ZERO_PADDING_BOTTOM", pad_bottom)
    banks = Cbuf(b.config).default_split(op.weight_bytes or 0)
    b.write("CDMA", "D_BANK_DATA", banks.data_banks)
    b.write("CDMA", "D_BANK_WEIGHT", banks.weight_banks)

    b.write("CSC", "D_MISC_CFG", prec)
    b.write("CSC", "D_WEIGHT_SIZE_K", k)
    b.write("CSC", "D_WEIGHT_SIZE_C", c)
    b.write("CSC", "D_WEIGHT_SIZE_R", r)
    b.write("CSC", "D_WEIGHT_SIZE_S", s)
    b.write("CSC", "D_DATAOUT_WIDTH", out_w)
    b.write("CSC", "D_DATAOUT_HEIGHT", out_h)

    b.write("CMAC_A", "D_MISC_CFG", prec)
    b.write("CMAC_B", "D_MISC_CFG", prec)

    b.write("CACC", "D_MISC_CFG", prec)
    b.write("CACC", "D_DATAOUT_WIDTH", out_w)
    b.write("CACC", "D_DATAOUT_HEIGHT", out_h)
    b.write("CACC", "D_DATAOUT_CHANNEL", k)

    b.write("SDP_RDMA", "D_FEATURE_MODE_CFG", 0)  # flying from CACC
    if op.bias_offset is not None:
        bias_address = weight_base + op.bias_offset
        b.write("SDP_RDMA", "D_BRDMA_CFG", 1)
        b.write("SDP_RDMA", "D_BS_BASE_ADDR_HIGH", bias_address >> 32)
        b.write("SDP_RDMA", "D_BS_BASE_ADDR_LOW", bias_address & 0xFFFFFFFF)
    else:
        b.write("SDP_RDMA", "D_BRDMA_CFG", 0)
    b.write("SDP_RDMA", "D_NRDMA_CFG", 0)
    if op.eltwise_input is not None:  # fused residual add (FP16)
        b.write("SDP_RDMA", "D_ERDMA_CFG", 1)
        b.write_tensor("SDP_RDMA", "D_EW", op.eltwise_input)
    else:
        b.write("SDP_RDMA", "D_ERDMA_CFG", 0)

    _sdp_stage(b, op, bias=op.bias_offset is not None)

    if op.has_pool_epilogue:
        # Fused PDP epilogue: the pool streams the SDP result on-chip.
        # PDP_RDMA carries only the source cube geometry (null address)
        # and, like SDP_RDMA in flying mode, is never enabled.
        b.write_flying_tensor("PDP_RDMA", "D_SRC", op.sdp_out_shape, op.output.precision)
        b.write("PDP", "D_MISC_CFG", _precision_code(op.precision))
        b.write("PDP", "D_SRC_FLYING", 1)
        b.write("PDP", "D_POOLING_METHOD", POOL_CODE[op.pool_mode])
        b.write("PDP", "D_POOLING_KERNEL_WIDTH", op.pool_kernel[1])
        b.write("PDP", "D_POOLING_KERNEL_HEIGHT", op.pool_kernel[0])
        b.write("PDP", "D_POOLING_STRIDE_X", op.pool_stride[1])
        b.write("PDP", "D_POOLING_STRIDE_Y", op.pool_stride[0])
        pool_pad_top, pool_pad_bottom, pool_pad_left, pool_pad_right = op.pool_pad
        b.write("PDP", "D_POOLING_PAD_LEFT", pool_pad_left)
        b.write("PDP", "D_POOLING_PAD_RIGHT", pool_pad_right)
        b.write("PDP", "D_POOLING_PAD_TOP", pool_pad_top)
        b.write("PDP", "D_POOLING_PAD_BOTTOM", pool_pad_bottom)
        b.write_tensor("PDP", "D_DST", op.output)

    # SDP_RDMA only carries the BRDMA configuration here; in flying
    # mode its DMA block is not part of the launched group, so it is
    # not enabled (enabling it would leave a group pending forever).
    for unit in ("CACC", "CMAC_A", "CMAC_B", "CSC", "CDMA"):
        b.enable(unit)
    b.enable("SDP")
    if op.has_pool_epilogue:
        b.enable("PDP")
        return "PDP"
    return "SDP"


def _program_sdp(b: _ChainBuilder, op: SdpOp, group: int) -> str:
    for unit in ("SDP_RDMA", "SDP"):
        b.select(unit, group)
    b.write("SDP_RDMA", "D_FEATURE_MODE_CFG", 1)  # memory source
    b.write_tensor("SDP_RDMA", "D_SRC", op.input)
    b.write("SDP_RDMA", "D_BRDMA_CFG", 0)
    b.write("SDP_RDMA", "D_NRDMA_CFG", 0)
    if op.eltwise_input is not None:
        b.write("SDP_RDMA", "D_ERDMA_CFG", 1)
        b.write_tensor("SDP_RDMA", "D_EW", op.eltwise_input)
    else:
        b.write("SDP_RDMA", "D_ERDMA_CFG", 0)
    _sdp_stage(b, op, bias=False)
    b.enable("SDP_RDMA")
    b.enable("SDP")
    return "SDP"


def _program_pool(b: _ChainBuilder, op: PoolOp, group: int) -> str:
    for unit in ("PDP_RDMA", "PDP"):
        b.select(unit, group)
    b.write_tensor("PDP_RDMA", "D_SRC", op.input)
    b.write("PDP", "D_MISC_CFG", _precision_code(op.precision))
    b.write("PDP", "D_SRC_FLYING", 0)
    b.write("PDP", "D_POOLING_METHOD", POOL_CODE[op.mode])
    b.write("PDP", "D_POOLING_KERNEL_WIDTH", op.kernel[1])
    b.write("PDP", "D_POOLING_KERNEL_HEIGHT", op.kernel[0])
    b.write("PDP", "D_POOLING_STRIDE_X", op.stride[1])
    b.write("PDP", "D_POOLING_STRIDE_Y", op.stride[0])
    pad_top, pad_bottom, pad_left, pad_right = op.pad
    b.write("PDP", "D_POOLING_PAD_LEFT", pad_left)
    b.write("PDP", "D_POOLING_PAD_RIGHT", pad_right)
    b.write("PDP", "D_POOLING_PAD_TOP", pad_top)
    b.write("PDP", "D_POOLING_PAD_BOTTOM", pad_bottom)
    b.write_tensor("PDP", "D_DST", op.output)
    b.enable("PDP_RDMA")
    b.enable("PDP")
    return "PDP"


def _program_lrn(b: _ChainBuilder, op: LrnOp, group: int) -> str:
    for unit in ("CDP_RDMA", "CDP"):
        b.select(unit, group)
    b.write_tensor("CDP_RDMA", "D_SRC", op.input)
    b.write("CDP", "D_MISC_CFG", _precision_code(op.precision))
    b.write("CDP", "D_LRN_LOCAL_SIZE", op.local_size)
    b.write("CDP", "D_LRN_ALPHA", f32_to_bits(op.alpha))
    b.write("CDP", "D_LRN_BETA", f32_to_bits(op.beta))
    b.write("CDP", "D_LRN_K", f32_to_bits(op.k))
    b.write_tensor("CDP", "D_DST", op.output)
    b.enable("CDP_RDMA")
    b.enable("CDP")
    return "CDP"


def program_op(
    op: HwOp,
    config: HardwareConfig,
    weight_base: int,
    group: int,
    op_index: int = 0,
) -> LayerChain:
    """Build the descriptor chain for one hardware op.

    Raises :class:`~repro.errors.ConfigurationError` for op kinds the
    driver cannot program (host-side ops never reach here).
    """
    b = _ChainBuilder(config)
    if op.kind == "conv":
        sink = _program_conv(b, op, group, weight_base)
    elif op.kind == "sdp":
        sink = _program_sdp(b, op, group)
    elif op.kind == "pool":
        sink = _program_pool(b, op, group)
    elif op.kind == "lrn":
        sink = _program_lrn(b, op, group)
    else:
        raise ConfigurationError(f"cannot program op kind {op.kind!r}")
    return LayerChain(
        op_index=op_index,
        op_name=op.name,
        op_kind=op.kind,
        group=group,
        sink=sink,
        events=b.events,
    )


def build_chains(
    loadable: Loadable,
    config: HardwareConfig,
    first_group: int = 0,
) -> list[LayerChain]:
    """Descriptor chains for every hardware op of a loadable, in
    schedule order, alternating ping-pong groups like the runtime."""
    chains: list[LayerChain] = []
    group = first_group
    for index, op in enumerate(loadable.schedule.ops):
        if op.kind == "cpusoftmax":  # runs on the host core
            continue
        chains.append(program_op(op, config, loadable.weight_base, group, op_index=index))
        group ^= 1
    return chains


def replay_chain(
    chain: LayerChain, units: dict[str, Unit]
) -> list[tuple[ChainEvent, NvdlaError]]:
    """Apply a chain's events to unit register files, as the CSB would.

    Replay carries on past a rejected event and returns every
    ``(event, error)`` pair, so a checker can report them all.
    """
    failures: list[tuple[ChainEvent, NvdlaError]] = []
    for event in chain.events:
        unit = units.get(event.unit)
        try:
            if unit is None:
                raise RegisterError(f"no such unit {event.unit!r}")
            if event.kind == SELECT:
                unit.csb_write(S_POINTER, event.value)
            elif event.kind == ENABLE:
                unit.csb_write(D_OP_ENABLE, 1)
            else:
                unit.csb_write(unit.offset_of(event.register), event.value)
        except NvdlaError as exc:
            failures.append((event, exc))
    return failures


# ----------------------------------------------------------------------
# The consumer side: one programmed register group → checked
# descriptors → kernels.  The engine, the fast tier and the analyzer
# all read register programs through the functions below.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Launch:
    """What one sink launches once its group is enabled.

    ``kind`` names the op (and its :class:`~repro.nvdla.engine.OpRecord`),
    ``stages`` the descriptors :func:`parse_descriptors` reads, and
    ``producers`` the units beside the sink that must have the same
    group pending.
    """

    kind: str
    stages: tuple[str, ...]
    producers: tuple[str, ...]


#: The producer table, keyed by (sink, whether the sink's input streams
#: on-chip): an SDP fed by CACC is a fused convolution, a PDP fed by
#: SDP a fused conv → SDP → PDP chain; every other sink reads memory
#: through its own read DMA (BDMA and RUBIK need none).
LAUNCHES: dict[tuple[str, bool], Launch] = {
    ("SDP", True): Launch("conv", ("conv", "sdp"), conv_pipeline.CONV_UNIT_NAMES),
    ("SDP", False): Launch("sdp", ("sdp",), ("SDP_RDMA",)),
    ("PDP", True): Launch(
        "conv", ("conv", "sdp", "pdp"), (*conv_pipeline.CONV_UNIT_NAMES, "SDP")
    ),
    ("PDP", False): Launch("pdp", ("pdp",), ("PDP_RDMA",)),
    ("CDP", False): Launch("cdp", ("cdp",), ("CDP_RDMA",)),
    ("BDMA", False): Launch("bdma", ("bdma",), ()),
    ("RUBIK", False): Launch("rubik", ("rubik",), ()),
}

_STAGE_MODULES = {
    "conv": conv_pipeline,
    "sdp": sdp_mod,
    "pdp": pdp_mod,
    "cdp": cdp_mod,
    "bdma": bdma_mod,
    "rubik": rubik_mod,
}


def sink_launch(units: dict[str, Unit], sink: str, group: int) -> Launch | None:
    """The launch ``sink``'s ``group`` registers select.

    ``None`` for an SDP whose result streams on to PDP: that chain
    launches from the PDP sink.
    """
    if sink == "SDP":
        if units["SDP"].reg("D_DST_FLYING", group) & 1:
            return None
        on_chip = not units["SDP_RDMA"].reg("D_FEATURE_MODE_CFG", group) & 1
    else:
        on_chip = sink == "PDP" and bool(units["PDP"].reg("D_SRC_FLYING", group) & 1)
    return LAUNCHES[sink, on_chip]


def chain_launch(chain: LayerChain) -> Launch:
    """The launch a chain programs: only a convolution feeds its sink on-chip."""
    return LAUNCHES[chain.sink, chain.op_kind == "conv"]


def parse_descriptors(
    units: dict[str, Unit], launch: Launch, group: int, config: HardwareConfig
) -> Descriptors:
    """The typed descriptors of ``launch``'s stages in ``group``.

    Keys name the stages (``conv``, ``sdp``, ``pdp``, ``cdp``, ``bdma``,
    ``rubik``).  A register value a unit parser rejects raises
    :class:`~repro.errors.NvdlaError`.
    """
    return {
        stage: _STAGE_MODULES[stage].parse(units, group, config) for stage in launch.stages
    }


@dataclass(frozen=True)
class ChainViolation:
    """A cross-unit rule a set of descriptors breaks."""

    code: str
    unit: str
    message: str


def chain_violations(descriptors: Descriptors) -> list[ChainViolation]:
    """The cross-unit rules no unit parser can check on its own.

    The two ends of the SDP → PDP on-chip link must both be programmed,
    a fused SDP → PDP stage must be fed by the convolution, and the
    cubes handed along the pipeline must agree: conv output H×W = SDP
    cube, SDP output cube = PDP source cube.
    """
    conv, sdp, pdp = (descriptors.get(stage) for stage in ("conv", "sdp", "pdp"))
    sdp_streams = sdp is not None and sdp.dst_flying
    pdp_streams = pdp is not None and pdp.src_flying
    found: list[ChainViolation] = []
    if pdp_streams and not sdp_streams:
        found.append(ChainViolation(
            "flying-source-without-producer", "PDP",
            "PDP sources on-chip (D_SRC_FLYING) but no SDP streams its result into it",
        ))
    if sdp_streams and not pdp_streams:
        found.append(ChainViolation(
            "dangling-flying-producer", "SDP",
            "SDP streams its result on-chip (D_DST_FLYING) but no PDP reads "
            "on-chip: the SDP output has no consumer",
        ))
    if sdp_streams and sdp.source is not SdpSource.FLYING:
        found.append(ChainViolation(
            "fused-source-not-conv", "SDP",
            "fused SDP→PDP chains require a convolution-sourced SDP stage",
        ))
    if conv is not None and (conv.out_width, conv.out_height) != (
        sdp.output.width, sdp.output.height
    ):
        found.append(ChainViolation(
            "conv-sdp-cube-mismatch", "SDP",
            f"SDP output cube {sdp.output.width}x{sdp.output.height} does not "
            f"match convolution output dims {conv.out_width}x{conv.out_height}",
        ))
    if sdp_streams and pdp_streams and sdp.output.shape != pdp.input.shape:
        found.append(ChainViolation(
            "sdp-pdp-cube-mismatch", "PDP_RDMA",
            f"PDP source cube {pdp.input.shape} does not match the SDP output "
            f"cube {sdp.output.shape}",
        ))
    return found


def lower_group(
    units: dict[str, Unit], launch: Launch, group: int, config: HardwareConfig
) -> Descriptors:
    """Parse ``launch``'s descriptors and check them, or raise.

    Raises :class:`~repro.errors.ConfigurationError` for the first
    broken cross-unit rule (a unit parser's own rejection propagates).
    """
    descriptors = parse_descriptors(units, launch, group, config)
    violations = chain_violations(descriptors)
    if violations:
        raise ConfigurationError(f"{violations[0].code}: {violations[0].message}")
    return descriptors


def lower_chain(chain: LayerChain, config: HardwareConfig) -> Descriptors:
    """Replay one chain into fresh register files and read it back
    through :func:`lower_group`.

    Raises :class:`~repro.errors.NvdlaError`: the first write a unit
    rejected, a unit parser's veto, or the first broken cross-unit rule.
    """
    units = fresh_units()
    failures = replay_chain(chain, units)
    if failures:
        raise failures[0][1]
    return lower_group(units, chain_launch(chain), chain.group, config)


def execute_descriptors(
    descriptors: Descriptors,
    config: HardwareConfig,
    mcif: Mcif,
    weight_cache: dict | None = None,
) -> None:
    """Run one launch's descriptors through the unit kernels (moves real bytes)."""
    if "conv" in descriptors:
        acc = conv_pipeline.execute(
            descriptors["conv"], config, mcif, weight_cache=weight_cache
        )
        result = sdp_mod.execute(descriptors["sdp"], config, mcif, flying_input=acc)
        if "pdp" in descriptors:
            pdp_mod.execute(descriptors["pdp"], config, mcif, flying_input=result)
        return
    [(stage, descriptor)] = descriptors.items()
    _STAGE_MODULES[stage].execute(descriptor, config, mcif)
