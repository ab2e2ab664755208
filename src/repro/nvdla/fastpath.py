"""Fast-path NVDLA execution: loadable → descriptors → kernels.

The cycle-accurate path reaches the functional unit kernels through
five indirections: generated RISC-V code, the ISS, the bus fabric,
CSB register decode, and the engine's shadow-group launch logic.  The
fast path removes all of them while keeping the *leaf* code identical:
it replays each chain of the shared register program
(:func:`repro.nvdla.programming.build_chains`, the one the VP runtime
writes over the CSB) into fresh unit register files, parses the same
:mod:`repro.nvdla.descriptors` out of them with the units' own parsers,
and executes those through the same unit kernels
(:mod:`repro.nvdla.units`).  Nothing here is priced: the fast tier's
cycles are a recorded SoC run (:class:`repro.core.fastpath.CycleProfile`),
so the engine is the only pricing source.

Because the descriptors are read back from the very register writes a
cycle-accurate run performs, the tensors a fast-path run writes to
memory are bit-identical to a cycle-accurate SoC run of the same
bundle — the property ``tests/nvdla/test_fastpath_differential.py``
gates on every zoo model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.loadable import Loadable
from repro.errors import ConfigurationError, NvdlaError
from repro.nvdla.config import HardwareConfig, Precision
from repro.nvdla.descriptors import (
    CdpDescriptor,
    ConvDescriptor,
    PdpDescriptor,
    SdpDescriptor,
)
from repro.nvdla.layout import pack_feature
from repro.nvdla.mcif import Mcif
from repro.nvdla.programming import (
    LayerChain,
    build_chains,
    parse_descriptors,
    replay_chain,
)
from repro.nvdla.units import cdp as cdp_mod
from repro.nvdla.units import conv_pipeline, fresh_units
from repro.nvdla.units import pdp as pdp_mod
from repro.nvdla.units import sdp as sdp_mod


@dataclass(frozen=True)
class FastPathOp:
    """One hardware layer, lowered to engine descriptors."""

    name: str
    kind: str  # 'conv' | 'sdp' | 'pdp' | 'cdp'
    sink: str  # 'SDP' | 'PDP' | 'CDP'
    group: int  # ping-pong register group the chain programs
    descriptor: SdpDescriptor | PdpDescriptor | CdpDescriptor
    conv: ConvDescriptor | None = None  # the producer half of a fused conv
    pool: PdpDescriptor | None = None  # fused PDP epilogue (streams from SDP)


def _lower_chain(chain: LayerChain, config: HardwareConfig) -> FastPathOp:
    """Replay one chain into fresh register files and parse it back."""
    units = fresh_units()
    failures = replay_chain(chain, units)
    try:
        if failures:
            raise failures[0][1]  # the first write a unit rejected
        descriptors = parse_descriptors(units, chain.op_kind, chain.group, config)
    except NvdlaError as exc:
        raise ConfigurationError(f"fast path cannot lower {chain.op_name}: {exc}") from exc
    if "conv" in descriptors:
        return FastPathOp(
            chain.op_name,
            "conv",
            chain.sink,
            chain.group,
            descriptors["sdp"],
            conv=descriptors["conv"],
            pool=descriptors.get("pdp"),
        )
    [(kind, descriptor)] = descriptors.items()
    return FastPathOp(chain.op_name, kind, chain.sink, chain.group, descriptor)


def lower_loadable(loadable: Loadable, config: HardwareConfig) -> list[FastPathOp]:
    """Lower every hardware op of a loadable to engine descriptors.

    Raises :class:`~repro.errors.ConfigurationError` when a unit parser
    rejects a programmed register value.
    """
    if not config.supports(loadable.precision):
        raise ConfigurationError(
            f"{config.name} does not support {loadable.precision.value}"
        )
    return [_lower_chain(chain, config) for chain in build_chains(loadable, config)]


def execute_op(
    op: FastPathOp,
    config: HardwareConfig,
    mcif: Mcif,
    weight_cache: dict | None = None,
) -> None:
    """Run one lowered op through the unit kernels (moves real bytes)."""
    if op.conv is not None:
        acc = conv_pipeline.execute(op.conv, config, mcif, weight_cache=weight_cache)
        result = sdp_mod.execute(op.descriptor, config, mcif, flying_input=acc)
        if op.pool is not None:
            pdp_mod.execute(op.pool, config, mcif, flying_input=result)
    elif op.kind == "sdp":
        sdp_mod.execute(op.descriptor, config, mcif)
    elif op.kind == "pdp":
        pdp_mod.execute(op.descriptor, config, mcif)
    elif op.kind == "cdp":
        cdp_mod.execute(op.descriptor, config, mcif)
    else:  # pragma: no cover - lower_loadable only emits the four kinds
        raise ConfigurationError(f"unknown fast-path op kind {op.kind!r}")


def pack_input(
    loadable: Loadable, config: HardwareConfig, image: np.ndarray
) -> tuple[int, bytes]:
    """Quantise/cast and pack a fresh input exactly like the VP runtime.

    Returns ``(address, packed_bytes)`` ready to overwrite the input
    region; shared by the fast path and the serve-layer SoC workers so
    every execution tier feeds the hardware identical bytes.
    """
    ref = loadable.input_tensor
    if tuple(image.shape) != tuple(ref.shape):
        raise ConfigurationError(
            f"input shape {image.shape} != network input {ref.shape}"
        )
    if ref.precision is Precision.INT8:
        q = np.clip(np.rint(image / ref.scale), -128, 127).astype(np.int8)
    else:
        q = image.astype(np.float16)
    atom = config.atom_channels(ref.precision)
    return ref.require_address(), pack_feature(q, atom, ref.precision)
