"""Fast-path NVDLA lowering: loadable → checked descriptors.

The cycle-accurate path reaches the functional unit kernels through
five indirections: generated RISC-V code, the ISS, the bus fabric,
CSB register decode, and the engine's shadow-group launch logic.  The
fast path removes all of them while keeping everything that reads the
register program identical: it replays each chain of the shared
register program (:func:`repro.nvdla.programming.build_chains`, the one
the VP runtime writes over the CSB) into fresh unit register files and
reads it back through the engine's own launch path — the same parse,
the same cross-unit checks (:func:`repro.nvdla.programming.lower_chain`)
and, at run time, the same kernel dispatch
(:func:`repro.nvdla.programming.execute_descriptors`).  Both tiers
therefore reject the same programs.  Nothing here is priced: the fast
tier's cycles are a recorded SoC run
(:class:`repro.core.fastpath.CycleProfile`), so the engine is the only
pricing source.

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
from repro.nvdla.layout import pack_feature
from repro.nvdla.programming import Descriptors, LayerChain, build_chains, lower_chain


@dataclass(frozen=True)
class FastPathOp:
    """One hardware layer: the checked descriptors its chain launches."""

    name: str
    descriptors: Descriptors


def _lower_chain(chain: LayerChain, config: HardwareConfig) -> FastPathOp:
    try:
        return FastPathOp(chain.op_name, lower_chain(chain, config))
    except NvdlaError as exc:
        raise ConfigurationError(f"fast path cannot lower {chain.op_name}: {exc}") from exc


def lower_loadable(loadable: Loadable, config: HardwareConfig) -> list[FastPathOp]:
    """Lower every hardware op of a loadable to checked descriptors.

    Raises :class:`~repro.errors.ConfigurationError` naming the layer
    when a unit parser rejects a programmed register value or the
    chain breaks a cross-unit rule — the programs the engine rejects.
    """
    if not config.supports(loadable.precision):
        raise ConfigurationError(
            f"{config.name} does not support {loadable.precision.value}"
        )
    return [_lower_chain(chain, config) for chain in build_chains(loadable, config)]


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
