"""Register-accurate functional + timing model of NVDLA.

The model exposes exactly the two interfaces the paper's SoC uses:

- **CSB** — the configuration space bus: 32-bit register reads/writes
  decoded to per-unit register files with ping-pong (dual-group)
  shadows, kick-off via ``D_OP_ENABLE`` and completion interrupts in
  the GLB unit (:mod:`repro.nvdla.csb`, :mod:`repro.nvdla.registers`),
- **DBB** — the data backbone: bulk memory traffic for weights,
  feature maps and intermediate tensors (:mod:`repro.nvdla.mcif`).

Two hardware configurations ship, matching the paper: ``nv_small``
(8×8 INT8 atomics, 32 KiB CBUF) and ``nv_full`` (64×32 atomics, INT8 +
FP16, 512 KiB CBUF); :mod:`repro.nvdla.config` can also express custom
points for design-space exploration.

Functional execution computes real tensors (NumPy); timing is an
analytic per-op cycle model (:mod:`repro.nvdla.timing`) calibrated
against the paper's Tables II/III regimes.
"""

from repro.nvdla.config import HardwareConfig, NV_FULL, NV_SMALL, Precision
from repro.nvdla.engine import NvdlaEngine, OpRecord
from repro.nvdla.fastpath import FastPathOp, lower_loadable, pack_input
from repro.nvdla.registers import RegisterBlock, RegisterSpec
from repro.nvdla.timing import TimingParams

__all__ = [
    "FastPathOp",
    "HardwareConfig",
    "NV_FULL",
    "NV_SMALL",
    "NvdlaEngine",
    "OpRecord",
    "Precision",
    "RegisterBlock",
    "RegisterSpec",
    "TimingParams",
    "lower_loadable",
    "pack_input",
]
