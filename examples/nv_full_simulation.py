#!/usr/bin/env python3
"""Table III scenario: nv_full simulation across the full model zoo.

Reproduces the paper's §V nv_full evaluation: FP16 inference of all
six networks on the big configuration (2048 MACs, 512 KiB CBUF),
which "is an enormous design and does not fit on most FPGAs" — so,
exactly as in the paper, this is a simulation-only study, and the
FPGA feasibility check is expected to fail.

Usage::

    python examples/nv_full_simulation.py [model ...]
"""

from __future__ import annotations

import sys

from repro.baremetal import generate_baremetal
from repro.core.fastpath import record_profile
from repro.fpga import ZCU102, synthesize
from repro.harness.reporting import PAPER_TABLE3_CYCLES
from repro.nn.zoo import ZOO
from repro.nvdla import NV_FULL
from repro.nvdla.config import Precision


def main(models: list[str]) -> None:
    print(f"configuration: {NV_FULL.describe()}")
    synth = synthesize(NV_FULL, ZCU102)
    print(f"ZCU102 feasibility: {'fits' if synth.fits else 'DOES NOT FIT'} "
          f"(LUTs at {synth.utilization['luts'] * 100:.0f}%) — simulation only, as in the paper\n")

    header = f"{'model':<10} {'hw ops':>6} {'cycles':>13} {'paper':>12} {'ratio':>6} {'ms@100MHz':>10}"
    print(header)
    print("-" * len(header))
    for name in models:
        bundle = generate_baremetal(
            ZOO[name](), NV_FULL, precision=Precision.FP16, fidelity="timing"
        )
        profile = record_profile(bundle, NV_FULL, memory_bus_width_bits=64)
        cycles = profile.total_cycles
        paper = PAPER_TABLE3_CYCLES[name]
        print(
            f"{name:<10} {len(profile.op_records):>6} {cycles:>13,} "
            f"{paper:>12,} {cycles / paper:>6.2f} {profile.stats.seconds * 1e3:>10.1f}"
        )
    print("\nnote: FP16 rides the paired-MAC path (1024 FP16 MACs); depthwise and")
    print("low-channel layers waste the 64-wide channel atoms, which is why")
    print("MobileNet's 17 MB costs the same order as ResNet-50's 102.5 MB.")


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(PAPER_TABLE3_CYCLES)
    main(chosen)
