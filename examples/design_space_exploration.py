#!/usr/bin/env python3
"""Design-space exploration: custom NVDLA builds between small and full.

The paper ships the two official configurations; the interesting
engineering question its conclusion raises is *what lies between* —
how MAC count, CBUF capacity and memory-path width trade latency
against FPGA resources.  This sweep evaluates custom builds on
ResNet-18 and checks which ones still fit the ZCU102.

Usage::

    python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro.baremetal import generate_baremetal
from repro.core.fastpath import record_profile
from repro.fpga import ZCU102, synthesize
from repro.fpga.resources import estimate_system
from repro.nn.zoo import resnet18_cifar
from repro.nvdla.config import HardwareConfig, Precision


def make_config(atomic_c: int, atomic_k: int, cbuf_kib: int) -> HardwareConfig:
    return HardwareConfig(
        name=f"nv_{atomic_c}x{atomic_k}_{cbuf_kib}k",
        atomic_c=atomic_c,
        atomic_k=atomic_k,
        cbuf_banks=32,
        cbuf_bank_bytes=cbuf_kib * 1024 // 32,
        precisions=(Precision.INT8,),
        dbb_width_bits=64,
        memory_atom_bytes=8,
        sdp_throughput=max(1, atomic_k // 8),
        pdp_throughput=max(1, atomic_k // 8),
        cdp_throughput=max(1, atomic_k // 8),
        rubik_supported=False,
    )


def main() -> None:
    net = resnet18_cifar()
    print(f"design-space sweep on {net.name} (INT8, 100 MHz)\n")
    header = f"{'config':<16} {'MACs':>5} {'CBUF':>6} {'ms':>8} {'LUTs':>9} {'fits ZCU102':>12}"
    print(header)
    print("-" * len(header))

    points = [
        (8, 8, 32),     # nv_small
        (16, 8, 64),
        (16, 16, 64),
        (32, 16, 128),
        (32, 32, 256),
        (64, 32, 512),  # nv_full-like (INT8 only)
    ]
    results = []
    for atomic_c, atomic_k, cbuf_kib in points:
        config = make_config(atomic_c, atomic_k, cbuf_kib)
        bundle = generate_baremetal(net, config, fidelity="timing")
        ms = record_profile(bundle, config).stats.seconds * 1e3
        synth = synthesize(config, ZCU102)
        luts = estimate_system(config).luts
        results.append((config, ms, synth.fits))
        print(
            f"{config.name:<16} {config.mac_cells:>5} {cbuf_kib:>5}K "
            f"{ms:>8.2f} {luts:>9.0f} {'yes' if synth.fits else 'NO':>12}"
        )

    fitting = [r for r in results if r[2]]
    best = min(fitting, key=lambda r: r[1])
    print(
        f"\nfastest configuration that fits the ZCU102: {best[0].name} "
        f"at {best[1]:.2f} ms ({best[0].mac_cells} MACs)"
    )
    print("larger arrays stop paying off once DMA dominates — the same")
    print("bandwidth wall the paper hits when proposing the 512-bit AXI path.")


if __name__ == "__main__":
    main()
