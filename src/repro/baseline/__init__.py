"""Baselines the paper compares against.

The Table II comparison column is Giri et al. [8] — "Ariane + NVDLA:
seamless third-party IP integration with ESP" — a 64-bit RISC-V SoC
running NVDLA at 50 MHz under a Linux kernel driver stack.  The paper
credits its speedup to removing exactly that stack, so the baseline
model here keeps the *same accelerator timing model* and adds the
software overheads a kernel-mediated flow pays:

- one-time runtime initialisation (device open, loadable parse, DMA
  buffer allocation and input copy),
- per-hardware-layer submission (ioctl into the KMD, descriptor
  validation, MMIO programming at kernel latency),
- per-completion interrupt delivery (top half → bottom half → user
  wakeup),
- output copy back to user space.

Constants are calibrated against the two published ESP data points
(LeNet-5 263 ms, ResNet-50 2.5 s at 50 MHz) and documented beside
their values in :class:`~repro.baseline.linux_driver.LinuxOverheadParams`.
"""

from repro.baseline.linux_driver import LinuxDriverModel, LinuxOverheadParams, LinuxRunResult
from repro.baseline.esp_platform import EspPlatform, run_esp_baseline

__all__ = [
    "EspPlatform",
    "LinuxDriverModel",
    "LinuxOverheadParams",
    "LinuxRunResult",
    "run_esp_baseline",
]
