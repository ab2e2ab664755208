"""INT8 calibration and quantisation.

The paper names the missing INT8 calibration tables as the main
limitation of its nv_small flow and lists generating them as future
work item 1.  This module implements that item: a max-abs calibration
pass over the float reference executor produces per-blob scales, and
per-layer weight quantisation derives the integer requantisation
constants (multiplier + right-shift) the SDP output converter needs.

Scale convention: ``real_value = scale * int8_value``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.nn.graph import Network
from repro.nn.reference import ReferenceExecutor


@dataclass
class CalibrationTable:
    """Per-blob activation scales (``real = scale * q``)."""

    network: str
    scales: dict[str, float] = field(default_factory=dict)

    def scale_for(self, blob: str) -> float:
        try:
            return self.scales[blob]
        except KeyError:
            raise GraphError(f"no calibration entry for blob {blob!r}") from None

    def to_text(self) -> str:
        """Serialise in the simple ``blob scale`` format NVDLA's
        compiler documentation describes for calibration tables."""
        lines = [f"# calibration table for {self.network}"]
        for blob, scale in sorted(self.scales.items()):
            lines.append(f"{blob} {scale:.9g}")
        return "\n".join(lines) + "\n"


def calibrate_network(
    net: Network,
    samples: int = 4,
    seed: int = 1234,
    input_range: tuple[float, float] = (-1.0, 1.0),
) -> CalibrationTable:
    """Run calibration inputs through the float reference and record
    max-abs per blob.

    Real deployments use representative data; synthetic uniform inputs
    exercise the same code path and produce well-conditioned scales
    for the randomly initialised zoo networks.
    """
    if samples <= 0:
        raise GraphError("calibration needs at least one sample")
    executor = ReferenceExecutor(net)
    rng = np.random.default_rng(seed)
    max_abs: dict[str, float] = {}
    for _ in range(samples):
        image = rng.uniform(*input_range, size=net.input_shape).astype(np.float32)
        executor.run(image, record_blobs=True)
        for blob, tensor in executor.blobs.items():
            peak = float(np.abs(tensor).max())
            max_abs[blob] = max(max_abs.get(blob, 0.0), peak)
    scales = {blob: (peak / 127.0 if peak > 0 else 1.0 / 127.0) for blob, peak in max_abs.items()}
    return CalibrationTable(network=net.name, scales=scales)


@dataclass(frozen=True)
class QuantizedWeights:
    """INT8 weights plus the scales that reconstruct real values."""

    weight: np.ndarray  # int8
    weight_scale: float
    bias: np.ndarray | None  # int32, at scale weight_scale * input_scale


def quantize_weights(
    weight: np.ndarray,
    bias: np.ndarray | None,
    input_scale: float,
) -> QuantizedWeights:
    """Symmetric per-tensor weight quantisation.

    Bias is quantised to int32 at the accumulator scale
    (``input_scale * weight_scale``), which is exactly what the SDP
    bias stage adds to raw MAC accumulators.
    """
    peak = float(np.abs(weight).max())
    weight_scale = peak / 127.0 if peak > 0 else 1.0 / 127.0
    q_weight = np.clip(np.rint(weight / weight_scale), -127, 127).astype(np.int8)
    q_bias = None
    if bias is not None:
        acc_scale = weight_scale * input_scale
        q_bias = np.clip(
            np.rint(bias / acc_scale), -(2**31), 2**31 - 1
        ).astype(np.int32)
    return QuantizedWeights(weight=q_weight, weight_scale=weight_scale, bias=q_bias)


def requant_constants(
    input_scale: float,
    weight_scale: float,
    output_scale: float,
    max_shift: int = 31,
) -> tuple[int, int]:
    """Integer (multiplier, shift) for the SDP output converter.

    Chooses the largest shift such that the multiplier fits 16 bits:
    ``out_q ≈ acc * mult >> shift`` where the real factor is
    ``input_scale * weight_scale / output_scale``.
    """
    factor = input_scale * weight_scale / output_scale
    if factor <= 0:
        raise GraphError("requant factor must be positive")
    shift = 0
    mult = factor
    while shift < max_shift and mult * 2 < (1 << 15):
        mult *= 2
        shift += 1
    mult_int = max(1, int(round(mult)))
    if mult_int >= (1 << 16):
        mult_int = (1 << 16) - 1
    return mult_int, shift


def dequantize(q: np.ndarray, scale: float) -> np.ndarray:
    """Back to float for validation against the reference executor."""
    return q.astype(np.float32) * scale
