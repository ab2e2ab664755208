"""Request/response types of the inference service.

A request names a *deployment* — the (model, config, precision) point
whose bare-metal artefacts the service memoises, plus the hardware
clock, memory width and execution tier it runs on — and the
per-request input image.  A served request always returns an output,
so serving always builds the functional bundle (the VP computed the
tensors and ``input.bin`` is baked in).  The response carries both
wall-clock and simulated-cycle latency, so the service metrics can
report the two timescales the paper distinguishes (host simulation
speed vs SoC latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.nn.graph import Network
from repro.nvdla.config import Precision


def make_input(shape: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    """Draw one input image from a caller-owned seeded generator.

    Every example, benchmark and test that fabricates inputs goes
    through this helper with a single ``Generator`` instance, so a
    whole workload is reproducible from one seed.
    """
    return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)


def make_input_for(net: Network, rng: np.random.Generator) -> np.ndarray:
    return make_input(net.input_shape, rng)


def request_rng(input_seed: int, request_id: int) -> np.random.Generator:
    """The per-request input generator: seeded by ``(seed, request_id)``.

    The serving determinism convention: every input a service
    synthesises for request *i* is drawn from a generator seeded by the
    service seed *and* the request id — never from a generator shared
    across requests — so the tensor a request receives is independent
    of batch composition, drain order and worker/process count.  An
    N-process serving plane is bit-identical to the single-process
    service because both sides derive inputs through this function.
    """
    return np.random.default_rng((input_seed, request_id))


@dataclass(frozen=True)
class DeploymentSpec:
    """One unique (model, hardware, precision) service target.

    ``execution_mode`` picks the serving tier: ``"cycle_accurate"``
    replays bundles on a full simulated SoC (ISS + buses), ``"fast"``
    uses the functional tier
    (:class:`~repro.core.fastpath.FastPathExecutor`) — same artefacts,
    bit-identical outputs, the same cycles (recorded once per bundle).
    """

    model: str
    config: str = "nv_small"
    precision: Precision = Precision.INT8
    frequency_hz: float = 100e6
    memory_bus_width_bits: int = 32
    execution_mode: str = "cycle_accurate"

    def __post_init__(self) -> None:
        if self.execution_mode not in ("cycle_accurate", "fast"):
            raise ReproError(f"unknown execution mode {self.execution_mode!r}")

    def describe(self) -> str:
        mode = "" if self.execution_mode == "cycle_accurate" else f"+{self.execution_mode}"
        return (
            f"{self.model}/{self.config}/{self.precision.value}"
            f"@{self.frequency_hz / 1e6:g}MHz{mode}"
        )


@dataclass
class InferenceRequest:
    """One queued inference."""

    request_id: int
    deployment: DeploymentSpec
    input_image: np.ndarray | None = None  # None = service synthesises one
    arrival_order: int = 0  # filled by the scheduler on submit

    @property
    def model(self) -> str:
        return self.deployment.model


@dataclass
class InferenceResponse:
    """Outcome of one served inference."""

    request_id: int
    deployment: DeploymentSpec
    ok: bool
    output: np.ndarray | None
    cycles: int
    sim_seconds: float  # simulated SoC time
    wall_seconds: float  # host time spent inside the worker run
    cache_hit: bool
    worker_id: int
    batch_id: int  # which scheduler batch dispatched this request
    notes: dict = field(default_factory=dict)
