"""Open-loop workload generation for fleet simulations.

A workload is a list of :class:`TimedRequest` — an arrival instant (in
*virtual* seconds, the fleet simulation's clock) plus the deployment
the request targets and optionally a concrete input image.  Arrivals
come from a seeded stochastic process, so a whole load sweep is
reproducible from one ``--seed``:

- :class:`ConstantArrivals` — fixed inter-arrival gap (closed-form
  offered load, the baseline for sweeps);
- :class:`PoissonArrivals` — memoryless open-loop traffic, the
  standard serving-benchmark arrival model;
- :class:`BurstyArrivals` — a two-state Markov-modulated Poisson
  process (calm ↔ burst), the autoscaler's stress input.

Workloads can also round-trip through JSONL traces
(:func:`save_trace` / :func:`load_trace`), so a measured or hand-built
trace replays identically across policies and fleet shapes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ReproError
from repro.nvdla.config import Precision
from repro.serve.request import DeploymentSpec, make_input_for


@dataclass
class TimedRequest:
    """One request of an open-loop workload."""

    request_id: int
    arrival_s: float
    deployment: DeploymentSpec
    input_image: np.ndarray | None = None


# ----------------------------------------------------------------------
# Arrival processes.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantArrivals:
    """Fixed-rate arrivals: one request every ``1 / rate_rps`` seconds."""

    rate_rps: float
    name: str = field(default="constant", init=False)

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ReproError("arrival rate must be positive")

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        gap = 1.0 / self.rate_rps
        while True:
            yield gap


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at ``rate_rps`` (exponential gaps)."""

    rate_rps: float
    name: str = field(default="poisson", init=False)

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ReproError("arrival rate must be positive")

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        scale = 1.0 / self.rate_rps
        while True:
            yield float(rng.exponential(scale))


@dataclass(frozen=True)
class BurstyArrivals:
    """Two-state MMPP: Poisson at ``base_rps``, bursts at ``burst_rps``.

    State dwell times are exponential with the given means; within a
    state arrivals are Poisson at that state's rate.  The dwell clock
    is advanced per arrival (gaps are drawn at the rate the state had
    when the gap began), which keeps generation one-pass and seeded.
    """

    base_rps: float
    burst_rps: float | None = None  # default: 4x the base rate
    mean_calm_s: float = 2.0
    mean_burst_s: float = 0.5
    name: str = field(default="bursty", init=False)

    def __post_init__(self) -> None:
        if self.base_rps <= 0:
            raise ReproError("arrival rate must be positive")
        if self.burst_rps is not None and self.burst_rps <= self.base_rps:
            raise ReproError("burst rate must exceed the base rate")

    @property
    def burst_rate(self) -> float:
        return self.burst_rps if self.burst_rps is not None else 4.0 * self.base_rps

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        bursting = False
        dwell = float(rng.exponential(self.mean_calm_s))
        while True:
            rate = self.burst_rate if bursting else self.base_rps
            gap = float(rng.exponential(1.0 / rate))
            dwell -= gap
            while dwell <= 0.0:
                bursting = not bursting
                dwell += float(
                    rng.exponential(self.mean_burst_s if bursting else self.mean_calm_s)
                )
            yield gap


#: CLI / config registry of arrival-process factories (rate → process).
ARRIVALS = {
    "constant": ConstantArrivals,
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
}


def make_arrivals(name: str, rate_rps: float, **kwargs):
    """Build a registered arrival process from its CLI name."""
    if name not in ARRIVALS:
        raise ReproError(f"unknown arrival process {name!r} (known: {sorted(ARRIVALS)})")
    if name == "bursty":
        return BurstyArrivals(base_rps=rate_rps, **kwargs)
    return ARRIVALS[name](rate_rps, **kwargs)


# ----------------------------------------------------------------------
# Workload generation.
# ----------------------------------------------------------------------


def generate_workload(
    arrivals,
    deployments: Sequence[DeploymentSpec],
    requests: int,
    seed: int = 0,
    weights: Sequence[float] | None = None,
    with_inputs: bool = False,
    start_s: float = 0.0,
) -> list[TimedRequest]:
    """Timestamped requests over a (possibly weighted) model zoo mix.

    Every stochastic choice — inter-arrival gaps, which deployment a
    request targets, and (with ``with_inputs``) the input tensor —
    draws from one ``default_rng(seed)`` in a fixed order, so the same
    seed always yields the identical workload.
    """
    if requests <= 0:
        raise ReproError("workload needs at least one request")
    if not deployments:
        raise ReproError("workload needs at least one deployment")
    if weights is not None:
        if len(weights) != len(deployments):
            raise ReproError("one weight per deployment")
        total = float(sum(weights))
        if total <= 0:
            raise ReproError("weights must sum to a positive value")
        probabilities = np.asarray(weights, dtype=float) / total
    else:
        probabilities = None

    rng = np.random.default_rng(seed)
    gap_iter = arrivals.gaps(rng)
    nets: dict[str, object] = {}
    workload: list[TimedRequest] = []
    now = start_s
    for request_id in range(requests):
        now += next(gap_iter)
        if probabilities is None:
            index = int(rng.integers(len(deployments)))
        else:
            index = int(rng.choice(len(deployments), p=probabilities))
        deployment = deployments[index]
        image = None
        if with_inputs:
            net = nets.get(deployment.model)
            if net is None:
                from repro.nn.zoo import ZOO

                net = nets[deployment.model] = ZOO[deployment.model]()
            image = make_input_for(net, rng)
        workload.append(TimedRequest(request_id, now, deployment, image))
    return workload


def offered_rps(workload: Sequence[TimedRequest]) -> float:
    """Mean offered load over the workload's arrival span."""
    if len(workload) < 2:
        return 0.0
    span = workload[-1].arrival_s - workload[0].arrival_s
    return (len(workload) - 1) / span if span > 0 else 0.0


# ----------------------------------------------------------------------
# JSONL trace replay.
# ----------------------------------------------------------------------


def save_trace(workload: Iterable[TimedRequest], path: str | Path) -> Path:
    """Write a workload as one JSON object per line (inputs elided)."""
    path = Path(path)
    lines = []
    for request in workload:
        spec = request.deployment
        lines.append(
            json.dumps(
                {
                    "t": request.arrival_s,
                    "model": spec.model,
                    "config": spec.config,
                    "precision": spec.precision.value,
                    "mode": spec.execution_mode,
                },
                sort_keys=True,
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace(
    path: str | Path, seed: int = 0, with_inputs: bool = False
) -> list[TimedRequest]:
    """Replay a JSONL trace as a workload (inputs re-synthesised).

    Input tensors are not stored in traces; with ``with_inputs`` they
    are drawn from ``default_rng(seed)`` in arrival order, so a trace
    plus a seed is a fully reproducible request set.
    """
    rng = np.random.default_rng(seed)
    nets: dict[str, object] = {}
    workload: list[TimedRequest] = []
    last_t = None
    for line_no, line in enumerate(Path(path).read_text().splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ReproError(f"{path}:{line_no + 1}: bad trace line: {error}") from error
        if "t" not in record or "model" not in record:
            raise ReproError(f"{path}:{line_no + 1}: trace line needs 't' and 'model'")
        t = float(record["t"])
        if last_t is not None and t < last_t:
            raise ReproError(f"{path}:{line_no + 1}: arrival times must be sorted")
        last_t = t
        deployment = DeploymentSpec(
            record["model"],
            config=record.get("config", "nv_small"),
            precision=Precision(record.get("precision", "int8")),
            execution_mode=record.get("mode", "cycle_accurate"),
        )
        image = None
        if with_inputs:
            net = nets.get(deployment.model)
            if net is None:
                from repro.nn.zoo import ZOO

                net = nets[deployment.model] = ZOO[deployment.model]()
            image = make_input_for(net, rng)
        workload.append(TimedRequest(len(workload), t, deployment, image))
    if not workload:
        raise ReproError(f"trace {path} holds no requests")
    return workload
