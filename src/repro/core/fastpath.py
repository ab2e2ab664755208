"""The fast-path execution tier: functional NumPy + analytic cycles.

Serving pays the full cycle-accurate CPU+bus simulation per request on
the default tier, which caps throughput far below what the functional
work actually costs.  :class:`FastPathExecutor` is the decoupled tier
(the FireSim/ESP functional-vs-timing split): it replays a bare-metal
bundle without the ISS or any bus transaction —

- **function** — the loadable's layer sequence runs straight through
  the NVDLA unit kernels (:mod:`repro.nvdla.fastpath`) on a private
  DRAM image, producing output tensors bit-identical to a
  cycle-accurate SoC run of the same bundle;
- **timing** — reported cycles come from the engine's analytic per-op
  model, priced through the *same* converter + arbiter memory chain
  the SoC wrapper uses, plus a calibrated linear model of the CPU's
  CSB-programming and polling overhead
  (:mod:`repro.core.calibration`).

Results come back as :class:`~repro.core.soc.SocRunResult`, so the
serving layer treats both tiers uniformly.  Fast mode is refused for
any (model, config, precision) deployment the calibration table has
never validated against a measured run.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.baremetal.codegen import MAGIC_DONE
from repro.baremetal.pipeline import BaremetalBundle
from repro.bus.width_converter import AxiWidthConverter
from repro.core.address_map import AddressMap, DEFAULT_MAP
from repro.core.arbiter import DramArbiter
from repro.core.calibration import (
    DEFAULT_ERROR_BAND,
    CalibrationTable,
    Observation,
    fit_overheads,
)
from repro.core.executor import RunStats
from repro.core.nvdla_wrapper import WrapperDbbPort
from repro.core.soc import SocRunResult, read_output_tensor
from repro.errors import ReproError
from repro.mem.dram import Dram, DramTiming
from repro.mem.sparse_memory import SparseMemory
from repro.nvdla.cbuf import Cbuf
from repro.nvdla.config import HardwareConfig, NV_SMALL, Precision
from repro.nvdla.engine import OpRecord
from repro.nvdla.fastpath import (
    FastPathOp,
    execute_op,
    lower_loadable,
    op_timing,
    pack_input,
)
from repro.nvdla.mcif import Mcif
from repro.nvdla.timing import TimingParams


@dataclass(frozen=True)
class FastPathRunRequest:
    """Spawn-safe description of one inference run.

    Everything a worker *process* needs to serve a request, reduced to
    picklable primitives: no bundle object crosses the process
    boundary.  The bundle travels as its deployment cache key
    (``bundle_key``, see
    :func:`repro.baremetal.pipeline.bundle_cache_key`) and is
    rehydrated on the far side from the shared
    :class:`~repro.store.BundleStore` — or recompiled deterministically
    on a store miss, which yields bit-identical artifacts by
    construction.

    ``input_seed`` carries the per-request determinism convention of
    :func:`repro.serve.request.request_rng`: when ``input_image`` is
    ``None`` for a functional deployment, the executing worker draws
    the input from ``default_rng(input_seed)``, so the tensor a request
    receives is independent of which process serves it.
    """

    request_id: int
    model: str
    config: str
    precision: str
    fidelity: str = "functional"
    execution_mode: str = "fast"
    frequency_hz: float = 100e6
    memory_bus_width_bits: int = 32
    flow_seed: int = 2024  # the offline flow's calibration-input seed
    bundle_key: tuple | None = None
    input_image: np.ndarray | None = None
    input_seed: tuple[int, int] | None = None  # (service seed, request id)
    # Tracing context (trace_id, parent span_id) from Tracer.context():
    # the worker process parents its spans under the plane's request
    # span so the trace stitches across the process boundary.
    trace_ctx: tuple[str, str] | None = None


@dataclass(frozen=True)
class FastPathRunResult:
    """Picklable outcome of one :class:`FastPathRunRequest`."""

    request_id: int
    ok: bool
    output: np.ndarray | None
    cycles: int
    sim_seconds: float
    wall_seconds: float  # host time inside the worker's run()
    worker_id: int = 0  # in-process worker id within its process
    # Finished span dicts recorded in the worker process for this
    # request (empty when tracing is off); the plane ingests them.
    spans: tuple = ()


@dataclass(frozen=True)
class FastPathEstimate:
    """One bundle's whole-run cycle estimate, term by term."""

    op_cycles: int  # Σ analytic hardware-layer totals
    csb_writes: int
    polls: int
    programming_cycles: int  # calibrated CPU-side overhead
    total_cycles: int
    timings: tuple = ()  # per-op OpTiming, schedule order

    @property
    def overhead_fraction(self) -> float:
        return self.programming_cycles / self.total_cycles if self.total_cycles else 0.0


def command_counts(bundle: BaremetalBundle) -> tuple[int, int]:
    """(write_reg, read_reg) counts of a bundle's register program."""
    writes = sum(1 for c in bundle.commands if c.kind == "write_reg")
    return writes, len(bundle.commands) - writes


@dataclass
class ResidentStats:
    """Warm-state accounting of the executor's resident-bundle LRU.

    A *hit* serves from resident state (no lowering, no DRAM preload
    replay of weights); a *miss* pays the full warm-up.  Fleet
    simulations (:mod:`repro.cluster`) mirror this LRU to price
    replica warm-up, and `tests/cluster` pins the two views equal.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _BundleState:
    """Resident serving state for one bundle (multi-tenant worker).

    Each bundle gets its own DRAM image plus the derived artefacts
    that are invariant across requests — lowered descriptors, the
    cycle estimate and the unpacked-weight cache — so an interleaved
    workload (the scheduler round-robins deployments) never pays the
    model-switch teardown the single-SoC tier pays.  ``bundle`` is a
    strong reference on purpose: states are keyed by ``id(bundle)``.
    """

    bundle: BaremetalBundle
    storage: SparseMemory
    ops: list
    estimate: "FastPathEstimate"
    weight_cache: dict = field(default_factory=dict)


class FastPathExecutor:
    """Calibrated functional execution of bare-metal bundles.

    Mirrors the SoC's constructor surface (config, frequency, memory
    width, DRAM timing) so a deployment spec maps onto either tier
    unchanged; `calibration` gates `run` (see module docstring).
    """

    def __init__(
        self,
        config: HardwareConfig = NV_SMALL,
        frequency_hz: float = 100e6,
        calibration: CalibrationTable | None = None,
        address_map: AddressMap = DEFAULT_MAP,
        dram_timing: DramTiming | None = None,
        timing_params: TimingParams | None = None,
        dma_efficiency: float = 0.5,
        memory_bus_width_bits: int = 32,
        max_resident_bundles: int = 8,
    ) -> None:
        self.config = config
        self.frequency_hz = frequency_hz
        self.calibration = calibration
        self.address_map = address_map
        self.memory_bus_width_bits = memory_bus_width_bits
        self.timing_params = timing_params or TimingParams()
        # The exact memory chain of Soc + NvdlaWrapper, minus the CPU:
        # identical stream pricing means identical per-op totals.
        if dram_timing is None:
            dram_timing = DramTiming(data_width_bits=memory_bus_width_bits)
        self.dram = Dram(size=address_map.dram_size, timing=dram_timing)
        self.arbiter = DramArbiter(self.dram)
        self.width_converter = AxiWidthConverter(
            downstream=self.arbiter,
            master_width_bits=config.dbb_width_bits,
            slave_width_bits=memory_bus_width_bits,
        )
        self.mcif = Mcif(
            WrapperDbbPort(
                self.arbiter, self.width_converter, dram_base=address_map.dram_base
            ),
            dma_efficiency=dma_efficiency,
        )
        if max_resident_bundles <= 0:
            raise ReproError("executor needs at least one resident bundle slot")
        self.max_resident_bundles = max_resident_bundles
        self._states: "OrderedDict[int, _BundleState]" = OrderedDict()
        self.resident_stats = ResidentStats()

    @property
    def resident_count(self) -> int:
        """Bundles currently holding resident serving state."""
        return len(self._states)

    # ------------------------------------------------------------------
    # Estimation.
    # ------------------------------------------------------------------

    def estimate(self, bundle: BaremetalBundle) -> FastPathEstimate:
        """Whole-run cycle estimate (no execution, no guard).

        Deterministic per bundle: the terms depend only on the bundle's
        artefacts and this executor's memory model.
        """
        return self._estimate(bundle, lower_loadable(bundle.loadable, self.config))

    def _estimate(
        self, bundle: BaremetalBundle, ops: list[FastPathOp]
    ) -> FastPathEstimate:
        """Price already-lowered ops with the engine's timing functions.

        For a given memory port the per-op totals are *equal to* the
        cycle-accurate per-op latencies, not an approximation of them.
        """
        cbuf = Cbuf(self.config)
        timings = [
            op_timing(op, self.config, cbuf, self.mcif, self.timing_params)
            for op in ops
        ]
        op_cycles = sum(t.total for t in timings)
        writes, polls = command_counts(bundle)
        params = (self.calibration or CalibrationTable()).params
        programming = params.programming_cycles(writes, polls)
        return FastPathEstimate(
            op_cycles=op_cycles,
            csb_writes=writes,
            polls=polls,
            programming_cycles=programming,
            total_cycles=op_cycles + programming,
            timings=tuple(timings),
        )

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(
        self, bundle: BaremetalBundle, input_image: np.ndarray | None = None
    ) -> SocRunResult:
        """Replay one bundle functionally; cycles from the estimator."""
        if self.calibration is None:
            raise ReproError(
                "fast-path execution needs a CalibrationTable; build one with "
                "repro.core.calibrate() or `repro calibrate`"
            )
        self.calibration.require(
            bundle.network,
            bundle.config,
            bundle.precision,
            memory_bus_width_bits=self.memory_bus_width_bits,
        )
        if bundle.config != self.config.name:
            raise ReproError(
                f"bundle built for {bundle.config}, executor is {self.config.name}"
            )

        state = self._states.get(id(bundle))
        if state is None:
            self.resident_stats.misses += 1
            ops = lower_loadable(bundle.loadable, self.config)
            state = _BundleState(
                bundle=bundle,
                storage=SparseMemory(self.address_map.dram_size),
                ops=ops,
                estimate=self._estimate(bundle, ops),
            )
            self.dram.storage = state.storage
            for image in bundle.images.preload:
                self._preload(image.load_address, image.data)
            self._states[id(bundle)] = state
            while len(self._states) > self.max_resident_bundles:
                self._states.popitem(last=False)
                self.resident_stats.evictions += 1
        else:
            self.resident_stats.hits += 1
            self._states.move_to_end(id(bundle))
            self.dram.storage = state.storage
            for image in bundle.images.preload:
                if image.name == "weights.bin":
                    continue  # read-only during a run; still loaded
                if image.name == "input.bin" and input_image is not None:
                    continue  # about to be overwritten below
                self._preload(image.load_address, image.data)
        if input_image is not None:
            address, packed = pack_input(bundle.loadable, self.config, input_image)
            self._preload(address, packed)

        if bundle.fidelity == "functional":
            for op in state.ops:
                execute_op(op, self.config, self.mcif, weight_cache=state.weight_cache)

        estimate = state.estimate
        stats = RunStats(
            cycles=estimate.total_cycles,
            instructions=0,
            seconds=estimate.total_cycles / self.frequency_hz,
            active_cycles=estimate.total_cycles,
            halted=True,
        )
        output = None
        if bundle.fidelity == "functional":
            output = self._read_output(bundle)
        return SocRunResult(
            ok=True,
            cycles=estimate.total_cycles,
            seconds=stats.seconds,
            stats=stats,
            status_word=MAGIC_DONE,
            output=output,
            op_records=self._op_records(state.ops, estimate),
        )

    def _preload(self, address: int, data: bytes) -> None:
        self.dram.storage.write(address - self.address_map.dram_base, data)

    def _read_output(self, bundle: BaremetalBundle) -> np.ndarray:
        return read_output_tensor(
            self.dram.storage, bundle, self.config, self.address_map.dram_base
        )

    def _op_records(
        self, ops: list[FastPathOp], estimate: FastPathEstimate
    ) -> list[OpRecord]:
        """Estimated schedule: ops in sequence, programming between."""
        timings = estimate.timings
        gap = estimate.programming_cycles // (len(timings) + 1) if timings else 0
        records: list[OpRecord] = []
        now = 0
        for index, (op, timing) in enumerate(zip(ops, timings)):
            start = now + gap
            end = start + timing.total
            records.append(
                OpRecord(
                    index=index,
                    kind=op.kind,
                    sink=op.sink,
                    group=op.group,
                    start_cycle=start,
                    end_cycle=end,
                    timing=timing,
                    detail=dict(timing.detail),
                )
            )
            now = end
        return records


# ----------------------------------------------------------------------
# Calibration driver.
# ----------------------------------------------------------------------


def calibrate(
    models: tuple[str, ...] = ("lenet5", "resnet18"),
    config: HardwareConfig | str = NV_SMALL,
    precision: Precision = Precision.INT8,
    fidelity: str = "functional",
    cache=None,
    frequency_hz: float = 100e6,
    memory_bus_width_bits: int = 32,
    max_error: float | None = DEFAULT_ERROR_BAND,
) -> CalibrationTable:
    """Fit and validate a calibration table against cycle-accurate runs.

    For every model: build (or fetch) the deployment's bundle, run it
    on a cycle-accurate SoC for the measured cycle count, and reduce
    the bundle to the estimator's terms.  The overhead parameters are
    least-squares fitted over all runs, then each pair is admitted to
    the table with its estimate-vs-measurement record — which is what
    unlocks fast mode for it.  A fit whose in-sample error exceeds
    ``max_error`` raises instead of returning a table that would serve
    out-of-band estimates (pass ``None`` to inspect such a fit anyway).
    """
    from repro.core.soc import Soc
    from repro.nvdla.config import get_config

    hw = get_config(config) if isinstance(config, str) else config
    if cache is None:
        from repro.serve.cache import shared_cache

        cache = shared_cache()

    probe = FastPathExecutor(
        hw,
        frequency_hz=frequency_hz,
        memory_bus_width_bits=memory_bus_width_bits,
    )
    observations: list[Observation] = []
    for model in models:
        bundle = cache.bundle_for(model, hw, precision=precision, fidelity=fidelity)
        soc = Soc(
            hw,
            frequency_hz=frequency_hz,
            fidelity=fidelity,
            memory_bus_width_bits=memory_bus_width_bits,
        )
        soc.load_bundle(bundle)
        result = soc.run_inference(bundle)
        if not result.ok:
            raise ReproError(f"calibration run of {model} failed on the SoC")
        terms = probe.estimate(bundle)
        observations.append(
            Observation(
                model=model,
                config=hw.name,
                precision=precision.value,
                op_cycles=terms.op_cycles,
                csb_writes=terms.csb_writes,
                polls=terms.polls,
                measured_cycles=result.cycles,
            )
        )

    table = CalibrationTable(fit_overheads(observations))
    for obs in observations:
        estimated = obs.op_cycles + table.params.programming_cycles(
            obs.csb_writes, obs.polls
        )
        table.admit(
            obs.model,
            obs.config,
            obs.precision,
            obs.measured_cycles,
            estimated,
            memory_bus_width_bits=memory_bus_width_bits,
            op_cycles=obs.op_cycles,
            csb_writes=obs.csb_writes,
            polls=obs.polls,
        )
    if max_error is not None and table.worst_error() > max_error:
        raise ReproError(
            f"calibration fit error {table.worst_error():.2%} exceeds the "
            f"±{max_error:.0%} band:\n{table.render()}"
        )
    return table
