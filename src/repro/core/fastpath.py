"""The fast-path execution tier: functional NumPy + recorded cycles.

Serving pays the full cycle-accurate CPU+bus simulation per request on
the default tier, which caps throughput far below what the functional
work actually costs.  :class:`FastPathExecutor` is the decoupled tier
(the FireSim/ESP functional-vs-timing split): it replays a bare-metal
bundle without the ISS or any bus transaction —

- **function** — the loadable's layer sequence runs straight through
  the NVDLA unit kernels (:mod:`repro.nvdla.fastpath`) on a private
  DRAM image, producing output tensors bit-identical to a
  cycle-accurate SoC run of the same bundle; a batch of inputs runs
  each launch once for all of them, every request on its own image;
- **timing** — reported cycles are a :class:`CycleProfile`: one
  timing-fidelity SoC run of the bundle's program, recorded on first
  use and returned verbatim ever after.  The bare-metal program never
  reads tensor data and softmax runs on the host, so a program has
  exactly one cycle profile per config and memory-bus width (see
  :func:`profile_key`); the fast tier's cycles,
  instruction counts and per-op schedule *equal* the cycle-accurate
  tier's by construction (``tests/core/test_cycle_profile.py`` holds
  the premise, ``tests/nvdla/test_fastpath_differential.py`` the
  equality).

Results come back as :class:`~repro.core.soc.SocRunResult`, so the
serving layer treats both tiers uniformly.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.baremetal.codegen import MAGIC_DONE
from repro.baremetal.pipeline import BaremetalBundle
from repro.core.address_map import DRAM_SIZE, dram_offset
from repro.core.executor import RunStats
from repro.core.soc import Soc, SocRunResult, read_output_tensor
from repro.errors import ConfigurationError, ReproError
from repro.mem.sparse_memory import SparseMemory
from repro.nvdla.config import HardwareConfig, NV_SMALL, Precision, get_config
from repro.nvdla.descriptors import TensorDesc
from repro.nvdla.engine import OpRecord
from repro.nvdla.fastpath import lower_loadable, pack_input
from repro.nvdla.mcif import Mcif
from repro.nvdla.programming import Descriptors, execute_descriptors
from repro.nvdla.timing import WRITE, dma_streams


@dataclass(frozen=True)
class CycleProfile:
    """One bundle's cycle-accurate run, recorded once and replayed.

    ``stats`` are the :class:`~repro.core.executor.RunStats` of a
    timing-fidelity SoC run and ``op_records`` the engine's schedule of
    it.  Only ``stats.seconds`` depends on the clock; executors rescale
    it to their own frequency.
    """

    network: str
    config: str
    memory_bus_width_bits: int
    stats: RunStats
    op_records: tuple[OpRecord, ...]

    @property
    def total_cycles(self) -> int:
        return self.stats.cycles

    def render(self) -> str:
        stats = self.stats
        return (
            f"{self.network}/{self.config}@{self.memory_bus_width_bits}b: "
            f"{stats.cycles:,} cycles, {stats.instructions:,} instructions, "
            f"{len(self.op_records)} hw ops, {stats.poll_fraction:.0%} waiting on NVDLA"
        )


#: Recorded profiles keyed by :func:`profile_key`.
ProfileTable = dict[tuple[str, str, int], CycleProfile]


def profile_key(bundle: BaremetalBundle, memory_bus_width_bits: int) -> tuple[str, str, int]:
    """What a :func:`record_profile` run loads: (SHA-256 of the program
    image, config name, memory-bus width).

    Weights, the input and the VP fidelity the bundle was built at are
    not part of it, because the program never reads tensor data: a
    functional and a timing build of one deployment share one profile.
    The clock is not part of it either: DRAM timing is in controller
    cycles, so frequency only scales seconds.
    """
    program = bundle.program
    h = hashlib.sha256(program.to_bytes())
    h.update(program.base.to_bytes(8, "little"))
    h.update(program.entry.to_bytes(8, "little"))
    return h.hexdigest(), bundle.config, memory_bus_width_bits


def record_profile(
    bundle: BaremetalBundle,
    config: HardwareConfig,
    frequency_hz: float = 100e6,
    memory_bus_width_bits: int = 32,
) -> CycleProfile:
    """Run ``bundle`` once on a timing-fidelity SoC and freeze the run.

    Only the program is loaded: neither weights nor the input can move
    a cycle, because the program never reads them.
    """
    soc = Soc(
        config,
        frequency_hz=frequency_hz,
        fidelity="timing",
        memory_bus_width_bits=memory_bus_width_bits,
    )
    soc.load_program(bundle.program)
    result = soc.run_inference()
    if not result.ok:
        raise ReproError(
            f"profile run of {bundle.network} failed: status "
            f"0x{result.status_word:08x} at command {result.fail_index}"
        )
    return CycleProfile(
        network=bundle.network,
        config=bundle.config,
        memory_bus_width_bits=memory_bus_width_bits,
        stats=result.stats,
        op_records=tuple(result.op_records),
    )


def _shape(tensor: TensorDesc | None) -> tuple | None:
    return None if tensor is None else (tensor.shape, tensor.precision)


def _batch_key(descriptors: Descriptors) -> tuple | None:
    """What convolution launches must share to run as one kernel call:
    every field the conv and SDP kernels read from a run's first launch
    only (stages, geometry, cube shapes and precisions).  Surfaces,
    weights, operands and converter values may differ per launch.
    ``None`` for launches that never batch."""
    if descriptors.keys() != {"conv", "sdp"}:
        return None
    conv, sdp = descriptors["conv"], descriptors["sdp"]
    return (
        _shape(conv.input),
        conv.weight_shape,
        conv.precision,
        (conv.stride_y, conv.stride_x),
        (conv.pad_top, conv.pad_bottom, conv.pad_left, conv.pad_right),
        _shape(sdp.output),
        sdp.out_precision,
        sdp.source,
        sdp.bias_address is None,
        sdp.bn_mult_address is None,
        sdp.eltwise,
        _shape(sdp.eltwise_input),
        sdp.relu,
        sdp.dst_flying,
    )


def batch_launches(
    launches: list[Descriptors], config: HardwareConfig
) -> list[list[Descriptors]]:
    """Split a launch sequence into runs that execute as one kernel call.

    A run is consecutive launches with one :func:`_batch_key` (the
    ``convN_dw_bK`` blocks of a depthwise layer) where no launch reads
    bytes an earlier one in the run writes, so reading every input
    before writing any output changes nothing.  Order is kept; a
    launch that cannot join its predecessor starts a new run.
    """
    runs: list[list[Descriptors]] = []
    run_key = None
    written: list[tuple[int, int]] = []
    for launch in launches:
        key = _batch_key(launch)
        streams = dma_streams(launch, config)
        reads = [(s.address, s.address + s.nbytes) for s in streams if s.direction != WRITE]
        joins = key is not None and key == run_key and not any(
            lo < w_hi and w_lo < hi for lo, hi in reads for w_lo, w_hi in written
        )
        if not joins:
            runs.append([])
            run_key, written = key, []
        runs[-1].append(launch)
        written += [(s.address, s.address + s.nbytes) for s in streams if s.direction == WRITE]
    return runs


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

    Each bundle gets its own preloaded DRAM image plus the derived
    artefacts that are invariant across requests — lowered descriptors
    batched into kernel calls (:func:`batch_launches`), the cycle
    profile and the GEMM-ready weight cache — so an interleaved
    workload (the scheduler round-robins deployments) never pays the
    model-switch teardown the single-SoC tier pays.  No run writes to
    ``image``: every request runs on a copy-on-write overlay of it.
    ``bundle`` is a strong reference on purpose: states are keyed by
    ``id(bundle)``.
    """

    bundle: BaremetalBundle
    image: SparseMemory
    runs: list[list[Descriptors]]
    profile: CycleProfile
    weight_cache: dict = field(default_factory=dict)


class _ImagePort:
    """Functional DBB port onto one request's DRAM image.

    The fast tier only moves bytes; nothing here is priced.
    """

    def __init__(self, storage: SparseMemory | None = None) -> None:
        self.storage = storage

    def read(self, address: int, nbytes: int) -> bytes:
        return self.storage.read(dram_offset(address), nbytes)

    def write(self, address: int, data: bytes) -> None:
        self.storage.write(dram_offset(address), data)


class FastPathExecutor:
    """Functional execution of bare-metal bundles with recorded cycles.

    ``calibration`` is the table of recorded :class:`CycleProfile`\\ s
    (see :func:`calibrate`); executors handed the same table share its
    recordings.  ``None`` gives the executor a private table.  Either
    way a missing profile is recorded on first use.  Profiles live
    apart from the resident-bundle LRU, so an eviction never
    re-records.

    Each request of a run gets a private DRAM image: a copy-on-write
    overlay of the bundle's resident image, so the read-only weights
    are shared and only the pages a request writes (its input and
    activations) are its own.  ``mcifs[k]`` reaches request ``k``'s
    image; ``mcif`` and ``port`` are the first request's, which keeps
    its image (and byte counts) until the next run.
    """

    def __init__(
        self,
        config: HardwareConfig = NV_SMALL,
        frequency_hz: float = 100e6,
        calibration: ProfileTable | None = None,
        memory_bus_width_bits: int = 32,
        max_resident_bundles: int = 8,
    ) -> None:
        if max_resident_bundles <= 0:
            raise ReproError("executor needs at least one resident bundle slot")
        self.config = config
        self.frequency_hz = frequency_hz
        self.profiles: ProfileTable = calibration if calibration is not None else {}
        self.memory_bus_width_bits = memory_bus_width_bits
        self.mcifs: list[Mcif] = [Mcif(_ImagePort())]
        self.mcif = self.mcifs[0]
        self.port: _ImagePort = self.mcif.port
        self.max_resident_bundles = max_resident_bundles
        self._states: "OrderedDict[int, _BundleState]" = OrderedDict()
        self.resident_stats = ResidentStats()

    def estimate(self, bundle: BaremetalBundle) -> CycleProfile:
        """The bundle's cycle profile, recorded now if it is missing."""
        self._check_config(bundle)
        return self._profile(bundle)

    def _check_config(self, bundle: BaremetalBundle) -> None:
        if bundle.config != self.config.name:
            raise ReproError(
                f"bundle built for {bundle.config}, executor is {self.config.name}"
            )

    def _profile(self, bundle: BaremetalBundle) -> CycleProfile:
        key = profile_key(bundle, self.memory_bus_width_bits)
        profile = self.profiles.get(key)
        if profile is None:
            profile = self.profiles[key] = record_profile(
                bundle, self.config, self.frequency_hz, self.memory_bus_width_bits
            )
        return profile

    def _resident(self, bundle: BaremetalBundle) -> _BundleState:
        """The bundle's resident state, built (and its DRAM image
        preloaded) on a miss."""
        state = self._states.get(id(bundle))
        if state is not None:
            self.resident_stats.hits += 1
            self._states.move_to_end(id(bundle))
            return state
        self.resident_stats.misses += 1
        state = _BundleState(
            bundle=bundle,
            image=SparseMemory(DRAM_SIZE),
            runs=batch_launches(
                [op.descriptors for op in lower_loadable(bundle.loadable, self.config)],
                self.config,
            ),
            profile=self._profile(bundle),
        )
        port = _ImagePort(state.image)
        for image in bundle.images.preload:
            port.write(image.load_address, image.data)
        self._states[id(bundle)] = state
        while len(self._states) > self.max_resident_bundles:
            self._states.popitem(last=False)
            self.resident_stats.evictions += 1
        return state

    def _requests(
        self, bundle: BaremetalBundle, input_image: np.ndarray | None
    ) -> tuple[list[np.ndarray | None], bool]:
        """The run's per-request inputs (``[None]`` without an input) and
        whether ``input_image`` is a batch."""
        if input_image is None:
            return [None], False
        shape = tuple(bundle.loadable.input_tensor.shape)
        if tuple(input_image.shape) == shape:
            return [input_image], False
        if tuple(input_image.shape[1:]) != shape or len(input_image) == 0:
            raise ConfigurationError(
                f"input shape {input_image.shape} is neither the network input "
                f"{shape} nor a non-empty batch of it"
            )
        return list(input_image), True

    def run(
        self, bundle: BaremetalBundle, input_image: np.ndarray | None = None
    ) -> SocRunResult:
        """Replay one bundle functionally; cycles from its profile.

        ``input_image`` is one input, or a batch of them along a leading
        axis: every launch then runs once for the whole batch, each
        request on its own DRAM image, and ``output`` carries the same
        leading axis.  Cycles, stats and op records are per request
        (the recorded profile) either way.

        The kernels run when the run has an input
        (:meth:`~repro.baremetal.pipeline.BaremetalBundle.has_input`);
        the output is ``None`` otherwise.
        """
        self._check_config(bundle)
        requests, batched = self._requests(bundle, input_image)
        state = self._resident(bundle)
        while len(self.mcifs) < len(requests):
            self.mcifs.append(Mcif(_ImagePort()))
        mcifs = self.mcifs[: len(requests)]
        for mcif in self.mcifs[len(requests) :]:
            mcif.port.storage = None  # past this batch: let go of the last image
        for mcif, image in zip(mcifs, requests):
            mcif.port.storage = SparseMemory(DRAM_SIZE, base=state.image)
            if image is not None:
                mcif.port.write(*pack_input(bundle.loadable, self.config, image))

        output = None
        if bundle.has_input(input_image):
            for launches in state.runs:
                execute_descriptors(
                    launches, self.config, mcifs, weight_cache=state.weight_cache
                )
            outputs = [
                read_output_tensor(mcif.port.storage, bundle, self.config)
                for mcif in mcifs
            ]
            output = np.stack(outputs) if batched else outputs[0]

        profile = state.profile
        stats = replace(
            profile.stats,
            seconds=profile.stats.cycles / self.frequency_hz,
            by_class=dict(profile.stats.by_class),
        )
        return SocRunResult(
            ok=True,
            cycles=stats.cycles,
            seconds=stats.seconds,
            stats=stats,
            status_word=MAGIC_DONE,
            output=output,
            op_records=list(profile.op_records),
        )


def calibrate(
    models: tuple[str, ...] = ("lenet5", "resnet18"),
    config: HardwareConfig | str = NV_SMALL,
    precision: Precision = Precision.INT8,
    cache=None,
    memory_bus_width_bits: int = 32,
) -> ProfileTable:
    """Record the cycle profiles of ``models``' bundles up front.

    The fast tier records a profile on first use anyway; this moves
    those SoC runs to a moment of the caller's choosing (a benchmark's
    set-up, a service's warm-up) and returns the table to hand to
    executors and services as ``calibration=``.
    """
    hw = get_config(config) if isinstance(config, str) else config
    if cache is None:
        from repro.serve.cache import shared_cache

        cache = shared_cache()
    executor = FastPathExecutor(hw, memory_bus_width_bits=memory_bus_width_bits)
    for model in models:
        executor.estimate(cache.bundle_for(model, hw, precision=precision))
    return executor.profiles
