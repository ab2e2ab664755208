"""Serving workers: build once, serve many inferences.

Two worker tiers share one interface (``run(bundle, input_image)`` →
:class:`~repro.core.soc.SocRunResult`):

- :class:`SocWorker` owns one cycle-accurate
  :class:`~repro.core.soc.Soc`, whose engine computes the data plane,
  and replays bundles on it;
- :class:`FastPathWorker` owns one
  :class:`~repro.core.fastpath.FastPathExecutor` — no ISS, no bus
  transactions, outputs bit-identical to the SoC tier and cycles
  equal to it (the bundle's recorded cycle profile); its ``run`` also
  takes a batch of inputs and serves it in one pass.

Both tiers return an output for every run that has an input
(:meth:`~repro.baremetal.pipeline.BaremetalBundle.has_input`) and
``None`` for one that has none.  Workers are keyed by the
*hardware* point plus execution mode (config, frequency, memory width,
mode) — never the model, since every run reloads program memory and
preload images — so one worker serves interleaved models on the same
hardware.

Per-request inputs are packed exactly the way the VP runtime packs
them (quantise with the input tensor's scale, pack to memory atoms)
and written over the bundle's baked-in ``input.bin`` region, which is
the paper's deployment story: the generated program is
input-independent, only the preloaded image changes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.baremetal.image import BinImage
from repro.baremetal.pipeline import BaremetalBundle
from repro.core.fastpath import FastPathExecutor, ProfileTable
from repro.core.soc import Soc, SocRunResult
from repro.errors import ReproError
from repro.nvdla.config import get_config
from repro.nvdla.fastpath import pack_input
from repro.serve.request import DeploymentSpec


def hardware_key(spec: DeploymentSpec) -> tuple:
    """The worker-sharing key: deployment minus the model."""
    return (
        spec.config,
        spec.frequency_hz,
        spec.memory_bus_width_bits,
        spec.execution_mode,
    )


def pack_input_image(bundle: BaremetalBundle, image: np.ndarray) -> BinImage:
    """Quantise/cast and pack a fresh input the way the VP runtime does."""
    address, data = pack_input(bundle.loadable, get_config(bundle.config), image)
    return BinImage("input.bin", address, data)


@dataclass
class WorkerStats:
    runs: int = 0  # inferences served
    busy_seconds: float = 0.0  # host time inside run(), each call once


class SocWorker:
    """One reusable simulated SoC."""

    def __init__(self, worker_id: int, spec: DeploymentSpec) -> None:
        self.worker_id = worker_id
        self.key = hardware_key(spec)
        self.soc = Soc(
            get_config(spec.config),
            frequency_hz=spec.frequency_hz,
            memory_bus_width_bits=spec.memory_bus_width_bits,
        )
        self.stats = WorkerStats()
        # The replay fast path is keyed on the *artifact digest*, not
        # object identity: an identical recompiled bundle (e.g. after a
        # BundleCache eviction) still hits it, and the weak reference
        # means the worker never pins an evicted bundle in memory.  The
        # weakref is only an optimisation — same object, skip hashing.
        self._last_bundle: "weakref.ref[BaremetalBundle] | None" = None
        self._last_digest: str | None = None

    def _is_replay(self, bundle: BaremetalBundle) -> bool:
        """True when the SoC's DRAM already holds this bundle's artifacts."""
        if self._last_digest is None:
            return False
        last = self._last_bundle() if self._last_bundle is not None else None
        if last is bundle:
            return True
        return bundle.artifact_digest() == self._last_digest

    def run(
        self, bundle: BaremetalBundle, input_image: np.ndarray | None = None
    ) -> SocRunResult:
        """Reset, load and execute one inference on the owned SoC.

        Back-to-back runs of the *same* bundle (by artifact digest, so
        independent builds of one deployment count) skip the DRAM scrub
        and the (large) weight-image rewrite: weights are read-only
        during a run and the allocator keeps them disjoint from
        activations, so only the program, the status page and the input
        region need refreshing.  `tests/serve/test_workers.py` pins
        down that this fast path stays bit-identical to a fresh SoC.
        """
        if self._is_replay(bundle):
            # The CPU still holds the program, decoded at its last
            # load, and its reset pc, so skip the program load.
            self.soc.reset_for_run(scrub_dram=False)
            for image in bundle.images.preload:
                if image.name == "weights.bin":
                    continue  # read-only during a run; still loaded
                if image.name == "input.bin" and input_image is not None:
                    continue  # about to be overwritten below
                self.soc.preload_dram(image.load_address, image.data)
        else:
            self.soc.reset_for_run(scrub_dram=True)
            self.soc.load_bundle(bundle)
            self._last_digest = bundle.artifact_digest()
        self._last_bundle = weakref.ref(bundle)
        if input_image is not None:
            image = pack_input_image(bundle, input_image)
            self.soc.preload_dram(image.load_address, image.data)
        # Without an input the engine computes on whatever DRAM holds:
        # no output, as on the fast tier.
        result = self.soc.run_inference(bundle if bundle.has_input(input_image) else None)
        self.stats.runs += 1
        return result


class FastPathWorker:
    """One reusable fast-path executor."""

    def __init__(
        self,
        worker_id: int,
        spec: DeploymentSpec,
        calibration: ProfileTable | None,
        max_resident_bundles: int | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.key = hardware_key(spec)
        kwargs = {}
        if max_resident_bundles is not None:
            kwargs["max_resident_bundles"] = max_resident_bundles
        self.executor = FastPathExecutor(
            get_config(spec.config),
            frequency_hz=spec.frequency_hz,
            calibration=calibration,
            memory_bus_width_bits=spec.memory_bus_width_bits,
            **kwargs,
        )
        self.stats = WorkerStats()

    def run(
        self, bundle: BaremetalBundle, input_image: np.ndarray | None = None
    ) -> SocRunResult:
        """One executor run: ``input_image`` may be a batch of inputs
        (see :meth:`~repro.core.fastpath.FastPathExecutor.run`), and
        ``stats.runs`` counts each of them."""
        result = self.executor.run(bundle, input_image=input_image)
        batched = input_image is not None and (
            input_image.ndim > len(bundle.loadable.input_tensor.shape)
        )
        self.stats.runs += len(input_image) if batched else 1
        return result


class WorkerPool:
    """Lazily built, hardware-keyed pool of reusable workers.

    ``workers_per_key`` > 1 round-robins successive runs of one
    hardware point over several worker instances — the single-process
    stand-in for a sharded fleet.  Every fast-path worker the pool
    creates shares one cycle-profile table: ``calibration`` when given
    (see :func:`repro.core.fastpath.calibrate`), else a pool-private
    one, so a bundle is recorded once per pool, not once per worker.
    """

    def __init__(
        self,
        workers_per_key: int = 1,
        calibration: ProfileTable | None = None,
        max_resident_bundles: int | None = None,
    ) -> None:
        if workers_per_key <= 0:
            raise ReproError("pool needs at least one worker per hardware point")
        self.workers_per_key = workers_per_key
        self.profiles: ProfileTable = calibration if calibration is not None else {}
        # None = FastPathExecutor's own default; fleet replicas set this
        # so their modelled warm-state capacity matches the executor's.
        self.max_resident_bundles = max_resident_bundles
        self._workers: dict[tuple, list[SocWorker | FastPathWorker]] = {}
        self._cursor: dict[tuple, int] = {}
        self._next_id = 0
        self.created = 0
        self.reused = 0

    def _make_worker(self, spec: DeploymentSpec) -> SocWorker | FastPathWorker:
        if spec.execution_mode == "fast":
            return FastPathWorker(
                self._next_id,
                spec,
                self.profiles,
                max_resident_bundles=self.max_resident_bundles,
            )
        return SocWorker(self._next_id, spec)

    def worker_for(self, spec: DeploymentSpec) -> SocWorker | FastPathWorker:
        key = hardware_key(spec)
        lane = self._workers.setdefault(key, [])
        if len(lane) < self.workers_per_key:
            worker = self._make_worker(spec)
            self._next_id += 1
            lane.append(worker)
            self.created += 1
            return worker
        index = self._cursor.get(key, 0)
        self._cursor[key] = (index + 1) % len(lane)
        self.reused += 1
        return lane[index]

    def all_workers(self) -> list[SocWorker | FastPathWorker]:
        return [w for lane in self._workers.values() for w in lane]
