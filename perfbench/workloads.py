"""The three benchmark workloads.

Every workload drives the program only through its public API, on
nv_small INT8 (the paper's evaluated configuration), from one client
thread.  A workload object is built fresh for each set-up repetition:

- ``setup()`` builds everything the timed window needs and warms it up;
- ``run_window(seconds, clock, ops)`` runs the timed window and returns
  a :class:`Window`; ``ops`` brackets each op (the traced run opens a
  root span there, the untraced run does nothing);
- ``check()`` verifies every op of the window afterwards and returns
  the number of failed ops.

Inputs come only from the workload seed: op ``i`` of a run with seed
``s`` sees the tensor drawn from ``default_rng((s, i))``.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import probe, scale

MODEL = "resnet18"
CONFIG = "nv_small"

#: Requests per burst in ``serve_burst``; also the service batch size.
BURST = 8

#: Float-reference band for resnet18 outputs: the correlation floor the
#: integration tests apply to deep INT8 chains, on the pre-softmax blob.
REFERENCE_BLOB = "fc"
REFERENCE_MIN_CORRELATION = 0.8

#: Served outputs re-run on the cycle-accurate tier per run.
SERVE_CROSSCHECKS = 3

#: Input indices used by set-up warm-up; timed ops count up from 0.
WARMUP_INDICES = (1 << 30, (1 << 30) + 1)


def make_image(seed: int, index: int, shape) -> np.ndarray:
    rng = np.random.default_rng((seed, index))
    return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)


@dataclass
class Window:
    """What one timed window measured, in host seconds.

    ``latencies`` holds one sample per op as the workload defines it,
    and ``scaled`` the same samples at the host's reference speed (see
    :mod:`hostspeed`).  Their sums are the time the client spent
    waiting on the program, its own bookkeeping between ops excluded.
    """

    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    requests: int = 0
    batch_sizes: list[int] = field(default_factory=list)


def closed_loop(seconds, clock, ops, prepare, call, finish) -> Window:
    """One caller, next op only after the last one returned.

    ``prepare(i)`` builds op ``i``'s arguments, ``call(args)`` is the
    timed program call, ``finish(i, value, window)`` records the outcome
    and returns how many requests the op completed.  Only ``call`` is
    inside the op's timing; the host-speed probes bracket it outside.
    """
    window = Window()
    end = clock() + seconds
    index = 0
    before = probe(clock)
    while clock() < end:
        args = prepare(index)
        root = ops.begin(index)
        began = clock()
        value = call(args)
        took = clock() - began
        ops.end(root)
        after = probe(clock)
        window.latencies.append(took)
        window.scaled.append(scale(took, before, after))
        before = after
        window.requests += finish(index, value, window)
        index += 1
    return window


class Deploy:
    """Cold resnet18 deploy: the paper's toolflow, paid by every cold start.

    One op is ``generate_baremetal(verify=True)`` followed by a
    ``put_bundle`` into a fresh :class:`BundleStore` and a
    ``get_bundle`` back.  The calibration input is drawn from the seed,
    so every op of a run must reproduce the set-up build's digest.
    """

    name = "deploy"
    # What `python -m repro run` imports on its way to the flow.
    imports = (
        "repro.cli", "repro.baremetal", "repro.nn.zoo", "repro.serve",
        "repro.compiler", "repro.analyze", "repro.store",
    )

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.digests: list[tuple[str, str]] = []

    def _deploy(self, store_root: Path):
        from repro.baremetal import generate_baremetal
        from repro.baremetal.pipeline import bundle_cache_key
        from repro.nn.zoo import ZOO
        from repro.nvdla.config import Precision, get_config
        from repro.store import BundleStore

        config = get_config(CONFIG)
        bundle = generate_baremetal(ZOO[MODEL](), config, input_image=self.image, verify=True)
        store = BundleStore(store_root)
        key = bundle_cache_key(MODEL, config, Precision.INT8)
        store.put_bundle(key, bundle)
        return bundle, store.get_bundle(key)

    def setup(self) -> None:
        from repro.nn.zoo import ZOO

        self.image = make_image(self.seed, 0, ZOO[MODEL]().input_shape)
        with tempfile.TemporaryDirectory(dir=self.scratch) as root:
            bundle, back = self._deploy(Path(root))
        self.reference_digest = bundle.artifact_digest()
        if back is None or back.artifact_digest() != self.reference_digest:
            raise RuntimeError("set-up store round trip did not return the bundle")

    def run_window(self, seconds, clock, ops) -> Window:
        def prepare(index):
            return Path(tempfile.mkdtemp(dir=self.scratch))

        def call(root):
            from repro.errors import StaticAnalysisError

            try:
                return root, self._deploy(root)
            except StaticAnalysisError:  # analysis not clean: a failed op
                return root, (None, None)

        def finish(index, value, window):
            root, (bundle, back) = value
            shutil.rmtree(root)
            self.digests.append((
                bundle.artifact_digest() if bundle else "",
                back.artifact_digest() if back else "",
            ))
            return 1

        return closed_loop(seconds, clock, ops, prepare, call, finish)

    def check(self) -> int:
        # An op whose analysis raised recorded empty digests.
        return sum(
            1 for built, back in self.digests
            if built != self.reference_digest or back != built
        )


class Simulate:
    """Cycle-accurate resnet18 inference on a reused ``SocWorker``.

    The paper's Tables II/III measurement: ISS + buses + NVDLA engine,
    a fresh seeded input per op.  Compilation happens only in set-up.
    """

    name = "simulate"
    imports = ("repro.baremetal", "repro.nn.zoo", "repro.serve", "repro.core")

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.results: list = []

    def setup(self) -> None:
        from repro.serve import BundleCache, DeploymentSpec, SocWorker

        self.cache = BundleCache()
        self.bundle = self.cache.bundle_for(MODEL, CONFIG)
        self.shape = self.bundle.loadable.input_tensor.shape
        self.worker = SocWorker(0, DeploymentSpec(MODEL, CONFIG))
        for index in WARMUP_INDICES:  # reach the worker's replay path
            self.worker.run(self.bundle, input_image=make_image(self.seed, index, self.shape))

    def run_window(self, seconds, clock, ops) -> Window:
        def prepare(index):
            return make_image(self.seed, index, self.shape)

        def call(image):
            return self.worker.run(self.bundle, input_image=image)

        def finish(index, result, window):
            self.results.append((index, result.ok, result.output))
            return 1

        return closed_loop(seconds, clock, ops, prepare, call, finish)

    def check(self) -> int:
        from repro.core.fastpath import FastPathExecutor, calibrate
        from repro.nn.reference import ReferenceExecutor
        from repro.nn.zoo import ZOO
        from repro.nvdla.config import get_config

        calibration = calibrate(("lenet5", MODEL), CONFIG, cache=self.cache)
        fast = FastPathExecutor(get_config(CONFIG), calibration=calibration)
        reference = ReferenceExecutor(ZOO[MODEL]())
        failed = 0
        for index, ok, output in self.results:
            if not ok or output is None:
                failed += 1
                continue
            image = make_image(self.seed, index, self.shape)
            fast_output = fast.run(self.bundle, input_image=image).output
            reference.run(image, record_blobs=True)
            expected = reference.blobs[REFERENCE_BLOB].reshape(-1)
            correlation = np.corrcoef(output.reshape(-1), expected)[0, 1]
            if not np.array_equal(output, fast_output) or not (
                correlation >= REFERENCE_MIN_CORRELATION
            ):
                failed += 1
        return failed


class ServeBurst:
    """Closed loop: bursts of 8 fast-tier resnet18 requests, batch 8.

    Saturated serving: the client submits a whole burst to an in-process
    :class:`InferenceService` over a calibrated fast tier, drains it, and
    only then sends the next burst.  One latency sample is one burst,
    because the client waits for all eight.
    """

    name = "serve_burst"
    imports = ("repro.serve", "repro.core")

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.sent: dict[int, int] = {}  # request id -> input index
        self.served: list = []  # (request id, ok, output)

    def setup(self) -> None:
        from repro.core.fastpath import calibrate
        from repro.serve import BundleCache, DeploymentSpec, InferenceService

        cache = BundleCache()
        calibration = calibrate(("lenet5", MODEL), CONFIG, cache=cache)
        self.service = InferenceService(cache=cache, max_batch_size=BURST,
                                        calibration=calibration)
        self.spec = DeploymentSpec(MODEL, CONFIG, execution_mode="fast")
        self.shape = cache.bundle_for(MODEL, CONFIG).loadable.input_tensor.shape
        self._next_id = 0
        for index in WARMUP_INDICES:  # resident fast-tier state
            self._submit(index, make_image(self.seed, index, self.shape), tracked=False)
        self.service.run_pending()

    def _submit(self, index: int, image: np.ndarray, tracked: bool = True) -> None:
        from repro.serve import InferenceRequest

        self.service.submit(InferenceRequest(self._next_id, self.spec, image))
        if tracked:
            self.sent[self._next_id] = index
        self._next_id += 1

    def run_window(self, seconds, clock, ops) -> Window:
        def prepare(index):
            first = index * BURST
            return [(i, make_image(self.seed, i, self.shape)) for i in range(first, first + BURST)]

        def call(burst):
            for index, image in burst:
                self._submit(index, image)
            return self.service.run_pending()

        def finish(index, responses, window):
            window.batch_sizes.extend(_batch_sizes(responses))
            self.served.extend(
                (r.request_id, r.ok, r.output) for r in responses if r.request_id in self.sent
            )
            return len(responses)

        return closed_loop(seconds, clock, ops, prepare, call, finish)

    def check(self) -> int:
        from repro.serve import DeploymentSpec, SocWorker

        good = [entry for entry in self.served if entry[1] and entry[2] is not None]
        failed = len(self.sent) - len(good)  # failed or never answered
        rng = np.random.default_rng((self.seed, 2))
        worker = SocWorker(0, DeploymentSpec(MODEL, CONFIG))
        bundle = self.service.cache.bundle_for(MODEL, CONFIG)
        for pick in rng.permutation(len(good))[:SERVE_CROSSCHECKS]:
            request_id, _, output = good[int(pick)]
            image = make_image(self.seed, self.sent[request_id], self.shape)
            result = worker.run(bundle, input_image=image)
            if not result.ok or not np.array_equal(result.output, output):
                failed += 1
        return failed


def _batch_sizes(responses) -> list[int]:
    sizes: dict[int, int] = {}
    for response in responses:
        sizes[response.batch_id] = sizes.get(response.batch_id, 0) + 1
    return list(sizes.values())


WORKLOADS = {cls.name: cls for cls in (Deploy, Simulate, ServeBurst)}
