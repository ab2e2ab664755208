"""Differential lockdown of the fast execution tier.

For every zoo model on nv_small (INT8), and for lenet5 and resnet18 on
nv_full (FP16, 64-bit memory path), the fast path must agree with the
cycle-accurate reference on both axes the serving layer exposes:

- **function** — output tensors bit-identical to a full SoC run of
  the same bundle (same program, same preloads, same input);
- **timing** — *exactly* the same run: cycles, instructions,
  active/skipped cycles, the instruction-class mix, and every op's
  (kind, sink, group, start, end, priced total).  The fast tier
  replays a recorded timing-fidelity run, so anything short of
  equality is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baremetal import generate_baremetal
from repro.core import FastPathExecutor, Soc, calibrate
from repro.nn.zoo import ZOO
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision
from repro.riscv.program import Program
from repro.serve.cache import BundleCache
from repro.serve.request import make_input_for

SHARED_MODELS = ("lenet5", "resnet18")

ZOO_CASES = [
    pytest.param("lenet5", id="lenet5"),
    pytest.param("resnet18", id="resnet18"),
    pytest.param("mobilenet", marks=pytest.mark.slow, id="mobilenet"),
    pytest.param("googlenet", marks=pytest.mark.slow, id="googlenet"),
    pytest.param("alexnet", marks=pytest.mark.slow, id="alexnet"),
    pytest.param("resnet50", marks=pytest.mark.slow, id="resnet50"),
]


@pytest.fixture(scope="module")
def cache():
    """Holds the small bundles; big models build per test."""
    return BundleCache()


@pytest.fixture(scope="module")
def table(cache):
    return calibrate(SHARED_MODELS, NV_SMALL, cache=cache)


#: The program of every bundle built here, by (model, config name,
#: precision).  Programs are small and fidelity-independent, so the ISS
#: golden suite (``test_iss_golden.py``, collected after this module)
#: replays them instead of compiling the zoo again.
PROGRAMS: dict[tuple[str, str, Precision], Program] = {}


def _bundle(
    model: str,
    cache: BundleCache,
    config=NV_SMALL,
    precision: Precision = Precision.INT8,
    fidelity: str = "functional",
):
    if model in SHARED_MODELS:
        bundle = cache.bundle_for(model, config, precision=precision, fidelity=fidelity)
    else:
        # 224×224-class bundles are built locally so module memory does
        # not accumulate all six weight blobs + traces at once.
        bundle = generate_baremetal(
            ZOO[model](), config, precision=precision, fidelity=fidelity
        )
    PROGRAMS[(model, config.name, precision)] = bundle.program
    return bundle


def timing_view(run) -> tuple:
    """Everything a run (or a recorded profile) reports about time, in
    comparable form."""
    stats = run.stats
    return (
        stats.cycles,
        stats.instructions,
        stats.active_cycles,
        stats.skipped_cycles,
        stats.by_class,
        [
            (r.kind, r.sink, r.group, r.start_cycle, r.end_cycle, r.timing.total)
            for r in run.op_records
        ],
    )


@pytest.mark.parametrize("model", ZOO_CASES)
def test_fast_path_matches_cycle_accurate(model, cache, table):
    bundle = _bundle(model, cache)
    soc = Soc(NV_SMALL)
    soc.load_bundle(bundle)
    reference = soc.run_inference(bundle)
    assert reference.ok, f"cycle-accurate {model} run failed"

    result = FastPathExecutor(NV_SMALL, calibration=table).run(bundle)
    assert result.ok

    # Function: bit-identical output tensors.
    assert reference.output is not None and result.output is not None
    assert np.array_equal(reference.output, result.output), (
        f"{model}: fast-path output diverges from the cycle-accurate SoC"
    )
    # Timing: the very same run, not an estimate of it.
    assert timing_view(result) == timing_view(reference), model
    assert result.seconds == reference.seconds


def test_fresh_inputs_stay_bit_identical(cache, table):
    """Per-request input replacement (the serving path) must agree too."""
    rng = np.random.default_rng(20260729)
    from repro.serve.workers import SocWorker
    from repro.serve.request import DeploymentSpec

    bundle = cache.bundle_for("lenet5", "nv_small")
    worker = SocWorker(0, DeploymentSpec("lenet5"))
    executor = FastPathExecutor(NV_SMALL, calibration=table)
    for _ in range(3):
        image = make_input_for(ZOO["lenet5"](), rng)
        reference = worker.run(bundle, input_image=image)
        fast = executor.run(bundle, input_image=image)
        assert np.array_equal(reference.output, fast.output)
        assert timing_view(fast) == timing_view(reference)


def test_fp16_nv_full_differential(cache):
    """The wide FP16 builds agree too (64-bit memory path, Table III)."""
    executor = FastPathExecutor(NV_FULL, memory_bus_width_bits=64)
    for model in SHARED_MODELS:
        bundle = _bundle(model, cache, NV_FULL, Precision.FP16)
        soc = Soc(NV_FULL, memory_bus_width_bits=64)
        soc.load_bundle(bundle)
        reference = soc.run_inference(bundle)
        result = executor.run(bundle)
        assert np.array_equal(reference.output, result.output), model
        assert timing_view(result) == timing_view(reference), model


def test_calibration_entries_within_band(cache, table):
    """``calibrate`` records one profile per model, equal to a
    cycle-accurate run of that bundle (the band is zero)."""
    for model in SHARED_MODELS:
        bundle = cache.bundle_for(model, "nv_small")
        profile = table[(bundle.artifact_digest(), 32)]
        soc = Soc(NV_SMALL)
        soc.load_bundle(bundle)
        reference = soc.run_inference(bundle)
        assert profile.stats == reference.stats, model
        assert list(profile.op_records) == reference.op_records, model
