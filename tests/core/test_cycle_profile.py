"""The premise of the fast tier's cycle profiles: one bundle, one timing.

The bare-metal program never reads tensor data and softmax runs on the
host, so a bundle's cycle-accurate run — cycles, instructions, the
instruction mix and the per-op schedule — cannot depend on its input.
:class:`~repro.core.fastpath.FastPathExecutor` records that run once
per (artifact digest, memory width) and replays it.  Should a future
CPU-side op grow data-dependent control flow, these properties fail
loudly instead of the fast tier drifting silently.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baremetal import generate_baremetal
from repro.compiler import CompileOptions
from repro.core import FastPathExecutor, Soc
from repro.nn.zoo import lenet5
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision
from repro.nvdla.fastpath import pack_input
from tests.compiler.test_fusion_properties import tower_nets
from tests.nvdla.test_fastpath_differential import timing_view

#: deployment -> (hardware, precision, memory-bus width)
DEPLOYMENTS = {
    "nv_small": (NV_SMALL, Precision.INT8, 32),
    "nv_full": (NV_FULL, Precision.FP16, 64),
}
INPUT_KINDS = ("zeros", "saturating", "random", "none")

SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _image(kind: str, shape, seed: int) -> np.ndarray | None:
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return np.zeros(shape, np.float32)
    if kind == "saturating":  # far past the INT8 range, either sign
        return rng.choice([-1e3, 1e3], size=shape).astype(np.float32)
    if kind == "random":
        return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
    return None  # the input baked into the bundle


def _soc_timing(bundle, deployment: str, image: np.ndarray | None) -> tuple:
    """Timing of one functional cycle-accurate run on ``image``."""
    config, _, width = DEPLOYMENTS[deployment]
    soc = Soc(config, memory_bus_width_bits=width)
    soc.load_bundle(bundle)
    if image is not None:
        soc.preload_dram(*pack_input(bundle.loadable, config, image))
    result = soc.run_inference(bundle)
    assert result.ok
    return timing_view(result)


def _recorded_timing(bundle, deployment: str) -> tuple:
    config, _, width = DEPLOYMENTS[deployment]
    return timing_view(
        FastPathExecutor(config, memory_bus_width_bits=width).estimate(bundle)
    )


@functools.lru_cache(maxsize=None)
def _lenet5(deployment: str):
    config, precision, _ = DEPLOYMENTS[deployment]
    bundle = generate_baremetal(lenet5(), config, precision=precision)
    return bundle, _recorded_timing(bundle, deployment)


@SETTINGS
@given(
    deployment=st.sampled_from(sorted(DEPLOYMENTS)),
    kind=st.sampled_from(INPUT_KINDS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_lenet5_has_one_profile(deployment, kind, seed):
    bundle, recorded = _lenet5(deployment)
    image = _image(kind, bundle.loadable.input_tensor.shape, seed)
    assert _soc_timing(bundle, deployment, image) == recorded


@SETTINGS
@given(
    net=tower_nets(),
    deployment=st.sampled_from(sorted(DEPLOYMENTS)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_tower_net_has_one_profile(net, deployment, seed):
    config, precision, _ = DEPLOYMENTS[deployment]
    bundle = generate_baremetal(net, config, precision=precision)
    recorded = _recorded_timing(bundle, deployment)
    for kind in INPUT_KINDS:
        image = _image(kind, net.input_shape, seed)
        assert _soc_timing(bundle, deployment, image) == recorded, kind


def test_fusion_modes_get_their_own_profiles():
    """The profile key is the artifact, not the (model, config) pair:
    lenet5's descriptor, graph and off bundles each get their own
    profile, equal to their own SoC run."""
    executor = FastPathExecutor(NV_SMALL)
    cycles = {}
    for mode in ("descriptor", "graph", "off"):
        bundle = generate_baremetal(
            lenet5(), NV_SMALL, compile_options=CompileOptions(fusion=mode)
        )
        result = executor.run(bundle)
        assert timing_view(result) == _soc_timing(
            bundle, "nv_small", None
        ), mode
        cycles[mode] = result.cycles
    assert len(executor.profiles) == 3
    assert len(set(cycles.values())) == 3, cycles
