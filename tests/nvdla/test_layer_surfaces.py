"""Layer-surface differential of the fast execution tier.

``test_fastpath_differential.py`` compares the network output only.
The fast tier executes runs of same-shape convolution launches (the
620 ``convN_dw_bK`` depthwise blocks of mobilenet) as one batched
kernel call and scatters each block's result to the surface its own
descriptors name.  A block written to the wrong surface, or with
another block's bias or converter values, can hide from the output.

So here every write stream of every launch
(:func:`repro.nvdla.timing.dma_streams`) is read back from the fast
tier's DRAM image after a run and compared, byte for byte, with the
same range of a functional SoC run on the same input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baremetal import generate_baremetal
from repro.core import FastPathExecutor
from repro.core.address_map import DEFAULT_MAP
from repro.core.fastpath import batch_launches
from repro.nn.zoo import ZOO
from repro.nvdla import NV_SMALL
from repro.nvdla.fastpath import lower_loadable
from repro.nvdla.timing import WRITE, dma_streams
from repro.serve.request import DeploymentSpec, make_input_for
from repro.serve.workers import SocWorker


@pytest.mark.parametrize(
    "model,min_batch",
    [
        pytest.param("resnet18", 1, id="resnet18"),
        pytest.param("mobilenet", 2, marks=pytest.mark.slow, id="mobilenet"),
    ],
)
def test_every_written_surface_matches_cycle_accurate(model, min_batch):
    net = ZOO[model]()
    bundle = generate_baremetal(net, NV_SMALL)
    image = make_input_for(net, np.random.default_rng(20261019))

    launches = [op.descriptors for op in lower_loadable(bundle.loadable, NV_SMALL)]
    runs = batch_launches(launches, NV_SMALL)
    assert [launch for run in runs for launch in run] == launches
    assert max(len(run) for run in runs) >= min_batch

    executor = FastPathExecutor(NV_SMALL)
    fast = executor.run(bundle, input_image=image)
    worker = SocWorker(0, DeploymentSpec(model))
    reference = worker.run(bundle, input_image=image)
    assert fast.ok and reference.ok
    assert np.array_equal(fast.output, reference.output)

    soc_dram = worker.soc.dram.storage
    surfaces = 0
    for index, launch in enumerate(launches):
        for stream in dma_streams(launch, NV_SMALL):
            if stream.direction != WRITE:
                continue
            fast_bytes = executor.port.read(stream.address, stream.nbytes)
            soc_bytes = soc_dram.read(stream.address - DEFAULT_MAP.dram_base, stream.nbytes)
            assert fast_bytes == soc_bytes, (
                f"{model}: launch {index} {stream.unit} surface at "
                f"0x{stream.address:08x} differs from the cycle-accurate run"
            )
            surfaces += 1
    assert surfaces == len(launches)


@pytest.mark.parametrize(
    "model",
    [
        pytest.param("resnet18", id="resnet18"),
        pytest.param("mobilenet", marks=pytest.mark.slow, id="mobilenet"),
    ],
)
def test_every_written_surface_matches_cycle_accurate_in_each_batch_slot(model):
    """The same check for requests k > 0 of a batch: each request runs
    on its own copy-on-write DRAM image, and every surface it writes
    must equal the cycle-accurate run of its own input."""
    net = ZOO[model]()
    bundle = generate_baremetal(net, NV_SMALL)
    rng = np.random.default_rng(20261020)
    images = np.stack([make_input_for(net, rng) for _ in range(3)])
    launches = [op.descriptors for op in lower_loadable(bundle.loadable, NV_SMALL)]

    executor = FastPathExecutor(NV_SMALL)
    batch = executor.run(bundle, input_image=images)
    worker = SocWorker(0, DeploymentSpec(model))
    for slot in (1, 2):
        reference = worker.run(bundle, input_image=images[slot])
        assert reference.ok
        assert np.array_equal(batch.output[slot], reference.output)
        soc_dram = worker.soc.dram.storage
        port = executor.mcifs[slot].port
        for index, launch in enumerate(launches):
            for stream in dma_streams(launch, NV_SMALL):
                if stream.direction != WRITE:
                    continue
                assert port.read(stream.address, stream.nbytes) == soc_dram.read(
                    stream.address - DEFAULT_MAP.dram_base, stream.nbytes
                ), (
                    f"{model}: slot {slot}, launch {index} {stream.unit} surface at "
                    f"0x{stream.address:08x} differs from the cycle-accurate run"
                )
