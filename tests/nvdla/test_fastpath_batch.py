"""Batch differential of the fast execution tier.

``FastPathExecutor.run`` takes a batch of inputs along a leading axis
and runs every kernel launch once for the whole batch, each request on
its own copy-on-write DRAM image.  For every zoo model on nv_small a
batch of N must be indistinguishable from N single runs and from the
cycle-accurate SoC:

- outputs, bit for bit;
- exact cycles, instruction counts and op records (the recorded
  profile, per request);
- every surface a launch writes (:func:`repro.nvdla.timing.dma_streams`),
  read back from every request's own DRAM image.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baremetal import generate_baremetal
from repro.core import FastPathExecutor
from repro.core.address_map import DEFAULT_MAP
from repro.errors import ConfigurationError
from repro.nn.zoo import ZOO
from repro.nvdla import NV_SMALL
from repro.nvdla.fastpath import lower_loadable
from repro.nvdla.timing import WRITE, dma_streams
from repro.serve.request import DeploymentSpec, make_input_for
from repro.serve.workers import SocWorker

BATCH_SIZES = (1, 2, 8)

ZOO_CASES = [
    pytest.param("lenet5", id="lenet5"),
    pytest.param("resnet18", id="resnet18"),
    pytest.param("mobilenet", marks=pytest.mark.slow, id="mobilenet"),
    pytest.param("googlenet", marks=pytest.mark.slow, id="googlenet"),
    pytest.param("alexnet", marks=pytest.mark.slow, id="alexnet"),
    pytest.param("resnet50", marks=pytest.mark.slow, id="resnet50"),
]


def timing_view(run) -> tuple:
    stats = run.stats
    return (
        run.cycles,
        stats.instructions,
        stats.active_cycles,
        stats.skipped_cycles,
        stats.by_class,
        [
            (r.kind, r.sink, r.group, r.start_cycle, r.end_cycle, r.timing.total)
            for r in run.op_records
        ],
    )


def written_surfaces(read, launches) -> list[bytes]:
    """Every write stream of every launch, read back through ``read``."""
    return [
        read(stream.address, stream.nbytes)
        for launch in launches
        for stream in dma_streams(launch, NV_SMALL)
        if stream.direction == WRITE
    ]


@pytest.mark.parametrize("model", ZOO_CASES)
def test_batch_equals_single_runs_and_cycle_accurate(model):
    net = ZOO[model]()
    bundle = generate_baremetal(net, NV_SMALL)
    launches = [op.descriptors for op in lower_loadable(bundle.loadable, NV_SMALL)]
    rng = np.random.default_rng(20261020)
    images = np.stack([make_input_for(net, rng) for _ in range(max(BATCH_SIZES))])
    table: dict = {}
    executor = FastPathExecutor(NV_SMALL, calibration=table)

    singles = []
    for image in images:
        result = executor.run(bundle, input_image=image)
        singles.append((result, written_surfaces(executor.port.read, launches)))

    # The cycle-accurate SoC on the first and the last input of the
    # largest batch: slot 0 and a slot k > 0.
    worker = SocWorker(0, DeploymentSpec(model))
    for index in (0, len(images) - 1):
        reference = worker.run(bundle, input_image=images[index])
        assert reference.ok
        soc_dram = worker.soc.dram.storage
        single, surfaces = singles[index]
        assert np.array_equal(single.output, reference.output), (model, index)
        assert timing_view(single) == timing_view(reference), (model, index)
        assert surfaces == written_surfaces(
            lambda address, n: soc_dram.read(address - DEFAULT_MAP.dram_base, n), launches
        ), (model, index)

    for size in BATCH_SIZES:
        batch = executor.run(bundle, input_image=images[:size])
        assert batch.ok
        assert batch.output.shape == (size, *singles[0][0].output.shape)
        for slot in range(size):
            single, surfaces = singles[slot]
            assert np.array_equal(batch.output[slot], single.output), (model, size, slot)
            assert written_surfaces(executor.mcifs[slot].port.read, launches) == surfaces, (
                f"{model}: batch of {size}, slot {slot} wrote a surface its single run did not"
            )
        assert timing_view(batch) == timing_view(singles[0][0]), (model, size)
        assert batch.op_records == singles[0][0].op_records
    assert len(table) == 1  # one recording serves every run and batch size


def test_wrong_shape_batch_is_refused():
    net = ZOO["lenet5"]()
    bundle = generate_baremetal(net, NV_SMALL)
    executor = FastPathExecutor(NV_SMALL)
    c, h, w = bundle.loadable.input_tensor.shape
    for shape in [(2, c, h, w + 1), (0, c, h, w), (1, 1, c, h, w), (c * h * w,)]:
        with pytest.raises(ConfigurationError):
            executor.run(bundle, input_image=np.zeros(shape, dtype=np.float32))
    # A refused batch leaves the executor serving.
    image = make_input_for(net, np.random.default_rng(0))
    assert executor.run(bundle, input_image=image[None]).output.shape[0] == 1
