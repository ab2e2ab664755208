"""One list of DRAM streams per NVDLA launch (:func:`repro.nvdla.timing.dma_streams`).

The engine prices that list and the static analyzer checks it, so
three views of a launch's memory traffic must agree byte for byte: the
bytes the unit kernels move, the byte ranges the timing model prices,
and the surfaces the analyzer reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.analyze import analyze_chains, analyze_loadable, parse_chain
from repro.compiler import CompileOptions, compile_network
from repro.nn.zoo import ZOO
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision, get_config
from repro.nvdla.csb import UNIT_BASES
from repro.nvdla.layout import pack_feature
from repro.nvdla.programming import ENABLE, SELECT, ChainEvent, build_chains, lower_chain
from repro.nvdla.programming import WRITE as EV_WRITE
from repro.nvdla.registers import D_OP_ENABLE, S_POINTER
from repro.nvdla.timing import READ, WRITE, dma_streams
from repro.vp import NvdlaRuntime, VirtualPlatform

from tests.nvdla.test_engine import EngineHarness

PRECISION = {"nv_small": Precision.INT8, "nv_full": Precision.FP16}


class RecordingPort:
    """A DBB port wrapper that logs every moved and every priced byte range."""

    def __init__(self, port) -> None:
        self.port = port
        self.moved: Counter = Counter()
        self.priced: Counter = Counter()

    def read(self, address: int, nbytes: int) -> bytes:
        self.moved[address, nbytes] += 1
        return self.port.read(address, nbytes)

    def write(self, address: int, data: bytes) -> None:
        self.moved[address, len(data)] += 1
        self.port.write(address, data)

    def stream_cycles(self, address: int, nbytes: int) -> int:
        self.priced[address, nbytes] += 1
        return self.port.stream_cycles(address, nbytes)


def _functional_vp(loadable, config, chains=None):
    """Deploy ``loadable`` on a functional VP with a recording DBB port;
    run it (or replay ``chains`` in its place)."""
    platform = VirtualPlatform(config, fidelity="functional", trace=False)
    recorder = RecordingPort(platform.engine.mcif.port)
    platform.engine.mcif.port = recorder
    runtime = NvdlaRuntime(platform)
    runtime.deploy(loadable)
    rng = np.random.default_rng(0)
    runtime.set_input(rng.uniform(-1.0, 1.0, loadable.input_tensor.shape).astype(np.float32))
    if chains is None:
        runtime.execute()
        return platform, recorder
    for chain in chains:
        for event in chain.events:
            offset = {SELECT: S_POINTER, ENABLE: D_OP_ENABLE}.get(event.kind)
            if offset is None:
                offset = platform.engine.units[event.unit].offset_of(event.register)
            platform.csb_write(UNIT_BASES[event.unit] + offset, event.value)
        platform.wait_for_interrupt()
    return platform, recorder


@pytest.mark.parametrize("fusion", ["descriptor", "off"])
@pytest.mark.parametrize("config_name", ["nv_small", "nv_full"])
@pytest.mark.parametrize("model", ["lenet5", "resnet18"])
def test_streams_are_the_bytes_a_functional_run_moves(model, config_name, fusion):
    config = get_config(config_name)
    loadable = compile_network(
        ZOO[model](), config, CompileOptions(precision=PRECISION[config_name], fusion=fusion)
    )
    platform, recorder = _functional_vp(loadable, config)
    streams = [
        stream
        for chain in build_chains(loadable, config)
        for stream in dma_streams(lower_chain(chain, config), config)
    ]
    stats = platform.engine.mcif.stats
    assert sum(s.nbytes for s in streams if s.direction == READ) == stats.bytes_read
    assert sum(s.nbytes for s in streams if s.direction == WRITE) == stats.bytes_written
    # Stream by stream: every range a kernel moved was priced, once.
    assert recorder.priced == recorder.moved
    assert recorder.priced == Counter((s.address, s.nbytes) for s in streams)


def _enable_bn(chain, bn_address: int):
    """``chain`` with the SDP batch-norm stage and its NRDMA read enabled."""
    events = []
    for event in chain.events:
        if event.kind == EV_WRITE and event.register in ("D_DP_BN_CFG", "D_NRDMA_CFG"):
            event = replace(event, value=1)
        events.append(event)
        if event.kind == EV_WRITE and event.register == "D_NRDMA_CFG":
            events += [
                ChainEvent(EV_WRITE, "SDP_RDMA", "D_BN_BASE_ADDR_HIGH", bn_address >> 32),
                ChainEvent(EV_WRITE, "SDP_RDMA", "D_BN_BASE_ADDR_LOW", bn_address & 0xFFFFFFFF),
            ]
    return replace(chain, events=events)


def test_enabled_bn_stage_is_checked_and_priced_as_read():
    """lenet5 conv1 with its BN stage switched on (multipliers read from
    its bias blob): the analyzer reports the BN read, and the engine
    prices exactly the ranges the SDP kernel reads."""
    loadable = compile_network(ZOO["lenet5"](), NV_SMALL, CompileOptions())
    chains = build_chains(loadable, NV_SMALL)
    op = loadable.schedule.ops[chains[0].op_index]
    assert op.name == "conv1"
    bn_address = loadable.weight_base + op.bias_offset
    chains[0] = _enable_bn(chains[0], bn_address)

    layer = parse_chain(chains[0], op, NV_SMALL)
    [bn] = [s for s in layer.surfaces if s.label == "bn_mult:conv1"]
    bn_bytes = op.output.channels * 4  # int32 per channel in the INT8 datapath
    assert (bn.unit, bn.direction, bn.kind, bn.address, bn.size) == (
        "SDP_RDMA", READ, "bias", bn_address, bn_bytes
    )
    report = analyze_chains(chains, loadable, NV_SMALL)
    assert report.clean, report.render()
    assert report.surfaces == analyze_loadable(loadable, NV_SMALL).surfaces + 1

    _, recorder = _functional_vp(loadable, NV_SMALL, chains=chains[:1])
    assert recorder.moved[bn_address, bn_bytes] == 2  # bias, then BN multipliers
    assert recorder.priced == recorder.moved
    assert recorder.priced == Counter((s.address, s.size) for s in layer.surfaces)


def _standalone_sdp(harness):
    """Memory-sourced INT8 SDP with bias and an eltwise operand."""
    rng = np.random.default_rng(1)
    atom = harness.config.atom_channels(Precision.INT8)
    for address in (0x1000, 0x2000):
        tensor = rng.integers(-40, 40, size=(8, 4, 4), dtype=np.int8)
        harness.memory.write(address, pack_feature(tensor, atom, Precision.INT8))
    harness.memory.write(0x4000, np.arange(8, dtype=np.int32).tobytes())
    for unit in ("SDP_RDMA", "SDP"):
        harness.select(unit, 0)
    harness.write("SDP_RDMA", "D_FEATURE_MODE_CFG", 1)
    harness.tensor("SDP_RDMA", "D_SRC", 0x1000, (8, 4, 4))
    harness.write("SDP_RDMA", "D_BRDMA_CFG", 1)
    harness.write("SDP_RDMA", "D_BS_BASE_ADDR_LOW", 0x4000)
    harness.write("SDP_RDMA", "D_ERDMA_CFG", 1)
    harness.tensor("SDP_RDMA", "D_EW", 0x2000, (8, 4, 4))
    harness.write("SDP", "D_DATA_CUBE_WIDTH", 4)
    harness.write("SDP", "D_DATA_CUBE_HEIGHT", 4)
    harness.write("SDP", "D_DATA_CUBE_CHANNEL", 8)
    harness.tensor("SDP", "D_DST", 0x3000, (8, 4, 4))
    harness.write("SDP", "D_DP_BS_CFG", 1)
    harness.write("SDP", "D_DP_EW_CFG", 1)
    harness.write("SDP", "D_CVT_MULT", 1)
    harness.enable("SDP_RDMA")
    harness.enable("SDP")


def _rubik_contract(harness):
    """A contract that regroups 32 channels of 4x4 into 16 of 8x4: the
    output surface is twice the input's bytes on nv_full."""
    harness.memory.write(0x1000, bytes(range(256)) * 2)
    harness.select("RUBIK", 0)
    harness.write("RUBIK", "D_MISC_CFG", 0)
    harness.tensor("RUBIK", "D_DAIN", 0x1000, (32, 4, 4))
    harness.tensor("RUBIK", "D_DAOUT", 0x8000, (16, 8, 4))
    harness.enable("RUBIK")


def _bdma_copy(harness):
    harness.select("BDMA", 0)
    harness.write("BDMA", "D_SRC_ADDR_LOW", 0x1000)
    harness.write("BDMA", "D_DST_ADDR_LOW", 0x8000)
    harness.write("BDMA", "D_LINE_BYTES", 64)
    harness.write("BDMA", "D_LINE_REPEAT", 3)
    harness.enable("BDMA")


@pytest.mark.parametrize(
    "config, program",
    [(NV_SMALL, _standalone_sdp), (NV_FULL, _rubik_contract), (NV_SMALL, _bdma_copy)],
    ids=["sdp-bias-eltwise", "rubik-contract", "bdma"],
)
def test_single_unit_launch_prices_the_bytes_it_moves(config, program):
    harness = EngineHarness(config=config)
    recorder = RecordingPort(harness.engine.mcif.port)
    harness.engine.mcif.port = recorder
    program(harness)
    harness.clock.fast_forward_to_next_event()
    assert len(harness.engine.records) == 1
    stats = harness.engine.mcif.stats
    priced = sum(nbytes * count for (_, nbytes), count in recorder.priced.items())
    assert priced == stats.bytes_read + stats.bytes_written
