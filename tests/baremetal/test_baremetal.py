"""Bare-metal flow: config files, weight extraction, codegen, pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baremetal import (
    ConfigCommand,
    extract_initial_memory,
    generate_assembly,
    generate_baremetal,
    parse_config_file,
    render_config_file,
    split_by_regions,
    trace_to_config,
)
from repro.baremetal.codegen import CodegenOptions, MAGIC_DONE, MAGIC_FAIL, estimate_program_words
from repro.baremetal.image import segments_to_bin
from repro.baremetal.weight_extract import MemorySegment, total_bytes
from repro.errors import CodegenError
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision
from repro.nvdla.fastpath import pack_input
from repro.riscv import assemble
from repro.vp.trace_log import TraceLog


# ----------------------------------------------------------------------
# Config-file format.
# ----------------------------------------------------------------------


def test_config_file_roundtrip():
    commands = [
        ConfigCommand("write_reg", 0xB010, 0x1),
        ConfigCommand("read_reg", 0xC, 0x4, 0x4),
    ]
    text = render_config_file(commands, header="demo")
    back = parse_config_file(text)
    assert back == commands
    assert text.startswith("# demo")


def test_config_file_parse_errors():
    with pytest.raises(CodegenError):
        parse_config_file("poke 0x0 0x1\n")
    with pytest.raises(CodegenError):
        parse_config_file("write_reg 0x0\n")


def test_config_command_validation():
    with pytest.raises(CodegenError):
        ConfigCommand("jump", 0, 0)
    with pytest.raises(CodegenError):
        ConfigCommand("write_reg", -1, 0)


# ----------------------------------------------------------------------
# Trace → config.
# ----------------------------------------------------------------------


def test_trace_to_config_converts_reads_and_writes():
    log = TraceLog()
    log.log_csb(0, 0x5010, 0x1234, True)
    log.log_csb(1, 0x5010, 0x1234, False)
    commands = trace_to_config(log)
    assert commands[0] == ConfigCommand("write_reg", 0x5010, 0x1234)
    assert commands[1].kind == "read_reg"
    assert commands[1].mask == 0xFFFFFFFF


def test_trace_to_config_masks_interrupt_polls():
    from repro.nvdla.csb import UNIT_BASES
    from repro.nvdla.units.glb import INTR_STATUS

    log = TraceLog()
    log.log_csb(0, UNIT_BASES["GLB"] + INTR_STATUS, 0x4, False)
    command = trace_to_config(log)[0]
    assert command.mask == 0x4  # poll only the completion bit


# ----------------------------------------------------------------------
# Weight extraction.
# ----------------------------------------------------------------------


def test_extraction_keeps_first_read_occurrence():
    log = TraceLog()
    log.log_dbb(0, 0x100, b"\x11\x22", False)
    log.log_dbb(1, 0x100, b"\x99\x99", False)  # later duplicate ignored
    segments = extract_initial_memory(log)
    assert segments == [MemorySegment(0x100, b"\x11\x22")]


def test_extraction_skips_written_then_read():
    log = TraceLog()
    log.log_dbb(0, 0x200, b"\xAA", True)  # NVDLA wrote it first
    log.log_dbb(1, 0x200, b"\xAA", False)  # then read back
    assert extract_initial_memory(log) == []


def test_extraction_coalesces_contiguous_lines():
    log = TraceLog()
    log.log_dbb(0, 0x100, bytes(64), False)
    log.log_dbb(1, 0x140, bytes(64), False)
    log.log_dbb(2, 0x300, bytes(4), False)
    segments = extract_initial_memory(log)
    assert [s.address for s in segments] == [0x100, 0x300]
    assert len(segments[0].data) == 128
    assert total_bytes(segments) == 132


def test_split_by_regions_partitions_and_splits():
    segments = [MemorySegment(0x90, bytes(range(32)))]
    regions = {"weights": (0x80, 0x20), "input": (0xA0, 0x20)}
    split = split_by_regions(segments, regions)
    assert split["weights"][0].address == 0x90
    assert len(split["weights"][0].data) == 0x10
    assert split["input"][0].address == 0xA0
    assert len(split["input"][0].data) == 0x10


def test_segments_to_bin_fills_gaps():
    image = segments_to_bin(
        "x.bin", [MemorySegment(0x10, b"\x01"), MemorySegment(0x13, b"\x04")]
    )
    assert image.load_address == 0x10
    assert image.data == b"\x01\x00\x00\x04"


# ----------------------------------------------------------------------
# Codegen.
# ----------------------------------------------------------------------


def test_generated_assembly_assembles():
    commands = [
        ConfigCommand("write_reg", 0x5010, 0xDEADBEEF),
        ConfigCommand("read_reg", 0xC, 0x4, 0x4),
        ConfigCommand("write_reg", 0xC, 0x4),
    ]
    asm = generate_assembly(commands)
    program = assemble(asm)
    assert len(program.words) > 10
    assert len(program.words) <= estimate_program_words(commands)


def test_generated_assembly_window_caching():
    commands = [ConfigCommand("write_reg", 0x5000 + 4 * i, i) for i in range(10)]
    asm = generate_assembly(commands)
    # One window load for ten same-window writes.
    assert asm.count("li   s0") == 1


def test_small_constants_use_single_instruction():
    asm = generate_assembly([ConfigCommand("write_reg", 0x5010, 3)])
    assert "addi t0, x0, 3" in asm


def test_codegen_options_validated():
    with pytest.raises(CodegenError):
        CodegenOptions(poll_limit=0)


def test_magics_differ():
    assert MAGIC_DONE != MAGIC_FAIL


# ----------------------------------------------------------------------
# Full pipeline on a tiny network.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_bundle():
    from repro.nn.graph import Network
    from repro.nn.layers import PoolKind

    net = Network("tiny_bm", seed=7)
    data = net.add_input("data", (1, 8, 8))
    conv = net.add_conv("conv1", data, num_output=8, kernel_size=3)
    relu = net.add_relu("relu1", conv)
    pool = net.add_pool("pool1", relu, PoolKind.MAX, kernel_size=2, stride=2)
    net.add_fc("fc1", pool, num_output=4)
    net.validate()
    return generate_baremetal(net, NV_SMALL)


def test_bundle_has_all_artifacts(tiny_bundle):
    assert len(tiny_bundle.commands) == len(tiny_bundle.trace.csb)
    assert tiny_bundle.program.size_bytes > 0
    assert tiny_bundle.images.preload  # weights at least
    assert "write_reg" in tiny_bundle.config_file_text
    assert tiny_bundle.describe()


@pytest.fixture(
    scope="module",
    params=[
        ("lenet5", "nv_small"),
        ("lenet5", "nv_full"),
        ("resnet18", "nv_small"),
        ("resnet18", "nv_full"),
    ],
    ids="-".join,
)
def zoo_bundle(request):
    from repro.nn.zoo import lenet5, resnet18_cifar

    model, config_name = request.param
    net = {"lenet5": lenet5, "resnet18": resnet18_cifar}[model]()
    config = NV_SMALL if config_name == "nv_small" else NV_FULL
    precision = Precision.INT8 if config_name == "nv_small" else Precision.FP16
    return generate_baremetal(net, config, precision=precision), config


def test_bundle_weight_image_matches_compiler_blob(zoo_bundle):
    """The trace-extracted preload images are byte-for-byte what the
    timing-fidelity flow builds from the loadable and the packed input."""
    bundle, config = zoo_bundle
    images = {image.name: image for image in bundle.images.preload}
    weights, blob = images["weights.bin"], bundle.loadable.weight_blob
    assert weights.load_address == bundle.loadable.weight_base
    assert weights.data[: len(blob)] == blob
    assert not any(weights.data[len(blob) :])  # only a zero tail beyond the blob
    address, packed = pack_input(bundle.loadable, config, bundle.input_image)
    assert (images["input.bin"].load_address, images["input.bin"].data) == (address, packed)


def test_bundle_input_image_extracted(tiny_bundle):
    names = {image.name for image in tiny_bundle.images.preload}
    assert "input.bin" in names


def test_bundle_program_is_valid_riscv(tiny_bundle):
    from repro.riscv import disassemble_program

    listing = disassemble_program(tiny_bundle.program)
    assert "sw" in listing and "lw" in listing


def test_timing_fidelity_bundle_ships_compiler_weights(tiny_net):
    bundle = generate_baremetal(tiny_net, NV_SMALL, fidelity="timing")
    assert bundle.images.preload[0].data == bundle.loadable.weight_blob


def test_deterministic_input_by_seed(tiny_net):
    a = generate_baremetal(tiny_net, NV_SMALL, seed=5)
    b = generate_baremetal(tiny_net, NV_SMALL, seed=5)
    assert np.array_equal(a.input_image, b.input_image)
    assert a.program.words == b.program.words
