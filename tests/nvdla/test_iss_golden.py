"""Golden lockdown of the cycle-accurate ISS.

Every number the paper reports comes out of one timing-fidelity run of
a bundle's bare-metal program on :class:`~repro.core.Soc`, and the fast
tier replays exactly that run (its recorded cycle profile).  This
suite pins those runs for the six zoo models on nv_small (INT8) and on
nv_full (FP16, 64-bit memory path) against ``golden/iss_golden.json``:
cycles, instructions, active and skipped cycles, poll fast-forwards,
the instruction-class mix, every pipeline stall counter, the console
output and a SHA-256 over the engine's op records.  A simulator
refactor must reproduce the file exactly; a deliberate timing change
re-records it and says so.

Re-record (the programs' SHA-256 is stored too, so a codegen change
shows up as a program mismatch, not as an ISS drift)::

    PYTHONPATH=src python tests/nvdla/test_iss_golden.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from repro.core import Soc
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision
from repro.serve.cache import BundleCache
# The module object pytest collected (this directory is on sys.path), so
# PROGRAMS holds what the differential suite built earlier in the session.
from test_fastpath_differential import PROGRAMS  # noqa: I001
from test_fastpath_differential import _bundle as build_bundle

GOLDEN = Path(__file__).parent / "golden" / "iss_golden.json"

#: deployment -> (hardware, precision, memory-bus width)
DEPLOYMENTS = {
    "nv_small": (NV_SMALL, Precision.INT8, 32),
    "nv_full": (NV_FULL, Precision.FP16, 64),
}
MODELS = ("lenet5", "resnet18", "mobilenet", "googlenet", "alexnet", "resnet50")
#: 224x224-class builds, slow-marked as in the fast-tier differential suite.
SLOW_MODELS = frozenset(MODELS[2:])


def _record_view(record) -> list:
    return [
        record.index,
        record.kind,
        record.sink,
        record.group,
        record.start_cycle,
        record.end_cycle,
        record.timing.as_dict(),
        record.detail,
    ]


def iss_snapshot(program, deployment: str) -> dict:
    """Everything one timing-fidelity SoC run of ``program`` reports."""
    config, _, width = DEPLOYMENTS[deployment]
    soc = Soc(config, fidelity="timing", memory_bus_width_bits=width)
    soc.load_program(program)
    result = soc.run_inference()
    stats = result.stats
    pipeline = soc.cpu.pipeline.stats
    records = json.dumps(
        [_record_view(r) for r in result.op_records], sort_keys=True, default=repr
    )
    return {
        "program_sha256": hashlib.sha256(program.to_bytes()).hexdigest(),
        "ok": result.ok,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "active_cycles": stats.active_cycles,
        "skipped_cycles": stats.skipped_cycles,
        "fast_forwards": stats.fast_forwards,
        "by_class": dict(sorted(stats.by_class.items())),
        "pipeline": {
            "instructions": pipeline.instructions,
            "cycles": pipeline.cycles,
            "load_use_stalls": pipeline.load_use_stalls,
            "control_flushes": pipeline.control_flushes,
            "muldiv_stalls": pipeline.muldiv_stalls,
            "bus_wait_cycles": pipeline.bus_wait_cycles,
            "by_class": dict(sorted(pipeline.by_class.items())),
        },
        "console": soc.cpu.console_text(),
        "op_records": len(result.op_records),
        "op_records_sha256": hashlib.sha256(records.encode()).hexdigest(),
    }


def _program(model: str, deployment: str, cache: BundleCache):
    """The differential suite's program for this deployment when it built
    one, else a fresh build.  The program is the same for both VP
    fidelities (the stored SHA-256 checks it); timing skips the tensor
    math, which keeps the 224x224 FP16 builds affordable."""
    config, precision, _ = DEPLOYMENTS[deployment]
    program = PROGRAMS.get((model, config.name, precision))
    if program is None:
        program = build_bundle(model, cache, config, precision, fidelity="timing").program
    return program


CASES = [
    pytest.param(
        model,
        deployment,
        id=f"{model}-{deployment}",
        marks=[pytest.mark.slow] if model in SLOW_MODELS else [],
    )
    for deployment in DEPLOYMENTS
    for model in MODELS
]


@pytest.fixture(scope="module")
def cache():
    return BundleCache()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("model, deployment", CASES)
def test_iss_reproduces_golden_run(model, deployment, cache, golden):
    expected = golden[f"{model}/{deployment}"]
    actual = iss_snapshot(_program(model, deployment, cache), deployment)
    assert actual["program_sha256"] == expected["program_sha256"], (
        f"{model}/{deployment}: the generated program changed; re-record the golden file"
    )
    assert actual == expected


def _record(out: Path) -> None:
    cache = BundleCache()
    snapshots = {}
    for deployment in DEPLOYMENTS:
        for model in MODELS:
            snapshots[f"{model}/{deployment}"] = iss_snapshot(
                _program(model, deployment, cache), deployment
            )
            cache.clear()
            print(f"{model}/{deployment}: {snapshots[f'{model}/{deployment}']['cycles']} cycles")
    out.write_text(json.dumps(snapshots, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-record the ISS golden file.")
    parser.add_argument("--record", action="store_true", help="rewrite the golden file")
    parser.add_argument("--out", type=Path, default=GOLDEN)
    args = parser.parse_args()
    if not args.record:
        parser.error("pass --record to rewrite the golden file")
    _record(args.out)
