"""The fast tier executes the register program, not a copy of it.

:func:`repro.nvdla.programming.build_chains` is the one source of
NVDLA register writes: the VP runtime replays it over the CSB (so it
ends up in the bare-metal bundle), and the fast tier lowers by replaying
it into fresh register files.  Patching one programmed register must
therefore move both tiers together — and a register a unit parser
rejects must stop fast-tier lowering with a typed error.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baremetal import generate_baremetal
from repro.compiler import compile_network
from repro.core import CalibrationTable, FastPathExecutor, Soc
from repro.errors import ConfigurationError
from repro.nn.zoo import lenet5
from repro.nvdla import NV_SMALL, lower_loadable
from repro.nvdla import programming
from repro.nvdla.programming import WRITE
from repro.vp import runtime


def _patch_register(monkeypatch, layer: str, register: str, change) -> None:
    """Rewrite one register write of ``layer``'s chain wherever chains are built."""
    original = programming.program_op

    def patched(*args, **kwargs):
        chain = original(*args, **kwargs)
        if chain.op_name == layer:
            chain.events = [
                replace(e, value=change(e.value))
                if e.kind == WRITE and e.register == register
                else e
                for e in chain.events
            ]
        return chain

    monkeypatch.setattr(programming, "program_op", patched)
    monkeypatch.setattr(runtime, "program_op", patched)


def _fast_output(bundle) -> np.ndarray:
    table = CalibrationTable()
    executor = FastPathExecutor(NV_SMALL, calibration=table)
    estimate = executor.estimate(bundle)
    table.admit(bundle.network, "nv_small", "int8", estimate.total_cycles, estimate.total_cycles)
    return executor.run(bundle).output


def test_patched_register_moves_fast_tier_with_cycle_accurate(monkeypatch):
    unpatched = _fast_output(generate_baremetal(lenet5(), NV_SMALL))

    # conv2 is a fused conv+SDP+PDP chain; its SDP requantisation shift
    # moves by one, halving every value it writes.
    _patch_register(monkeypatch, "conv2", "D_CVT_SHIFT", lambda v: v + 1)
    bundle = generate_baremetal(lenet5(), NV_SMALL)
    soc = Soc(NV_SMALL)
    soc.load_bundle(bundle)
    reference = soc.run_inference(bundle)
    assert reference.ok

    fast = _fast_output(bundle)
    assert np.array_equal(fast, reference.output)
    assert not np.array_equal(fast, unpatched)


def test_rejected_register_fails_fast_lowering_with_typed_error(monkeypatch):
    loadable = compile_network(lenet5(), NV_SMALL)
    _patch_register(monkeypatch, "conv1", "D_WEIGHT_BYTES", lambda v: v + 1)
    with pytest.raises(ConfigurationError, match="conv1"):
        lower_loadable(loadable, NV_SMALL)
