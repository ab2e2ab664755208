"""Self-tests of the benchmark: sensitivity, layer claims, exact repeat.

Run from the root of a checkout (a few minutes on two cores)::

    python3 -m pytest perfbench/selfcheck.py -q

- Sensitivity: a fixed busy-wait is patched into one entry point per
  heavy layer.  On the layer's heavy workload the reported time per
  request (``1/ops_per_s``) must grow by about the delay times the
  calls the timed window made, scaled to reference host speed like
  every reported time (see ``hostspeed.py``); on a workload that
  bypasses the layer ``ops_per_s`` must stay within the bound
  ``BENCHMARK.json`` fixes.  Time per request sums the whole window, so
  it is steadier than a short run's median.
- Layer claims: a traced run of each workload calls the layers the
  workload claims to measure and none of those it claims to bypass.
- Exact repeat: two traced runs with one seed report identical
  simulated counts.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import pytest

import bench
from layers import resolve
from workloads import WORKLOADS

SEED = 11
SECONDS = 4.0
BOUNDS = {
    metric["name"]: metric["bound"]
    for metric in json.loads((bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
#: Share of the predicted shift a sensitivity run must land within.
TOLERANCE = 0.5


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def run(workload: str, trace: bool = False) -> tuple[dict[str, float], dict]:
    result, report = bench.run_benchmark(workload, SEED, SECONDS, trace)
    assert result["correct"], result
    assert result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}, report


@pytest.fixture(scope="module")
def baseline():
    runs: dict[str, tuple[dict, dict]] = {}

    def get(workload: str) -> tuple[dict, dict]:
        if workload not in runs:
            runs[workload] = run(workload)
        return runs[workload]

    return get


class Slowdown:
    """Adds a fixed delay to every call; counts calls inside timed windows."""

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.in_window = False
        self.window_calls = 0

    def slow(self, fn):
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            self.window_calls += self.in_window
            busy_wait(self.delay)
            return fn(*args, **kwargs)

        return slowed

    def mark(self, run_window):
        @functools.wraps(run_window)
        def marked(*args, **kwargs):
            self.in_window = True
            try:
                return run_window(*args, **kwargs)
            finally:
                self.in_window = False

        return marked


@dataclass(frozen=True)
class Case:
    target: str
    attribute: str
    delay: float
    heavy: str  # workload whose predicted metric must move
    bypass: str  # workload that must stay within its bounds


CASES = {
    "weight_extract": Case("repro.baremetal.pipeline", "extract_initial_memory", 0.5,
                           "deploy", "simulate"),
    "store.put_bundle": Case("repro.store.store:BundleStore", "put_bundle", 0.5,
                             "deploy", "serve_burst"),
    "SocWorker.run": Case("repro.serve.workers:SocWorker", "run", 0.08,
                          "simulate", "serve_burst"),
    "conv2d_direct": Case("repro.nvdla.units.conv_pipeline", "conv2d_direct", 0.0005,
                          "serve_burst", "deploy"),
    "BundleCache.bundle_for": Case("repro.serve.cache:BundleCache", "bundle_for", 0.1,
                                   "serve_burst", "simulate"),
}


def slowed_run(monkeypatch, case: Case, workload: str):
    slowdown = Slowdown(case.delay)
    owner = resolve(case.target)
    monkeypatch.setattr(owner, case.attribute, slowdown.slow(owner.__dict__[case.attribute]))
    cls = WORKLOADS[workload]
    monkeypatch.setattr(cls, "run_window", slowdown.mark(cls.run_window))
    metrics, report = run(workload)
    monkeypatch.undo()
    return metrics, report, slowdown.window_calls


@pytest.mark.parametrize("layer", sorted(CASES))
def test_heavy_workload_moves_by_delay_times_calls(layer, baseline, monkeypatch):
    case = CASES[layer]
    base, _ = baseline(case.heavy)
    slowed, report, calls = slowed_run(monkeypatch, case, case.heavy)
    assert calls > 0, f"{layer}: the timed window never called the entry point"
    # Closed loop, one caller: every delayed call adds to the time the
    # client spends per request, so 1/ops_per_s grows by delay x calls,
    # at the host-speed scale the slowed run was measured at.
    predicted = case.delay * calls / report["requests"] * report["scaled_over_raw"]
    moved = 1.0 / slowed["ops_per_s"] - 1.0 / base["ops_per_s"]
    assert abs(moved - predicted) <= TOLERANCE * predicted, (layer, moved, predicted)


@pytest.mark.parametrize("layer", sorted(CASES))
def test_bypass_workload_stays_within_bounds(layer, baseline, monkeypatch):
    case = CASES[layer]
    base, _ = baseline(case.bypass)
    slowed, _, _ = slowed_run(monkeypatch, case, case.bypass)
    assert slowed["ops_per_s"] >= base["ops_per_s"] * (1 - BOUNDS["ops_per_s"]), layer


#: Layers each workload claims to measure, and layers it claims to bypass.
CLAIMS = {
    "deploy": (
        ("compiler", "analyze", "vp", "baremetal.trace_to_config", "baremetal.codegen",
         "baremetal.weight_extract", "riscv.assembler", "store", "nvdla.compute"),
        ("core.soc", "core.fastpath", "serve"),
    ),
    "simulate": (("core.soc", "nvdla.compute"),
                 ("compiler", "vp", "store", "core.fastpath", "serve")),
    "serve_burst": (("serve", "core.fastpath", "nvdla.compute"),
                    ("compiler", "vp", "store", "core.soc")),
}

#: Simulated statistics: they must repeat exactly for one seed.
SIMULATED = (
    "vp.dbb_txns", "baremetal.config_cmds", "baremetal.preload_bytes",
    "riscv.program_words", "store.bytes", "core.soc.sim_cycles", "core.soc.instructions",
    "core.soc.cpi", "core.soc.skipped_share", "core.soc.dram_bytes",
)


@pytest.fixture(scope="module")
def traced():
    runs: dict[str, dict] = {}

    def get(workload: str) -> dict:
        if workload not in runs:
            runs[workload] = run(workload, trace=True)[0]
        return runs[workload]

    return get


@pytest.mark.parametrize("workload", sorted(CLAIMS))
def test_traced_run_measures_the_claimed_layers(workload, traced):
    metrics = traced(workload)
    measured, bypassed = CLAIMS[workload]
    for layer in measured:
        assert metrics[f"{layer}.calls"] > 0, (workload, layer)
        assert metrics[f"{layer}.busy_ms"] > 0, (workload, layer)
    for layer in bypassed:
        assert metrics[f"{layer}.calls"] == 0, (workload, layer)
    assert 0.9 <= metrics["harness.coverage"] <= 1.0


@pytest.mark.parametrize("workload", ["deploy", "simulate"])
def test_simulated_counts_repeat_exactly(workload, traced):
    first = traced(workload)
    second = run(workload, trace=True)[0]
    names = SIMULATED + tuple(name for name in first if name.startswith("accuracy."))
    assert [first[name] for name in names] == [second[name] for name in names]
    assert any(first[name] > 0 for name in SIMULATED)
