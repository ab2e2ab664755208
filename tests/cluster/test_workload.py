"""Workload generation: seeded determinism, arrival shapes, traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    BurstyArrivals,
    ConstantArrivals,
    PoissonArrivals,
    generate_workload,
    load_trace,
    make_arrivals,
    offered_rps,
    save_trace,
)
from repro.errors import ReproError
from repro.serve import DeploymentSpec

LENET = DeploymentSpec("lenet5")
RESNET = DeploymentSpec("resnet18")


def test_same_seed_same_workload():
    for with_inputs in (False, True):
        first, second = (
            generate_workload(
                PoissonArrivals(50.0),
                [LENET, RESNET],
                24,
                seed=11,
                with_inputs=with_inputs,
            )
            for _ in range(2)
        )
        assert [r.arrival_s for r in first] == [r.arrival_s for r in second]
        assert [r.deployment for r in first] == [r.deployment for r in second]
        if with_inputs:
            for a, b in zip(first, second):
                assert np.array_equal(a.input_image, b.input_image)


def test_different_seed_different_workload():
    a = generate_workload(PoissonArrivals(50.0), [LENET], 16, seed=1)
    b = generate_workload(PoissonArrivals(50.0), [LENET], 16, seed=2)
    assert [r.arrival_s for r in a] != [r.arrival_s for r in b]


def test_constant_arrivals_evenly_spaced():
    workload = generate_workload(ConstantArrivals(100.0), [LENET], 10, seed=0)
    gaps = np.diff([r.arrival_s for r in workload])
    assert np.allclose(gaps, 0.01)
    assert offered_rps(workload) == pytest.approx(100.0)


def test_poisson_arrivals_hit_the_mean_rate():
    workload = generate_workload(PoissonArrivals(200.0), [LENET], 2000, seed=5)
    assert offered_rps(workload) == pytest.approx(200.0, rel=0.10)


def test_bursty_arrivals_have_two_regimes():
    """An MMPP trace must show genuinely different local rates."""
    arrivals = BurstyArrivals(50.0, 500.0, mean_calm_s=1.0, mean_burst_s=0.5)
    workload = generate_workload(arrivals, [LENET], 3000, seed=9)
    gaps = np.diff([r.arrival_s for r in workload])
    # Rolling local rate over 50-request windows.
    local_rates = 50.0 / np.convolve(gaps, np.ones(50), mode="valid")
    assert local_rates.min() < 100.0  # calm stretches near the base rate
    assert local_rates.max() > 250.0  # burst stretches well above it
    # Mean offered load sits strictly between the two state rates.
    assert 50.0 < offered_rps(workload) < 500.0


def test_weighted_mix():
    workload = generate_workload(
        ConstantArrivals(10.0), [LENET, RESNET], 400, seed=2, weights=[9, 1]
    )
    lenet_share = sum(r.deployment.model == "lenet5" for r in workload) / len(workload)
    assert lenet_share == pytest.approx(0.9, abs=0.05)


def test_workload_validation():
    with pytest.raises(ReproError):
        generate_workload(ConstantArrivals(10.0), [], 4)
    with pytest.raises(ReproError):
        generate_workload(ConstantArrivals(10.0), [LENET], 0)
    with pytest.raises(ReproError):
        generate_workload(ConstantArrivals(10.0), [LENET, RESNET], 4, weights=[1])
    with pytest.raises(ReproError):
        ConstantArrivals(0.0)
    with pytest.raises(ReproError):
        BurstyArrivals(100.0, 50.0)  # burst must exceed base
    with pytest.raises(ReproError):
        make_arrivals("weibull", 10.0)


def test_make_arrivals_registry():
    assert make_arrivals("constant", 5.0).name == "constant"
    assert make_arrivals("poisson", 5.0).name == "poisson"
    bursty = make_arrivals("bursty", 5.0)
    assert bursty.name == "bursty" and bursty.burst_rate == 20.0


def test_trace_round_trip(tmp_path):
    workload = generate_workload(
        PoissonArrivals(80.0),
        [LENET, DeploymentSpec("resnet18", execution_mode="fast")],
        12,
        seed=4,
    )
    path = save_trace(workload, tmp_path / "trace.jsonl")
    replayed = load_trace(path)
    assert [r.arrival_s for r in replayed] == [r.arrival_s for r in workload]
    assert [r.deployment for r in replayed] == [r.deployment for r in workload]
    # Replay with inputs: deterministic from the (trace, seed) pair.
    with_inputs = load_trace(path, seed=7, with_inputs=True)
    again = load_trace(path, seed=7, with_inputs=True)
    for a, b in zip(with_inputs, again):
        assert np.array_equal(a.input_image, b.input_image)


def test_trace_ignores_the_legacy_fidelity_key(tmp_path):
    """Traces written while deployments still had a fidelity replay:
    the reader ignores the key."""
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"fidelity": "timing", "mode": "fast", "model": "lenet5", '
        '"precision": "int8", "t": 0.0}\n'
    )
    [request] = load_trace(path)
    assert request.deployment == DeploymentSpec("lenet5", execution_mode="fast")


def test_trace_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(ReproError):
        load_trace(bad)
    unsorted = tmp_path / "unsorted.jsonl"
    unsorted.write_text(
        '{"t": 1.0, "model": "lenet5"}\n{"t": 0.5, "model": "lenet5"}\n'
    )
    with pytest.raises(ReproError):
        load_trace(unsorted)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(ReproError):
        load_trace(empty)
