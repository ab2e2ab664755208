"""Simulated-time accuracy counts for the traced run.

The timing model is validated only against the three published
nv_small latencies below (the paper's Table II at 100 MHz); there is no
other reference measurement.  ResNet-50 runs at timing fidelity because
a functional run takes minutes.  The fast tier's estimate error is
reported for the two models its calibration is fitted on (in-sample,
and zero by construction: three overhead parameters fit two runs) and
for ResNet-50, which the fit never saw (held out).  Errors are
relative and absolute: ``|simulated / reference - 1|``.

Every figure here is simulated time and repeats exactly run to run.
"""

from __future__ import annotations

#: Paper Table II, nv_small INT8 @ 100 MHz, milliseconds.
PAPER_MS = {"lenet5": 4.8, "resnet18": 16.2, "resnet50": 1100.0}
FIDELITY = {"lenet5": "functional", "resnet18": "functional", "resnet50": "timing"}
CALIBRATED = ("lenet5", "resnet18")


def accuracy_counts(config_name: str = "nv_small") -> dict[str, float]:
    from repro.core import Soc
    from repro.core.fastpath import FastPathExecutor, calibrate
    from repro.nvdla.config import get_config
    from repro.serve import BundleCache

    config = get_config(config_name)
    cache = BundleCache()
    fast = FastPathExecutor(config, calibration=calibrate(CALIBRATED, config, cache=cache))
    metrics: dict[str, float] = {}
    for model, paper_ms in PAPER_MS.items():
        fidelity = FIDELITY[model]
        bundle = cache.bundle_for(model, config, fidelity=fidelity)
        soc = Soc(config, fidelity=fidelity)
        soc.load_bundle(bundle)
        result = soc.run_inference(bundle)
        if not result.ok:
            raise RuntimeError(f"{model}: cycle-accurate run did not reach DONE")
        metrics[f"accuracy.{model}.sim_ms"] = result.milliseconds
        metrics[f"accuracy.{model}.paper_abs_error"] = abs(result.milliseconds / paper_ms - 1)
        estimate = fast.estimate(bundle).total_cycles
        metrics[f"accuracy.{model}.fast_abs_error"] = abs(estimate / result.cycles - 1)
    return metrics
