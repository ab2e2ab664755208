"""Warm and cold cycle-accurate runs — median wall ms per run, split by layer.

A warm op is one run of a bundle's bare-metal program on a reused
:class:`~repro.core.Soc`, the way a serving worker replays it: reset,
rewrite every preload image but the (read-only) weights, run to the
status word, read the output back.  The bundle was loaded and run once
untimed, so the program stays decoded in the CPU.  Warm workloads:
lenet5 and resnet18 on nv_small, each on a functional and a
timing-only SoC, plus mobilenet timing-only outside ``--smoke``.

A cold op is what every cycle-profile recording and Table II/III row
pays: a fresh timing-only SoC, the program loaded (and decoded) alone,
one run (:func:`repro.core.fastpath.record_profile`).  Cold workloads:
lenet5 and resnet18, plus mobilenet outside ``--smoke``.  All
workloads take turns run by run.

Each run's wall time is split three ways by timers wrapped around the
engine's entry points where the engine looks them up:

- ``interpreter``: everything else — the ISS loop, the register route
  into the engine, launch checks, and the run's reset, preload and
  output readback (cold runs: the SoC build and program load);
- ``lowering+timing``: ``engine.lower_group`` and ``engine.op_timing``;
- ``kernels``: ``engine.execute_descriptors`` (functional SoCs only).

Each part is reported as median ms per run and as µs per kilo-instruction.
Every run must reproduce the first run's cycles, instruction count and
output bytes, and every cold workload's cycles and instruction count
must equal its model's warm runs, or the script fails; there is no
timing bound.

Usage (one row per code version; rows with other labels are kept)::

    PYTHONPATH=src python benchmarks/bench_simulate.py --smoke \\
        --label change --out BENCH_simulate.json
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

CONFIG = "nv_small"
#: (model, SoC fidelity) of the warm workloads.
WARM = (
    ("lenet5", "functional"),
    ("lenet5", "timing"),
    ("resnet18", "functional"),
    ("resnet18", "timing"),
)
COLD = ("lenet5", "resnet18")
#: Added outside ``--smoke``: the largest program of the zoo.
FULL_ONLY = "mobilenet"

#: (part, attribute of ``repro.nvdla.engine``) — the engine calls these
#: by the names it imported.
PARTS = (
    ("lowering+timing", "lower_group"),
    ("lowering+timing", "op_timing"),
    ("kernels", "execute_descriptors"),
)


def _install_timers(elapsed: dict[str, float]) -> None:
    from repro.nvdla import engine

    for part, attribute in PARTS:
        inner = getattr(engine, attribute)

        def timed(*args, _inner=inner, _part=part, **kwargs):
            start = time.perf_counter()
            try:
                return _inner(*args, **kwargs)
            finally:
                elapsed[_part] += time.perf_counter() - start

        setattr(engine, attribute, timed)


def _outcome(result) -> tuple:
    output = None if result.output is None else result.output.tobytes()
    return (result.ok, result.cycles, result.stats.instructions, output)


def _warm(bundle, fidelity: str):
    """A warm SoC holding ``bundle``, and its run as an outcome."""
    from repro.core import Soc
    from repro.nvdla.config import get_config

    soc = Soc(get_config(CONFIG), fidelity=fidelity)
    soc.load_bundle(bundle)

    def run() -> tuple:
        soc.reset_for_run(scrub_dram=False)
        for image in bundle.images.preload:
            if image.name != "weights.bin":
                soc.preload_dram(image.load_address, image.data)
        return _outcome(soc.run_inference(bundle))

    return run


def _cold(bundle):
    """A fresh timing-only SoC per run, loaded with the program alone."""
    from repro.core.fastpath import record_profile
    from repro.nvdla.config import get_config

    def run() -> tuple:
        stats = record_profile(bundle, get_config(CONFIG)).stats  # raises unless DONE
        return (True, stats.cycles, stats.instructions, None)

    return run


class _Workload:
    """One repeated run and the samples of its timed repeats."""

    def __init__(self, run) -> None:
        self.run = run
        self.first = run()
        if not self.first[0]:
            raise RuntimeError("the bundle's program did not reach DONE")
        self.totals: list[float] = []
        self.parts: dict[str, list[float]] = {}

    def timed_run(self, elapsed: dict[str, float]) -> None:
        for part in elapsed:
            elapsed[part] = 0.0
        start = time.perf_counter()
        outcome = self.run()
        total = time.perf_counter() - start
        if outcome != self.first:
            raise RuntimeError(
                f"run disagrees with the first run: cycles {outcome[1]} "
                f"vs {self.first[1]}, or the output bytes differ"
            )
        self.totals.append(total)
        inside = sum(elapsed.values())
        self.parts.setdefault("interpreter", []).append(total - inside)
        for part, seconds in elapsed.items():
            self.parts.setdefault(part, []).append(seconds)

    def summary(self) -> dict:
        instructions = self.first[2]
        parts_ms = {part: statistics.median(v) * 1e3 for part, v in self.parts.items()}
        return {
            "cycles": self.first[1],
            "instructions": instructions,
            "ms_per_run": round(statistics.median(self.totals) * 1e3, 3),
            "parts_ms": {part: round(ms, 3) for part, ms in parts_ms.items()},
            "parts_us_per_kinstr": {
                part: round(ms * 1e6 / instructions, 1) for part, ms in parts_ms.items()
            },
        }


def run_all(repeats: int, smoke: bool) -> dict:
    """``repeats`` timed runs per workload after one untimed run each.
    The workloads take turns run by run, so a slow spell on a shared
    host spreads over all of them."""
    from repro.serve import BundleCache

    elapsed = {"lowering+timing": 0.0, "kernels": 0.0}
    _install_timers(elapsed)
    cache = BundleCache()
    warm, cold = list(WARM), list(COLD)
    if not smoke:
        warm.append((FULL_ONLY, "timing"))
        cold.append(FULL_ONLY)
    workloads = {
        f"{model}/{fidelity}": _Workload(_warm(cache.bundle_for(model, CONFIG), fidelity))
        for model, fidelity in warm
    }
    for model in cold:
        workload = _Workload(_cold(cache.bundle_for(model, CONFIG)))
        if workload.first[1:3] != workloads[f"{model}/timing"].first[1:3]:
            raise RuntimeError(
                f"cold {model} run gives (cycles, instructions) {workload.first[1:3]}, "
                f"warm runs {workloads[f'{model}/timing'].first[1:3]}"
            )
        workloads[f"{model}/cold"] = workload
    for _ in range(repeats):
        for workload in workloads.values():
            workload.timed_run(elapsed)
    return {name: workload.summary() for name, workload in workloads.items()}


def main(argv: list[str] | None = None) -> int:
    import argparse

    from repro.obs import bench_envelope

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="10 timed runs each instead of 40")
    parser.add_argument("--label", default="head", help="row name for this code version")
    parser.add_argument("--out", default=None, help="merge this row into the JSON file here")
    args = parser.parse_args(argv)

    repeats = 10 if args.smoke else 40
    row = {"label": args.label, "repeats": repeats, "workloads": run_all(repeats, args.smoke)}
    for name, result in row["workloads"].items():
        parts = "  ".join(
            f"{part} {ms:.2f} ms ({result['parts_us_per_kinstr'][part]:.0f} us/kinstr)"
            for part, ms in result["parts_ms"].items()
        )
        print(f"{name:<20} {result['ms_per_run']:8.2f} ms/run  {parts}")

    if args.out:
        path = Path(args.out)
        rows = json.loads(path.read_text())["results"]["rows"] if path.exists() else []
        rows = [r for r in rows if r["label"] != args.label] + [row]
        payload = bench_envelope(
            "bench_simulate.runs",
            {"smoke": args.smoke, "config": CONFIG, "repeats": repeats},
            {"config": CONFIG, "rows": rows},
        )
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
