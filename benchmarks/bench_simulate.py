"""Warm cycle-accurate runs — median wall ms per run, split by layer.

One op is one warm run of a bundle's bare-metal program on a reused
:class:`~repro.core.Soc`, the way a serving worker replays it: reset,
rewrite every preload image but the (read-only) weights, run to the
status word, read the output back.  The bundle was loaded and run once
untimed, so the CPU's decode table is warm.  Four workloads: lenet5 and
resnet18 on nv_small, each on a functional and a timing-only SoC; they
take turns run by run.

Each run's wall time is split three ways by timers wrapped around the
engine's entry points where the engine looks them up:

- ``interpreter``: everything else — the ISS loop, the register route
  into the engine, launch checks, and the run's reset, preload and
  output readback;
- ``lowering+timing``: ``engine.lower_group`` and ``engine.op_timing``;
- ``kernels``: ``engine.execute_descriptors`` (functional SoCs only).

Each part is reported as median ms per run and as µs per kilo-instruction.
Every run must reproduce the first run's cycles, instruction count and
output bytes, or the script fails; there is no timing bound.

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
WORKLOADS = (
    ("lenet5", "functional"),
    ("lenet5", "timing"),
    ("resnet18", "functional"),
    ("resnet18", "timing"),
)

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


def _warm_run(soc, bundle):
    soc.reset_for_run(scrub_dram=False)
    for image in bundle.images.preload:
        if image.name != "weights.bin":
            soc.preload_dram(image.load_address, image.data)
    return soc.run_inference(bundle)


def _outcome(result) -> tuple:
    output = None if result.output is None else result.output.tobytes()
    return (result.ok, result.cycles, result.stats.instructions, output)


class _Workload:
    """One warm SoC and the samples of its timed runs."""

    def __init__(self, bundle, fidelity: str) -> None:
        from repro.core import Soc
        from repro.nvdla.config import get_config

        self.bundle = bundle
        self.soc = Soc(get_config(CONFIG), fidelity=fidelity)
        self.soc.load_bundle(bundle)
        self.first = _outcome(self.soc.run_inference(bundle))
        if not self.first[0]:
            raise RuntimeError("the bundle's program did not reach DONE")
        self.totals: list[float] = []
        self.parts: dict[str, list[float]] = {}

    def timed_run(self, elapsed: dict[str, float]) -> None:
        for part in elapsed:
            elapsed[part] = 0.0
        start = time.perf_counter()
        result = _warm_run(self.soc, self.bundle)
        total = time.perf_counter() - start
        if _outcome(result) != self.first:
            raise RuntimeError(
                f"warm run disagrees with the first run: cycles {result.cycles} "
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


def run_all(repeats: int) -> dict:
    """``repeats`` timed warm runs per workload after one untimed
    load-and-run each.  The workloads take turns run by run, so a
    slow spell on a shared host spreads over all of them."""
    from repro.serve import BundleCache

    elapsed = {"lowering+timing": 0.0, "kernels": 0.0}
    _install_timers(elapsed)
    cache = BundleCache()
    workloads = {
        f"{model}/{fidelity}": _Workload(cache.bundle_for(model, CONFIG), fidelity)
        for model, fidelity in WORKLOADS
    }
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
    row = {"label": args.label, "repeats": repeats, "workloads": run_all(repeats)}
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
            "bench_simulate.warm_runs",
            {"smoke": args.smoke, "config": CONFIG, "repeats": repeats},
            {"config": CONFIG, "rows": rows},
        )
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
