"""Cold-deploy stage split — median wall ms per toolflow stage.

One op is one cold resnet18 deploy on nv_small, as ``repro run`` and a
cold replica pay it: ``generate_baremetal(verify=True)``, then a
``put_bundle`` into a fresh :class:`~repro.store.BundleStore` and a
``get_bundle`` back.  Each stage's public entry point is wrapped with a
wall-clock timer where the flow looks it up, so the numbers come from
the unmodified pipeline:

- ``compile+analyze``: ``compile_network(verify=True)``
- ``vp``: ``NvdlaRuntime.execute`` (trace capture)
- ``trace_to_config``, ``codegen``, ``assemble``, ``weight_extract``
- ``store_put``, ``store_get``

Every op must reproduce the first op's artifact digest, and the stored
copy must load back with the same digest.

Usage (one row per code version; rows with other labels are kept)::

    PYTHONPATH=src python benchmarks/bench_deploy.py --smoke \\
        --label change --out BENCH_deploy.json
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

MODEL = "resnet18"
CONFIG = "nv_small"

#: (stage, "module[:Class]", attribute) — patched where the flow looks
#: the name up.
STAGES = (
    ("compile+analyze", "repro.baremetal.pipeline", "compile_network"),
    ("vp", "repro.vp.runtime:NvdlaRuntime", "execute"),
    ("trace_to_config", "repro.baremetal.pipeline", "trace_to_config"),
    ("codegen", "repro.baremetal.pipeline", "generate_assembly"),
    ("assemble", "repro.baremetal.pipeline", "assemble"),
    ("weight_extract", "repro.baremetal.pipeline", "extract_initial_memory"),
    ("store_put", "repro.store.store:BundleStore", "put_bundle"),
    ("store_get", "repro.store.store:BundleStore", "get_bundle"),
)


def _owner(target: str):
    import importlib

    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _install_timers(elapsed: dict[str, float]) -> None:
    for stage, target, attribute in STAGES:
        owner = _owner(target)
        inner = getattr(owner, attribute)

        def timed(*args, _inner=inner, _stage=stage, **kwargs):
            start = time.perf_counter()
            try:
                return _inner(*args, **kwargs)
            finally:
                elapsed[_stage] += time.perf_counter() - start

        setattr(owner, attribute, timed)


def run_deploys(repeats: int) -> dict:
    """``repeats`` timed cold deploys after one untimed warm-up."""
    from repro.baremetal import generate_baremetal
    from repro.baremetal.pipeline import bundle_cache_key
    from repro.nn.zoo import ZOO
    from repro.nvdla.config import Precision, get_config
    from repro.store import BundleStore

    elapsed = {stage: 0.0 for stage, *_ in STAGES}
    _install_timers(elapsed)
    config = get_config(CONFIG)
    key = bundle_cache_key(MODEL, config, Precision.INT8)

    samples: dict[str, list[float]] = {stage: [] for stage in elapsed}
    totals: list[float] = []
    digests: set[str] = set()
    for index in range(repeats + 1):
        for stage in elapsed:
            elapsed[stage] = 0.0
        with tempfile.TemporaryDirectory() as root:
            start = time.perf_counter()
            bundle = generate_baremetal(ZOO[MODEL](), config, verify=True)
            store = BundleStore(Path(root))
            store.put_bundle(key, bundle)
            back = store.get_bundle(key)
            total = time.perf_counter() - start
        if back is None or back.artifact_digest() != bundle.artifact_digest():
            raise RuntimeError("store round trip did not return the bundle")
        digests.add(bundle.artifact_digest())
        if index == 0:
            continue  # warm-up: imports and first-call caches
        totals.append(total)
        for stage, seconds in elapsed.items():
            samples[stage].append(seconds)
    if len(digests) != 1:
        raise RuntimeError(f"deploys disagree on the artifact digest: {sorted(digests)}")
    return {
        "artifact_digest": digests.pop(),
        "repeats": repeats,
        "stages_ms": {
            stage: round(1e3 * statistics.median(values), 2)
            for stage, values in samples.items()
        },
        "total_ms": round(1e3 * statistics.median(totals), 2),
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    from repro.obs import bench_envelope

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="5 timed deploys instead of 15")
    parser.add_argument("--label", default="head", help="row name for this code version")
    parser.add_argument("--out", default=None, help="merge this row into the JSON file here")
    args = parser.parse_args(argv)

    repeats = 5 if args.smoke else 15
    row = {"label": args.label, **run_deploys(repeats)}
    width = max(len(stage) for stage in row["stages_ms"])
    for stage, ms in row["stages_ms"].items():
        print(f"{stage:<{width}}  {ms:8.1f} ms")
    print(f"{'total':<{width}}  {row['total_ms']:8.1f} ms  (median of {repeats})")

    if args.out:
        path = Path(args.out)
        rows = json.loads(path.read_text())["results"]["rows"] if path.exists() else []
        rows = [r for r in rows if r["label"] != args.label] + [row]
        payload = bench_envelope(
            "bench_deploy.stage_split",
            {"smoke": args.smoke, "model": MODEL, "config": CONFIG, "repeats": repeats},
            {"model": MODEL, "config": CONFIG, "rows": rows},
        )
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
