"""Outside-in layer tracing for the traced run.

The traced run wraps each layer's public entry points, from these
benchmark files, with :mod:`repro.obs` spans: name, start, end and
parent, all spans of one op sharing the op's trace id.  Nothing inside
``src/`` is changed; the untraced timed runs install no wrappers.

Functions that a caller imported by name are patched where that caller
looks them up (the bare-metal stages in ``repro.baremetal.pipeline``,
the unit kernels in ``repro.nvdla.units.*``).
"""

from __future__ import annotations

import functools
import importlib

SDP_HELPERS = (
    "apply_bias", "apply_batchnorm", "apply_eltwise", "apply_relu",
    "requantize_int8", "convert_fp16",
)


def _dbb_txns(args, result, before):
    return {"dbb_txns": len(args[0].platform.trace.dbb)}


def _commands(args, result, before):
    return {"commands": len(result)}


def _preload_bytes(args, result, before):
    return {"bytes": sum(len(segment.data) for segment in result)}


def _program_words(args, result, before):
    return {"words": len(result.words)}


def _store_snapshot(args):
    stats = args[0].stats
    return stats.bytes_written + stats.bytes_read


def _store_bytes(args, result, before):
    return {"bytes": _store_snapshot(args) - before}


def _soc_counts(args, result, before):
    stats = result.stats
    dram = args[0].soc.dram.stats
    return {
        "cycles": result.cycles,
        "instructions": stats.instructions,
        "active_cycles": stats.active_cycles,
        "skipped_cycles": stats.skipped_cycles,
        "dram_bytes": dram.bytes_read + dram.bytes_written,
    }


def _resident_hits(args):
    return args[0].resident_stats.hits


def _resident_hit(args, result, before):
    return {"resident_hit": _resident_hits(args) - before}


#: (layer, "module[:Class]", attribute, snapshot, count) — ``snapshot``
#: runs before the call, ``count`` after it, and its dict becomes the
#: span's attributes.
ENTRY_POINTS = (
    ("compiler", "repro.baremetal.pipeline", "compile_network", None, None),
    ("analyze", "repro.analyze", "analyze_loadable", None, None),
    ("vp", "repro.vp.runtime:NvdlaRuntime", "execute", None, _dbb_txns),
    ("baremetal.trace_to_config", "repro.baremetal.pipeline", "trace_to_config", None, _commands),
    ("baremetal.codegen", "repro.baremetal.pipeline", "generate_assembly", None, None),
    ("baremetal.weight_extract", "repro.baremetal.pipeline", "extract_initial_memory", None,
     _preload_bytes),
    ("riscv.assembler", "repro.baremetal.pipeline", "assemble", None, _program_words),
    ("store", "repro.store.store:BundleStore", "put_bundle", _store_snapshot, _store_bytes),
    ("store", "repro.store.store:BundleStore", "get_bundle", _store_snapshot, _store_bytes),
    ("core.soc", "repro.serve.workers:SocWorker", "run", None, _soc_counts),
    ("core.fastpath", "repro.core.fastpath:FastPathExecutor", "run", _resident_hits,
     _resident_hit),
    ("nvdla.compute", "repro.nvdla.units.conv_pipeline", "conv2d_direct", None, None),
    ("nvdla.compute", "repro.nvdla.units.pdp", "pool2d", None, None),
    ("nvdla.compute", "repro.nvdla.units.cdp", "lrn", None, None),
    *(("nvdla.compute", "repro.nvdla.units.sdp", name, None, None) for name in SDP_HELPERS),
    ("serve", "repro.serve.service:InferenceService", "run_pending", None, None),
    ("serve", "repro.serve.cache:BundleCache", "bundle_for", None, None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


def resolve(target: str):
    """The module or class a ``"module[:Class]"`` target names."""
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class NoTrace:
    """Op brackets of the untraced run: no spans, no wrappers."""

    @staticmethod
    def begin(index):
        return None

    @staticmethod
    def end(root) -> None:
        pass


class LayerTracer:
    """Records layer spans while installed; op brackets open root spans."""

    def __init__(self, clock) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer(clock=clock)
        self._stack: list = []
        self._saved: list = []

    def begin(self, index):
        span = self.tracer.start("op", trace_id=f"op-{index}", op=index)
        self._stack.append(span)
        return span

    def end(self, root) -> None:
        self._stack.pop()
        self.tracer.end(root)

    def install(self) -> None:
        for layer, target, attribute, snapshot, count in ENTRY_POINTS:
            owner = resolve(target)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original, snapshot, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _wrap(self, layer, fn, snapshot, count):
        tracer, stack = self.tracer, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.start(layer, parent=stack[-1] if stack else None,
                                entry=fn.__name__)
            stack.append(span)
            before = snapshot(args) if snapshot else None
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            tracer.end(span, **(count(args, result, before) if count else {}))
            return result

        return traced

    @property
    def spans(self) -> list[dict]:
        return self.tracer.finished


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-op self time and calls of every layer, plus the span counts.

    Self time is a span's duration minus the time its child spans
    cover (calls are sequential on the one client thread, so children
    never overlap).  ``harness.coverage`` is the share of op time that
    top-level layer spans account for; the remainder is unattributed.
    """
    child_time: dict[str, float] = {}
    for span in spans:
        if span["parent_id"] is not None:
            child_time[span["parent_id"]] = (
                child_time.get(span["parent_id"], 0.0) + span["end_s"] - span["start_s"]
            )
    per_op = 1.0 / ops if ops else 0.0
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    totals: dict[str, float] = {}
    soc_wall = 0.0
    root_time = covered = 0.0
    for span in spans:
        duration = span["end_s"] - span["start_s"]
        name = span["name"]
        if name == "op":
            root_time += duration
            covered += child_time.get(span["span_id"], 0.0)
            continue
        busy[name] += duration - child_time.get(span["span_id"], 0.0)
        calls[name] += 1
        if name == "core.soc":
            soc_wall += duration
        for key, value in span["attrs"].items():
            if key != "entry":
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_ms"] = busy[layer] * 1e3 * per_op
        metrics[f"{layer}.calls"] = calls[layer] * per_op

    def total(key):
        return totals.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    instructions = total("core.soc.instructions")
    metrics.update({
        "vp.dbb_txns": total("vp.dbb_txns") * per_op,
        "baremetal.config_cmds": total("baremetal.trace_to_config.commands") * per_op,
        "baremetal.preload_bytes": total("baremetal.weight_extract.bytes") * per_op,
        "riscv.program_words": total("riscv.assembler.words") * per_op,
        "store.bytes": total("store.bytes") * per_op,
        "core.soc.sim_cycles": total("core.soc.cycles") * per_op,
        "core.soc.instructions": instructions * per_op,
        "core.soc.cpi": ratio(total("core.soc.active_cycles"), instructions),
        "core.soc.skipped_share": ratio(total("core.soc.skipped_cycles"),
                                        total("core.soc.cycles")),
        "core.soc.dram_bytes": total("core.soc.dram_bytes") * per_op,
        "core.soc.host_us_per_kinstr": ratio(soc_wall * 1e6, instructions / 1e3),
        "core.fastpath.resident_hit_rate": ratio(total("core.fastpath.resident_hit"),
                                                 calls["core.fastpath"]),
        "harness.coverage": ratio(covered, root_time),
    })
    return metrics
