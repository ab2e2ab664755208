"""Structured span tracing with cross-process context propagation.

One :class:`Tracer` per process records :class:`Span` records — named,
timestamped, parent-linked — through the whole request lifecycle:
enqueue → scheduler admit/seal → worker dispatch → bundle resolve →
execute (with per-NVDLA-unit cycle attribution) → reply.

Design constraints, in order:

- **near-zero overhead when off.**  Every instrumentation site guards
  on ``tracer.enabled`` (a plain attribute read) or calls methods that
  early-return before allocating anything.  ``NULL_TRACER`` is the
  module-wide disabled singleton that instrumented constructors default
  to; ``benchmarks/bench_obs.py`` gates the disabled cost at < 2 % of
  serving throughput.
- **cross-process stitching.**  A span's identity is
  ``(trace_id, span_id)`` — :meth:`Tracer.context` reduces it to a
  picklable tuple that rides on the serving plane's wire request
  (:class:`~repro.serve.procpool.FastPathRunRequest`); the worker
  process records children under that parent and ships the finished
  span dicts back on the batch's results, where the parent
  :meth:`Tracer.ingest`\\ s them.
  Span ids embed the recording process's PID, so two processes can
  never mint the same id.
- **two clocks.**  Wall-clock spans use ``time.time()`` (one host-wide
  timebase, so spans from different processes interleave correctly);
  virtual-clock spans (``repro.cluster``) are recorded with explicit
  timestamps via :meth:`Tracer.add` and export into the same formats.

Spans are plain dicts once finished (see :meth:`Span.to_dict`), which
is also the JSONL wire format of :mod:`repro.obs.export`.
"""

from __future__ import annotations

import itertools
import os
import time


class Span:
    """One named, timed, parent-linked piece of work.

    Mutable while open (attrs may be annotated until :meth:`Tracer.end`)
    — a finished span is frozen into its dict form.  ``cycles`` and any
    other simulated-time annotations travel in ``attrs`` next to the
    wall-clock ``start_s``/``end_s``.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_s",
                 "end_s", "process", "attrs")

    def __init__(self, name, trace_id, span_id, parent_id, start_s,
                 process=0, attrs=None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: float | None = None
        self.process = process
        self.attrs = attrs if attrs is not None else {}

    def annotate(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "process": self.process,
            "attrs": self.attrs,
        }


#: The singleton returned by every disabled-tracer call; annotating it
#: is a no-op so instrumentation sites never need a None check.
class _NullSpan:
    __slots__ = ()
    name = trace_id = span_id = ""
    parent_id = None
    start_s = end_s = 0.0
    process = 0
    attrs: dict = {}

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def to_dict(self) -> dict:  # pragma: no cover - never exported
        return {}


NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans for one process; disabled instances cost ~nothing.

    ``process`` labels which worker-process slot recorded a span (the
    serving plane's parent side uses -1); it becomes the Perfetto
    ``pid`` lane.  ``clock`` defaults to ``time.time`` — epoch seconds,
    comparable across processes on one host.
    """

    def __init__(self, enabled: bool = True, process: int = -1, clock=time.time):
        self.enabled = enabled
        self.process = process
        self.clock = clock
        self._ids = itertools.count()
        self._id_prefix = f"{os.getpid():x}"
        self._finished: list[dict] = []

    # -- recording -----------------------------------------------------

    def _next_id(self) -> str:
        return f"{self._id_prefix}.{next(self._ids)}"

    def start(self, name: str, trace_id: str | None = None,
              parent: "Span | str | None" = None, **attrs) -> Span:
        """Open a span; ``parent`` is a Span or a foreign span id."""
        if not self.enabled:
            return NULL_SPAN
        if isinstance(parent, Span):
            parent_id = parent.span_id
            if trace_id is None:
                trace_id = parent.trace_id
        else:
            parent_id = parent
        return Span(name, trace_id or "", self._next_id(), parent_id,
                    self.clock(), process=self.process, attrs=attrs)

    def end(self, span: Span, **attrs) -> Span:
        """Close a span at the current clock and file it for export."""
        if not self.enabled or span is NULL_SPAN:
            return span
        if attrs:
            span.attrs.update(attrs)
        span.end_s = self.clock()
        self._finished.append(span.to_dict())
        return span

    class _Scope:
        __slots__ = ("tracer", "span")

        def __init__(self, tracer, span):
            self.tracer = tracer
            self.span = span

        def __enter__(self):
            return self.span

        def __exit__(self, exc_type, exc, tb):
            if exc_type is not None and self.span is not NULL_SPAN:
                self.span.attrs["error"] = f"{exc_type.__name__}: {exc}"
            self.tracer.end(self.span)

    def span(self, name: str, trace_id: str | None = None,
             parent: "Span | str | None" = None, **attrs) -> "_Scope":
        """``with tracer.span("execute", parent=root) as span: ...``"""
        return self._Scope(self, self.start(name, trace_id, parent, **attrs))

    def add(self, name: str, start_s: float, end_s: float,
            trace_id: str = "", parent: "Span | str | None" = None,
            process: int | None = None, **attrs) -> Span:
        """Record a complete span with explicit timestamps.

        The virtual-clock path: fleet simulations and per-unit cycle
        attribution place spans on a timeline the host clock never saw.
        ``process`` overrides the tracer's slot (e.g. one simulated
        replica per Perfetto lane).
        """
        if not self.enabled:
            return NULL_SPAN
        if isinstance(parent, Span):
            parent_id = parent.span_id
            if not trace_id:
                trace_id = parent.trace_id
        else:
            parent_id = parent
        span = Span(name, trace_id, self._next_id(), parent_id, start_s,
                    process=self.process if process is None else process,
                    attrs=attrs)
        span.end_s = end_s
        self._finished.append(span.to_dict())
        return span

    # -- cross-process plumbing ----------------------------------------

    @staticmethod
    def context(span: Span) -> tuple[str, str] | None:
        """The picklable (trace_id, span_id) a child process parents to."""
        if span is NULL_SPAN:
            return None
        return (span.trace_id, span.span_id)

    def ingest(self, spans) -> None:
        """Adopt finished span dicts recorded by another tracer/process."""
        if not self.enabled:
            return
        self._finished.extend(dict(span) for span in spans)

    def drain(self) -> list[dict]:
        """Pop every finished span (the worker→parent shipping path)."""
        finished, self._finished = self._finished, []
        return finished

    # -- export --------------------------------------------------------

    @property
    def finished(self) -> list[dict]:
        return self._finished

    def __len__(self) -> int:
        return len(self._finished)


#: Shared disabled tracer: the default for every instrumented
#: constructor, so untraced serving pays one attribute read per guard.
NULL_TRACER = Tracer(enabled=False)


# ----------------------------------------------------------------------
# Per-stage cycle attribution.
# ----------------------------------------------------------------------


def record_unit_spans(tracer: Tracer, parent: Span, op_records,
                      total_cycles: int) -> None:
    """Nest per-NVDLA-unit spans inside an execute span.

    ``op_records`` is any sequence with the
    :class:`~repro.nvdla.engine.OpRecord` surface (``sink``, ``kind``,
    ``start_cycle``, ``end_cycle``, ``group``).  Unit spans live on the
    *simulated* timeline; to appear inside the wall-clock ``parent``
    they are placed proportionally (start_cycle / total_cycles of the
    parent's wall duration) while the exact cycle numbers travel in
    attrs — the wall placement shows *attribution*, the attrs carry
    ground truth.
    """
    if not tracer.enabled or parent is NULL_SPAN or not op_records:
        return
    end_s = parent.end_s if parent.end_s is not None else tracer.clock()
    wall = end_s - parent.start_s
    scale = wall / total_cycles if total_cycles > 0 else 0.0
    for record in op_records:
        tracer.add(
            f"unit.{record.sink.lower()}",
            parent.start_s + record.start_cycle * scale,
            parent.start_s + record.end_cycle * scale,
            parent=parent,
            kind=record.kind,
            group=record.group,
            start_cycle=record.start_cycle,
            end_cycle=record.end_cycle,
            cycles=record.end_cycle - record.start_cycle,
        )
