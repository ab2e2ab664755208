"""Counters, gauges, and log-scale histograms with cross-process merge.

The registry is the export and merge format for counters: layers keep
their numbers in plain records and build a registry when they export
(``ServiceMetrics.registry``, written by ``--metrics-out``).  Snapshots
travel as ``to_dict()`` JSON and combine with
:meth:`MetricsRegistry.merge` (``repro metrics a.json b.json``), which
is exact for counters and histograms (elementwise sums, hence
associative and commutative).

Naming convention: dotted lowercase paths, ``<layer>.<noun>[.<verb>]``
— e.g. ``serve.requests``, ``serve.bundle.compiles``,
``serve.busy.seconds``.  Histograms end in a unit suffix
(``.seconds``, ``.cycles``).
"""

from __future__ import annotations

from bisect import bisect_right


class Counter:
    """Monotonic (by convention) float-capable counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


def log_bucket_bounds(lo: float = 1e-4, buckets_per_decade: int = 5,
                      decades: int = 8) -> list[float]:
    """Upper bounds lo·10^(i/bpd): fixed, so merges never re-bucket."""
    n = buckets_per_decade * decades
    return [lo * 10 ** (i / buckets_per_decade) for i in range(n + 1)]


class Histogram:
    """Fixed-bucket log-scale histogram; merge is elementwise add.

    ``counts[0]`` is the underflow bucket (< bounds[0]); ``counts[-1]``
    is overflow (>= bounds[-1]); ``counts[i]`` for 0 < i <= len(bounds)-1
    holds samples in ``[bounds[i-1], bounds[i])``.  Buckets are fixed at
    construction so two histograms with the same bounds merge exactly —
    the cross-process contract.  Exact min/max/sum ride along for the
    summary stats quantile estimation can't recover.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: list[float] | None = None):
        self.name = name
        self.bounds = bounds if bounds is not None else log_bucket_bounds()
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated nearest-rank quantile (q in [0, 100]) from buckets.

        Returns the upper bound of the bucket holding the target rank;
        underflow reports bounds[0], overflow reports exact max.
        """
        if not self.count:
            return 0.0
        rank = max(1, -(-self.count * q // 100))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                if i >= len(self.bounds):  # overflow bucket
                    return self.max if self.max is not None else self.bounds[-1]
                return self.bounds[i]
        return self.max if self.max is not None else 0.0  # pragma: no cover

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge differing bucket bounds")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "Histogram":
        hist = cls(name, bounds=list(payload["bounds"]))
        hist.counts = list(payload["counts"])
        hist.count = payload["count"]
        hist.sum = payload["sum"]
        hist.min = payload["min"]
        hist.max = payload["max"]
        return hist


class MetricsRegistry:
    """Create-on-first-use registry of named instruments.

    ``counter``/``gauge``/``histogram`` return the
    existing instrument when the name is already registered (and raise
    if it is registered as a different type), so call sites never need
    to coordinate creation order.
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, **kwargs)
        elif type(instrument) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, bounds: list[float] | None = None) -> Histogram:
        hist = self._instruments.get(name)
        if hist is None:
            hist = self._instruments[name] = Histogram(name, bounds=bounds)
        elif type(hist) is not Histogram:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(hist).__name__}, not Histogram")
        return hist

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str):
        return self._instruments.get(name)

    def to_dict(self) -> dict:
        return {name: inst.to_dict()
                for name, inst in sorted(self._instruments.items())}

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge_dict(payload)
        return registry

    def merge_dict(self, payload: dict) -> None:
        """Fold a ``to_dict`` snapshot (e.g. from another process) in.

        Counters and histograms add; gauges take the incoming value
        (last writer wins, matching single-process semantics).
        """
        for name, entry in payload.items():
            kind = entry["type"]
            if kind == "counter":
                self.counter(name).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(name).set(entry["value"])
            elif kind == "histogram":
                incoming = Histogram.from_dict(name, entry)
                self.histogram(name, bounds=incoming.bounds).merge(incoming)
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_dict(other.to_dict())

    def render(self) -> str:
        lines = []
        for name in self.names():
            inst = self._instruments[name]
            if isinstance(inst, Histogram):
                lines.append(
                    f"{name}: count={inst.count} mean={inst.mean:.6g} "
                    f"p50~{inst.quantile(50):.6g} p99~{inst.quantile(99):.6g} "
                    f"max={inst.max if inst.max is not None else 0:.6g}")
            else:
                lines.append(f"{name}: {inst.value:g}")
        return "\n".join(lines)
