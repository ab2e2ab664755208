"""Memoisation of the offline flow (compile → trace → codegen).

Building a :class:`~repro.baremetal.pipeline.BaremetalBundle` costs
seconds (compilation, VP execution, assembly); running one on the SoC
model costs milliseconds for the small models.  The cache keys bundles
on everything that changes the generated artefacts — see
:func:`repro.baremetal.pipeline.bundle_cache_key` — so a deployment is
built exactly once no matter how many requests hit it.

Entries are kept LRU; the default capacity comfortably holds every
(zoo model × config × precision) point, but a bound exists so a
design-space sweep cannot grow host memory without limit.

With a persistent :class:`~repro.store.BundleStore` attached, a
memory miss tries the disk before compiling — memory → store →
compile — and every fresh compile is published back, so a *new
process* (or a freshly provisioned replica) warms up by fetching
verified artefacts instead of re-running the offline flow.  A store
that fails integrity verification is treated as a miss: the bundle is
recompiled and the bad artefact overwritten.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.baremetal.pipeline import BaremetalBundle, bundle_cache_key, generate_baremetal
from repro.errors import ReproError, StoreError
from repro.nn.zoo import ZOO
from repro.nvdla.config import HardwareConfig, Precision, get_config

if TYPE_CHECKING:
    from repro.serve.request import DeploymentSpec
    from repro.store import BundleStore


@dataclass
class BundleCacheStats:
    hits: int = 0  # served from memory
    misses: int = 0  # everything else: store_hits + compiles
    store_hits: int = 0  # served from the persistent store
    store_errors: int = 0  # integrity/IO failures (fell back to compile)
    compiles: int = 0  # paid the full offline flow
    evictions: int = 0
    build_seconds: float = 0.0  # total time spent compiling on misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "store_hits": self.store_hits,
            "store_errors": self.store_errors,
            "compiles": self.compiles,
            "evictions": self.evictions,
            "build_seconds": self.build_seconds,
            "hit_rate": self.hit_rate,
        }


class BundleCache:
    """LRU cache of built bundles, keyed by deployment."""

    def __init__(
        self, max_entries: int = 32, store: "BundleStore | None" = None
    ) -> None:
        if max_entries <= 0:
            raise ReproError("cache needs at least one entry")
        self.max_entries = max_entries
        self.store = store
        self._entries: "OrderedDict[tuple, BaremetalBundle]" = OrderedDict()
        self.stats = BundleCacheStats()
        #: Where the latest get_or_build found its bundle: "memory",
        #: "store" or "compile".
        self.last_source = "memory"

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get_or_build(
        self, key: tuple, build: Callable[[], BaremetalBundle]
    ) -> BaremetalBundle:
        bundle = self._entries.get(key)
        if bundle is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.last_source = "memory"
            return bundle
        self.stats.misses += 1
        bundle = self._fetch_from_store(key)
        self.last_source = "store" if bundle is not None else "compile"
        if bundle is None:
            self.stats.compiles += 1
            began = time.perf_counter()
            bundle = build()
            self.stats.build_seconds += time.perf_counter() - began
            self._publish_to_store(key, bundle)
        self._entries[key] = bundle
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return bundle

    def _fetch_from_store(self, key: tuple) -> BaremetalBundle | None:
        """A verified store load, or None — integrity failures recompile."""
        if self.store is None:
            return None
        try:
            bundle = self.store.get_bundle(key)
        except (StoreError, OSError):
            self.stats.store_errors += 1
            return None
        if bundle is not None:
            self.stats.store_hits += 1
        return bundle

    def _publish_to_store(self, key: tuple, bundle: BaremetalBundle) -> None:
        """Best effort: a full disk must not fail the request."""
        if self.store is None:
            return
        try:
            self.store.put_bundle(key, bundle)
        except (StoreError, OSError):
            self.stats.store_errors += 1

    def bundle_for(
        self,
        model: str,
        config: HardwareConfig | str,
        precision: Precision = Precision.INT8,
        **build,
    ) -> BaremetalBundle:
        """Zoo-model convenience front end over :meth:`get_or_build`.

        ``build`` holds the flow options that
        :func:`~repro.baremetal.pipeline.bundle_cache_key` takes after
        ``precision``.  The key and the build take the same options, so
        a bundle is never built with an option its key does not cover.
        """
        if model not in ZOO:
            raise ReproError(f"unknown zoo model {model!r} (known: {sorted(ZOO)})")
        hw = get_config(config) if isinstance(config, str) else config
        key = bundle_cache_key(model, hw, precision, **build)
        return self.get_or_build(
            key, lambda: generate_baremetal(ZOO[model](), hw, precision=precision, **build)
        )

    def resolve(self, deployment: "DeploymentSpec") -> tuple[BaremetalBundle, str]:
        """A serving deployment's bundle and its source (:attr:`last_source`)."""
        bundle = self.bundle_for(
            deployment.model, deployment.config, precision=deployment.precision
        )
        return bundle, self.last_source

    def clear(self) -> None:
        self._entries.clear()


_SHARED: BundleCache | None = None


def shared_cache() -> BundleCache:
    """The process-wide cache (harness + CLI + examples share builds)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = BundleCache()
    return _SHARED
