"""BundleCache: hit/miss semantics, keys, LRU bounds."""

from __future__ import annotations

import pytest

from repro.baremetal.codegen import CodegenOptions
from repro.baremetal.pipeline import bundle_cache_key, options_fingerprint
from repro.compiler import CompileOptions
from repro.errors import ReproError
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision
from repro.serve import BundleCache


def test_same_key_returns_identical_bundle_without_recompiling():
    cache = BundleCache()
    first = cache.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    again = cache.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    assert again is first  # the very same object, no rebuild
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5


def test_different_precision_misses():
    cache = BundleCache()
    int8 = cache.bundle_for("lenet5", NV_FULL, Precision.INT8, fidelity="timing")
    fp16 = cache.bundle_for("lenet5", NV_FULL, Precision.FP16, fidelity="timing")
    assert cache.stats.misses == 2
    assert cache.stats.hits == 0
    assert int8 is not fp16
    assert int8.precision is Precision.INT8
    assert fp16.precision is Precision.FP16


def test_different_fidelity_and_config_miss():
    cache = BundleCache()
    cache.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    cache.bundle_for("lenet5", NV_SMALL, fidelity="functional")
    cache.bundle_for("lenet5", NV_FULL, fidelity="timing")
    assert cache.stats.misses == 3


def test_codegen_options_are_part_of_the_key():
    cache = BundleCache()
    default = cache.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    tweaked = cache.bundle_for(
        "lenet5",
        NV_SMALL,
        fidelity="timing",
        codegen_options=CodegenOptions(poll_limit=12345),
    )
    assert cache.stats.misses == 2
    assert default is not tweaked
    # But an explicitly default-constructed options object is the same
    # deployment as None.
    same = cache.bundle_for(
        "lenet5", NV_SMALL, fidelity="timing", codegen_options=CodegenOptions()
    )
    assert same is default
    assert cache.stats.hits == 1


def test_key_treats_default_compile_options_as_none():
    for precision in (Precision.INT8, Precision.FP16):
        explicit = bundle_cache_key(
            "lenet5",
            NV_FULL,
            precision,
            compile_options=CompileOptions(precision=precision),
        )
        implied = bundle_cache_key("lenet5", NV_FULL, precision)
        assert explicit == implied


def test_key_separates_seeds_and_models():
    base = bundle_cache_key("lenet5", NV_SMALL, Precision.INT8)
    assert bundle_cache_key("resnet18", NV_SMALL, Precision.INT8) != base
    assert bundle_cache_key("lenet5", NV_SMALL, Precision.INT8, seed=1) != base


def test_options_fingerprint_stability():
    assert options_fingerprint(None) == "defaults"
    # A default-constructed options object IS the defaults.
    assert options_fingerprint(CodegenOptions()) == "defaults"
    a = options_fingerprint(CodegenOptions(poll_limit=7))
    b = options_fingerprint(CodegenOptions(poll_limit=7))
    c = options_fingerprint(CodegenOptions(poll_limit=8))
    assert a == b
    assert a != c
    assert a != "defaults"


def test_independent_builds_are_exact_replicas():
    """Two caches building the same deployment key independently
    produce byte-identical artefacts (the determinism the cache's
    correctness rests on), witnessed by artifact_digest."""
    digests = [
        BundleCache().bundle_for("lenet5", NV_SMALL, fidelity="timing").artifact_digest()
        for _ in range(2)
    ]
    assert digests[0] == digests[1]
    # In functional fidelity the seed picks the baked input.bin, so a
    # different seed must change the artefacts.  (Timing-mode bundles
    # carry no DBB payloads and are input-independent by design.)
    functional = [
        BundleCache().bundle_for("lenet5", NV_SMALL, seed=seed).artifact_digest()
        for seed in (2024, 1)
    ]
    assert functional[0] != functional[1]


def test_lru_eviction_bound():
    cache = BundleCache(max_entries=1)
    first = cache.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    cache.bundle_for("lenet5", NV_FULL, fidelity="timing")
    assert len(cache) == 1
    assert cache.stats.evictions == 1
    # The evicted deployment rebuilds (a fresh object, not the old one).
    rebuilt = cache.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    assert rebuilt is not first
    assert cache.stats.misses == 3


def test_unknown_model_rejected():
    cache = BundleCache()
    with pytest.raises(ReproError):
        cache.bundle_for("nonexistent", NV_SMALL)
    with pytest.raises(ReproError):
        BundleCache(max_entries=0)


# ----------------------------------------------------------------------
# Store-backed tier: memory → disk → compile.
# ----------------------------------------------------------------------


def test_store_backed_miss_path(tmp_path):
    from repro.store import BundleStore

    store = BundleStore(tmp_path / "store")
    first = BundleCache(store=store)
    built = first.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    # The compile was published as a side effect…
    assert first.stats.compiles == 1
    assert first.stats.store_hits == 0
    assert len(store) == 1
    # …so a brand-new cache over the same store loads instead of building.
    second = BundleCache(store=store)
    fetched = second.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    assert second.stats.store_hits == 1
    assert second.stats.compiles == 0
    assert second.stats.misses == 1  # still a *memory* miss
    assert fetched.artifact_digest() == built.artifact_digest()
    # Once resident, memory wins — the store is not consulted again.
    store_reads = store.stats.hits
    second.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    assert second.stats.hits == 1
    assert store.stats.hits == store_reads


def test_resolve_names_the_bundle_source(tmp_path):
    from repro.serve import DeploymentSpec
    from repro.store import BundleStore

    store = BundleStore(tmp_path / "store")
    spec = DeploymentSpec("lenet5")
    cache = BundleCache(store=store)
    built, source = cache.resolve(spec)
    assert source == "compile"
    again, source = cache.resolve(spec)
    assert again is built and source == "memory"
    fetched, source = BundleCache(store=store).resolve(spec)
    assert source == "store"
    assert fetched.artifact_digest() == built.artifact_digest()


def test_stats_invariant_and_to_dict(tmp_path):
    from repro.store import BundleStore

    store = BundleStore(tmp_path / "store")
    cache = BundleCache(store=store)
    cache.bundle_for("lenet5", NV_SMALL, fidelity="timing")  # compile
    cache.bundle_for("lenet5", NV_SMALL, fidelity="timing")  # memory hit
    BundleCache(store=store).bundle_for("lenet5", NV_SMALL, fidelity="timing")
    stats = cache.stats
    # Every miss is resolved by exactly one of {store, compiler}.
    assert stats.misses == stats.store_hits + stats.compiles
    payload = stats.to_dict()
    for field in (
        "hits",
        "misses",
        "store_hits",
        "store_errors",
        "compiles",
        "evictions",
        "hit_rate",
        "build_seconds",
    ):
        assert field in payload
    assert payload["compiles"] == 1
    assert payload["store_errors"] == 0
    assert stats.build_seconds > 0.0


def test_storeless_cache_never_counts_store_traffic():
    cache = BundleCache()
    cache.bundle_for("lenet5", NV_SMALL, fidelity="timing")
    assert cache.stats.store_hits == 0
    assert cache.stats.store_errors == 0
    assert cache.stats.compiles == 1
    assert cache.stats.misses == 1
