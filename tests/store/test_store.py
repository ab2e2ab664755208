"""BundleStore: round trips, content addressing, atomicity, LRU gc."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import StoreError
from repro.store import (
    BundleStore,
    key_digest,
    serialize_bundle,
    sha256_hex,
)


def _no_turds(store: BundleStore) -> bool:
    return not list(store.root.glob("**/.tmp-*"))


def test_put_get_round_trip_is_bit_identical(store, lenet_bundle, lenet_key):
    digest = store.put_bundle(lenet_key, lenet_bundle)
    loaded = store.get_bundle(lenet_key)
    assert loaded is not None
    assert loaded.artifact_digest() == lenet_bundle.artifact_digest()
    # Byte-identical reserialization: the round trip lost nothing.
    assert serialize_bundle(loaded) == serialize_bundle(lenet_bundle)
    # The object file's name IS its content hash.
    object_path = store.root / "objects" / digest[:2] / digest
    assert sha256_hex(object_path.read_bytes()) == digest
    assert store.stats.writes == 1 and store.stats.hits == 1


def test_absent_key_is_a_clean_miss(store):
    assert store.get_bundle(("no", "such", "deployment")) is None
    assert store.stats.misses == 1
    assert not store.contains(("no", "such", "deployment"))


def test_contains_and_discard(store, lenet_bundle, lenet_key):
    assert not store.contains(lenet_key)
    store.put_bundle(lenet_key, lenet_bundle)
    assert store.contains(lenet_key)
    assert store.discard(lenet_key)
    assert not store.contains(lenet_key)
    assert not store.discard(lenet_key)  # second discard is a no-op
    # The unreferenced object went with its last ref.
    assert not list((store.root / "objects").glob("*/*"))


def test_identical_content_under_two_keys_shares_one_object(
    store, lenet_bundle, lenet_key
):
    other_key = lenet_key[:-1] + (9999,)
    a = store.put_bundle(lenet_key, lenet_bundle)
    b = store.put_bundle(other_key, lenet_bundle)
    assert a == b  # content-addressed: same bytes, same object
    assert len(store) == 2  # but two refs
    assert len(list((store.root / "objects").glob("*/*"))) == 1
    # Dropping one key keeps the object alive for the other.
    store.discard(lenet_key)
    assert store.get_bundle(other_key) is not None


def test_writes_leave_no_temp_files(store, lenet_bundle, lenet_key):
    store.put_bundle(lenet_key, lenet_bundle)
    store.get_bundle(lenet_key)  # touches the ref (atomic rewrite)
    assert _no_turds(store)


def test_ls_orders_by_recency_and_renders(store, lenet_bundle, lenet_key):
    key_b = lenet_key[:-1] + (1,)
    store.put_bundle(lenet_key, lenet_bundle)
    store.put_bundle(key_b, lenet_bundle)
    store.get_bundle(lenet_key)  # most recently used now
    entries = store.ls()
    assert [e.key_digest for e in entries] == [
        key_digest(lenet_key), key_digest(key_b)
    ]
    assert "lenet5/nv_small/int8/timing" in entries[0].render()


def test_gc_evicts_least_recently_used_first(store, lenet_bundle, lenet_key):
    keys = [lenet_key[:-1] + (seed,) for seed in (1, 2, 3)]
    for key in keys:
        store.put_bundle(key, lenet_bundle)
    store.get_bundle(keys[0])  # refresh the oldest
    evicted = store.gc(max_objects=2)
    assert [e.key_digest for e in evicted] == [key_digest(keys[1])]
    assert store.contains(keys[0]) and store.contains(keys[2])
    assert store.stats.evictions == 1


def _backdate(path, seconds: float = 3600.0) -> None:
    """Age a file past any gc grace window."""
    stamp = path.stat().st_mtime - seconds
    os.utime(path, (stamp, stamp))


def test_gc_size_cap_and_orphan_sweep(store, lenet_bundle, lenet_key):
    store.put_bundle(lenet_key, lenet_bundle)
    # Fabricate an old orphan object and a crashed writer's temp file.
    orphan = store.root / "objects" / "zz" / ("zz" * 32)
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_bytes(b"orphan")
    _backdate(orphan)
    turd = store.root / "refs" / ".tmp-dead"
    turd.write_bytes(b"torn")
    _backdate(turd)
    evicted = store.gc(max_bytes=1)  # cap below one artifact
    assert len(evicted) == 1 and len(store) == 0
    assert not orphan.exists() and not turd.exists()


def test_gc_grace_spares_fresh_unreferenced_files(store, lenet_bundle, lenet_key):
    """A just-written ref-less object (a put in flight publishes
    object-then-ref) and a just-created temp file must survive the
    sweep until the grace window has passed."""
    fresh_orphan = store.root / "objects" / "zz" / ("zz" * 32)
    fresh_orphan.parent.mkdir(parents=True, exist_ok=True)
    fresh_orphan.write_bytes(b"publish in flight")
    fresh_turd = store.root / "refs" / ".tmp-live-writer"
    fresh_turd.write_bytes(b"half written")
    assert store.gc() == []
    assert fresh_orphan.exists() and fresh_turd.exists()
    # Once aged past the window, the same sweep collects both...
    _backdate(fresh_orphan)
    _backdate(fresh_turd)
    store.gc()
    assert not fresh_orphan.exists() and not fresh_turd.exists()
    # ...and cap-driven eviction never waits: the store unlinked the
    # ref itself, so the object is garbage regardless of age.
    store.put_bundle(lenet_key, lenet_bundle)
    store.gc(max_objects=None, max_bytes=1)
    assert len(store) == 0
    assert not list((store.root / "objects").glob("*/*"))


def test_capacity_enforced_on_put(tmp_path, lenet_bundle, lenet_key):
    store = BundleStore(tmp_path / "capped", max_objects=1)
    store.put_bundle(lenet_key, lenet_bundle)
    store.put_bundle(lenet_key[:-1] + (1,), lenet_bundle)
    assert len(store) == 1
    assert store.stats.evictions == 1
    assert store.contains(lenet_key[:-1] + (1,))  # newest survives


def test_verify_clean_store(store, lenet_bundle, lenet_key):
    store.put_bundle(lenet_key, lenet_bundle)
    report = store.verify()
    assert report.clean and report.ok == 1
    assert "1 ok" in report.render()


def test_verify_flags_unreferenced_objects(store, lenet_bundle, lenet_key):
    store.put_bundle(lenet_key, lenet_bundle)
    (store.root / "objects" / "aa").mkdir(parents=True, exist_ok=True)
    (store.root / "objects" / "aa" / ("aa" * 32)).write_bytes(b"stray")
    report = store.verify()
    assert not report.clean
    assert any("unreferenced" in reason for _, reason in report.problems)


def test_layout_version_guard(tmp_path):
    root = tmp_path / "future"
    BundleStore(root)
    (root / "store.json").write_text(json.dumps({"layout": 999}))
    with pytest.raises(StoreError):
        BundleStore(root)


def test_invalid_caps_rejected(tmp_path):
    with pytest.raises(StoreError):
        BundleStore(tmp_path / "x", max_bytes=0)
    with pytest.raises(StoreError):
        BundleStore(tmp_path / "y", max_objects=-1)


def test_key_digest_is_stable_and_order_sensitive():
    key = ("lenet5", "nv_small", "int8", "timing", "defaults:int8", "defaults", 2024)
    assert key_digest(key) == key_digest(tuple(key))
    assert key_digest(key) != key_digest(key[::-1])
    assert len(key_digest(key)) == 64


def test_store_survives_reopen(tmp_path, lenet_bundle, lenet_key):
    root = tmp_path / "persistent"
    BundleStore(root).put_bundle(lenet_key, lenet_bundle)
    # A brand-new process would construct a fresh handle over the same
    # directory — everything must still verify and load.
    reopened = BundleStore(root)
    assert len(reopened) == 1
    loaded = reopened.get_bundle(lenet_key)
    assert loaded is not None
    assert loaded.artifact_digest() == lenet_bundle.artifact_digest()


def test_ref_touch_updates_last_used(store, lenet_bundle, lenet_key):
    store.put_bundle(lenet_key, lenet_bundle)
    before = store.ls()[0].last_used
    store.get_bundle(lenet_key)
    assert store.ls()[0].last_used >= before
    ref = json.loads(
        (store.root / "refs" / f"{key_digest(lenet_key)}.json").read_text()
    )
    assert ref["object"] == store.ls()[0].object_digest
    assert os.path.exists(store.root / "objects" / ref["object"][:2] / ref["object"])


def test_verify_reports_a_ref_that_vanishes_mid_sweep(store, lenet_bundle, lenet_key, monkeypatch):
    """A ref listed by the sweep but gone when read (a concurrent
    discard or eviction) is reported, not asserted on."""
    store.put_bundle(lenet_key, lenet_bundle)
    monkeypatch.setattr(store, "_read_ref", lambda kdigest: None)
    report = store.verify()
    assert report.ok == 0
    reasons = [reason for _, reason in report.problems]
    assert sum("ref disappeared during verify" in reason for reason in reasons) == 1


def test_load_hashes_sections_only_through_the_object_digest(
    store, lenet_bundle, lenet_key, monkeypatch
):
    """``get_bundle`` checks the whole object against its content
    address and does not hash its sections again; ``read_container``
    on bytes nobody has checked hashes every section."""
    import repro.store.format as container

    store.put_bundle(lenet_key, lenet_bundle)
    hashed: list[int] = []
    real = container.sha256_hex

    def counting(data):
        hashed.append(len(data))
        return real(data)

    monkeypatch.setattr(container, "sha256_hex", counting)
    assert store.get_bundle(lenet_key).artifact_digest() == lenet_bundle.artifact_digest()
    assert hashed == []
    blob = serialize_bundle(lenet_bundle)
    hashed.clear()
    _, sections = container.read_container(blob)
    assert len(hashed) == len(sections)
