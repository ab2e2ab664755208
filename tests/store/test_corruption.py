"""Corruption injection: every tamper is a typed refusal, never bad data.

Each test damages the on-disk artifact a different way — flipped
payload byte, flipped index byte, truncation, swapped objects, torn
ref, dangling ref, forged magic/version — and asserts the store raises
:class:`StoreIntegrityError` instead of returning a silently wrong
bundle, and that a store-backed :class:`BundleCache` falls back to
recompilation.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreIntegrityError
from repro.serve.cache import BundleCache
from repro.store import (
    Section,
    key_digest,
    read_container,
    serialize_bundle,
    sha256_hex,
    write_container,
)


def _object_path(store, key):
    ref_path = store.root / "refs" / f"{key_digest(key)}.json"
    import json

    digest = json.loads(ref_path.read_text())["object"]
    return store.root / "objects" / digest[:2] / digest


def _flip_byte(path, offset: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


@pytest.fixture
def loaded_store(store, lenet_bundle, lenet_key):
    store.put_bundle(lenet_key, lenet_bundle)
    return store


def test_flipped_payload_byte_refused(loaded_store, lenet_key):
    path = _object_path(loaded_store, lenet_key)
    _flip_byte(path, path.stat().st_size - 10)  # deep in the payload
    with pytest.raises(StoreIntegrityError):
        loaded_store.get_bundle(lenet_key)
    assert loaded_store.stats.integrity_failures == 1


def test_flipped_index_byte_refused(loaded_store, lenet_key):
    _flip_byte(_object_path(loaded_store, lenet_key), 16)  # inside the index
    with pytest.raises(StoreIntegrityError):
        loaded_store.get_bundle(lenet_key)


def test_every_single_flipped_byte_in_the_header_is_caught(
    loaded_store, lenet_key
):
    """No byte of magic/version/length survives unnoticed."""
    path = _object_path(loaded_store, lenet_key)
    pristine = path.read_bytes()
    for offset in range(10):
        _flip_byte(path, offset)
        with pytest.raises(StoreIntegrityError):
            loaded_store.get_bundle(lenet_key)
        path.write_bytes(pristine)
    assert loaded_store.get_bundle(lenet_key) is not None  # restored


def test_truncated_artifact_refused(loaded_store, lenet_key):
    path = _object_path(loaded_store, lenet_key)
    blob = path.read_bytes()
    for keep in (len(blob) // 2, 64, 9, 0):
        path.write_bytes(blob[:keep])
        with pytest.raises(StoreIntegrityError):
            loaded_store.get_bundle(lenet_key)


def test_swapped_artifacts_refused(loaded_store, lenet_bundle, lenet_key):
    """An object replaced by a different (valid!) container is refused:
    its bytes no longer hash to the ref's content address."""
    other_key = lenet_key[:-1] + (4242,)
    loaded_store.put_bundle(other_key, lenet_bundle)
    path_a = _object_path(loaded_store, lenet_key)
    # Both keys map to the same object (same content), so fabricate a
    # *different* container for the swap.
    import dataclasses

    tweaked = dataclasses.replace(lenet_bundle, notes={"swapped": True})
    path_a.write_bytes(serialize_bundle(tweaked))
    with pytest.raises(StoreIntegrityError):
        loaded_store.get_bundle(lenet_key)


def test_dangling_ref_refused(loaded_store, lenet_key):
    _object_path(loaded_store, lenet_key).unlink()
    with pytest.raises(StoreIntegrityError):
        loaded_store.get_bundle(lenet_key)
    # contains() treats it as absent rather than lying.
    assert not loaded_store.contains(lenet_key)


def test_torn_ref_refused(loaded_store, lenet_key):
    ref_path = loaded_store.root / "refs" / f"{key_digest(lenet_key)}.json"
    ref_path.write_bytes(ref_path.read_bytes()[:10])
    with pytest.raises(StoreIntegrityError):
        loaded_store.get_bundle(lenet_key)


def test_wrong_kind_object_refused(loaded_store, lenet_bundle, lenet_key):
    """A non-bundle container under a bundle ref must not deserialize."""
    import json

    blob = write_container(
        {"kind": "loadable", "serial_version": 2},
        [Section("loadable", lenet_bundle.loadable.to_bytes())],
    )
    # Published at its own content address, so the file digest matches
    # the ref and only the kind check stands in the way.
    digest = sha256_hex(blob)
    object_path = loaded_store.root / "objects" / digest[:2] / digest
    object_path.parent.mkdir(parents=True, exist_ok=True)
    object_path.write_bytes(blob)
    ref_path = loaded_store.root / "refs" / f"{key_digest(lenet_key)}.json"
    ref = json.loads(ref_path.read_text())
    ref["object"] = digest
    ref_path.write_text(json.dumps(ref))
    with pytest.raises(StoreIntegrityError, match="not a 'baremetal-bundle'"):
        loaded_store.get_bundle(lenet_key)


def test_error_message_names_the_file(loaded_store, lenet_key):
    path = _object_path(loaded_store, lenet_key)
    _flip_byte(path, path.stat().st_size - 1)
    with pytest.raises(StoreIntegrityError) as excinfo:
        loaded_store.get_bundle(lenet_key)
    assert str(path) in str(excinfo.value)
    assert excinfo.value.path == str(path)


def test_verify_reports_instead_of_raising(loaded_store, lenet_key):
    path = _object_path(loaded_store, lenet_key)
    _flip_byte(path, path.stat().st_size - 1)
    report = loaded_store.verify()
    assert not report.clean
    assert report.ok == 0 and len(report.problems) == 1
    assert "BAD" in report.render()


def test_cache_falls_back_to_recompilation(loaded_store, lenet_bundle, lenet_key):
    """The end-to-end promise: a corrupt store never breaks serving —
    the cache recompiles, counts the failure, and the fresh bundle is
    bit-identical to the original."""
    path = _object_path(loaded_store, lenet_key)
    _flip_byte(path, path.stat().st_size - 5)
    cache = BundleCache(store=loaded_store)
    bundle = cache.bundle_for("lenet5", "nv_small", fidelity="timing")
    assert bundle.artifact_digest() == lenet_bundle.artifact_digest()
    assert cache.stats.store_errors == 1
    assert cache.stats.compiles == 1
    assert cache.stats.store_hits == 0
    # The recompile overwrote the damage: the store heals.
    healed = BundleCache(store=loaded_store)
    again = healed.bundle_for("lenet5", "nv_small", fidelity="timing")
    assert healed.stats.store_hits == 1 and healed.stats.compiles == 0
    assert again.artifact_digest() == lenet_bundle.artifact_digest()


def test_corrupt_section_is_not_silently_decoded(lenet_bundle):
    """read_container itself (not just the store) rejects tampering —
    flip one byte in every 1 KiB stride of a real container."""
    blob = bytearray(serialize_bundle(lenet_bundle))
    for offset in range(0, len(blob), 1024):
        blob[offset] ^= 0x01
        with pytest.raises(StoreIntegrityError):
            read_container(bytes(blob))
        blob[offset] ^= 0x01  # restore
    read_container(bytes(blob))  # pristine again parses
