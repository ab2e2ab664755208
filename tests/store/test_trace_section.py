"""The bundle's binary ``trace`` section (``TraceLog.to_bytes``).

Covers the codec's round trip, its refusal of malformed bytes that
still pass the container digests, and the migration behaviour for
objects written in the previous (hex text, ``serial_version`` 1)
format.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StoreIntegrityError, TraceError
from repro.serve.cache import BundleCache
from repro.store import (
    SERIAL_VERSION,
    Section,
    deserialize_bundle,
    key_digest,
    read_container,
    serialize_bundle,
    write_container,
)
from repro.store import store as store_module
from repro.vp.trace_log import _BINARY_HEADER, TraceLog


def _interleaved_trace() -> TraceLog:
    log = TraceLog()
    log.log_csb(3, 0x5010, 0xDEADBEEF, True)
    log.log_dbb(5, 0x0010_0000, bytes(range(150)), False)  # splits into 3 lines
    log.log_csb(9, 0x000C, 0x4, False)
    log.log_dbb(11, 0x8000_0000, b"\x7f" * 7, True)
    log.log_dbb(12, 0x0010_0040, b"", False)
    log.log_csb(13, 0x000C, 0xFFFFFFFF, True)
    return log


@pytest.fixture(scope="module")
def functional_bundle():
    return BundleCache().bundle_for("lenet5", "nv_small")


def test_round_trip_preserves_render_and_interleaving():
    log = _interleaved_trace()
    back = TraceLog.from_bytes(log.to_bytes())
    assert back == log
    assert back.render() == log.render()
    assert [type(t) for t in back.transactions()] == [type(t) for t in log.transactions()]
    assert TraceLog.from_bytes(TraceLog().to_bytes()).render() == ""


_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("csb"),
            st.integers(0, 2**40),
            st.integers(0, 2**32 - 1),
            st.integers(0, 2**32 - 1),
            st.booleans(),
        ),
        st.tuples(
            st.just("dbb"),
            st.integers(0, 2**40),
            st.integers(0, 2**33),
            st.binary(max_size=130),
            st.booleans(),
        ),
    ),
    max_size=20,
)


@settings(max_examples=150, deadline=None)
@given(_events)
def test_round_trip_property(events):
    log = TraceLog()
    for kind, cycle, address, data, iswrite in events:
        (log.log_csb if kind == "csb" else log.log_dbb)(cycle, address, data, iswrite)
    blob = log.to_bytes()
    back = TraceLog.from_bytes(blob)
    assert back.render() == log.render()
    assert back.to_bytes() == blob


def test_real_trace_round_trips(functional_bundle):
    trace = functional_bundle.trace
    assert trace.csb and trace.dbb
    assert TraceLog.from_bytes(trace.to_bytes()).render() == trace.render()


def _with_columns(blob: bytes, edit) -> bytes:
    """Re-pack ``blob`` after ``edit(header_fields, columns) -> same``."""
    magic, version, n_csb, n_dbb, columns_len = _BINARY_HEADER.unpack_from(blob)
    start = _BINARY_HEADER.size
    columns = bytearray(zlib.decompress(blob[start : start + columns_len]))
    (n_csb, n_dbb), columns = edit((n_csb, n_dbb), columns)
    packed = zlib.compress(bytes(columns))
    header = _BINARY_HEADER.pack(magic, version, n_csb, n_dbb, len(packed))
    return header + packed + blob[start + columns_len :]


def _bad_kind(counts, columns):
    columns[0] = 7
    return counts, columns


def _swapped_kind(counts, columns):
    columns[0] ^= 1  # still 0/1, but the counts no longer agree
    return counts, columns


def _column_length_mismatch(counts, columns):
    return (counts[0] + 1, counts[1]), columns


def _short_columns(counts, columns):
    return counts, columns[:-8]


MALFORMATIONS = {
    "truncated-payload": lambda blob: blob[:-1],
    "extra-payload": lambda blob: blob + b"\x00",
    "truncated-columns": lambda blob: blob[: _BINARY_HEADER.size + 3],
    "bad-magic": lambda blob: b"XXXX" + blob[4:],
    "bad-kind-byte": lambda blob: _with_columns(blob, _bad_kind),
    "kind-count-mismatch": lambda blob: _with_columns(blob, _swapped_kind),
    "column-length-mismatch": lambda blob: _with_columns(blob, _column_length_mismatch),
    "short-columns": lambda blob: _with_columns(blob, _short_columns),
}


@pytest.mark.parametrize("name", sorted(MALFORMATIONS))
def test_malformed_trace_raises_trace_error(name):
    with pytest.raises(TraceError):
        TraceLog.from_bytes(MALFORMATIONS[name](_interleaved_trace().to_bytes()))


@pytest.mark.parametrize("name", sorted(MALFORMATIONS))
def test_malformed_trace_section_is_an_integrity_error(functional_bundle, name):
    """The container digests pass (the bad bytes were written as the
    section), so only the codec can notice — and it must surface as a
    typed store refusal, never an IndexError or ValueError."""
    meta, sections = read_container(serialize_bundle(functional_bundle))
    sections["trace"] = MALFORMATIONS[name](sections["trace"])
    blob = write_container(meta, [Section(n, data) for n, data in sections.items()])
    with pytest.raises(StoreIntegrityError, match="does not decode"):
        deserialize_bundle(blob)


def test_every_prefix_and_byte_flip_is_refused_or_decoded():
    blob = _interleaved_trace().to_bytes()
    for cut in range(len(blob)):
        with pytest.raises(TraceError):
            TraceLog.from_bytes(blob[:cut])
    for offset in range(len(blob)):
        damaged = bytearray(blob)
        damaged[offset] ^= 0xFF
        try:
            TraceLog.from_bytes(bytes(damaged))
        except TraceError:
            pass  # refused; anything else escaping is the failure


def _version_1_blob(bundle, meta=None) -> bytes:
    """What the previous writer stored: rendered hex text, zlib'd."""
    meta, sections = read_container(serialize_bundle(bundle, meta))
    meta["serial_version"] = 1
    sections["trace"] = bundle.trace.render().encode()
    return write_container(
        meta, [Section(n, data, compress=n == "trace") for n, data in sections.items()]
    )


def test_version_1_object_recompiles_once_and_republishes(
    store, lenet_bundle, lenet_key, monkeypatch
):
    assert SERIAL_VERSION == 2
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "serialize_bundle", _version_1_blob)
        store.put_bundle(lenet_key, lenet_bundle)
    with pytest.raises(StoreIntegrityError, match="serial version 1"):
        store.get_bundle(lenet_key)

    cache = BundleCache(store=store)
    bundle = cache.bundle_for("lenet5", "nv_small", fidelity="timing")
    assert (cache.stats.store_errors, cache.stats.compiles) == (1, 1)
    assert bundle.artifact_digest() == lenet_bundle.artifact_digest()

    # The recompiled bundle replaced the old object under the same key…
    ref = json.loads((store.root / "refs" / f"{key_digest(lenet_key)}.json").read_text())
    blob = (store.root / "objects" / ref["object"][:2] / ref["object"]).read_bytes()
    assert read_container(blob)[0]["serial_version"] == SERIAL_VERSION
    # …so the next cold cache loads it instead of compiling again.
    again = BundleCache(store=store)
    again.bundle_for("lenet5", "nv_small", fidelity="timing")
    assert (again.stats.store_hits, again.stats.store_errors, again.stats.compiles) == (1, 0, 0)


def test_ref_digest_mismatch_is_refused(store, lenet_bundle, lenet_key):
    """The single digest computed per load is checked against the ref too."""
    store.put_bundle(lenet_key, lenet_bundle)
    ref_path = store.root / "refs" / f"{key_digest(lenet_key)}.json"
    ref = json.loads(ref_path.read_text())
    ref["artifact_digest"] = "0" * 64
    ref_path.write_text(json.dumps(ref))
    with pytest.raises(StoreIntegrityError, match="disagrees with its ref"):
        store.get_bundle(lenet_key)
    assert store.verify().problems
