"""Round-trip property tests for the store's serialization layers.

Hypothesis drives the container format (arbitrary section names,
payloads, compression flags, meta dicts) and the numpy-array section
codec (dtypes × shapes); the bundle/loadable laws are checked on real
compiled artefacts, including digest stability across *processes* (a
subprocess recompiles and reserializes from scratch and must produce
the byte-identical container).
"""

from __future__ import annotations

import io
import subprocess
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.store import (  # noqa: E402
    Section,
    read_container,
    serialize_bundle,
    deserialize_bundle,
    sha256_hex,
    write_container,
)

# ----------------------------------------------------------------------
# Container format: read(write(x)) == x, and write is deterministic.
# ----------------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=24
)
_sections = st.lists(
    st.tuples(_names, st.binary(max_size=2048), st.booleans()),
    max_size=8,
    unique_by=lambda t: t[0],
)
_meta = st.dictionaries(
    _names,
    st.one_of(st.integers(), st.text(max_size=32), st.booleans(), st.none()),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(meta=_meta, sections=_sections)
def test_container_round_trip(meta, sections):
    blob = write_container(meta, [Section(n, d, c) for n, d, c in sections])
    got_meta, got_sections = read_container(blob)
    assert got_meta == meta
    assert got_sections == {name: data for name, data, _ in sections}


@settings(max_examples=30, deadline=None)
@given(meta=_meta, sections=_sections)
def test_container_write_is_deterministic(meta, sections):
    once = write_container(meta, [Section(n, d, c) for n, d, c in sections])
    twice = write_container(meta, [Section(n, d, c) for n, d, c in sections])
    assert once == twice
    # ... which is exactly what makes the content address stable.
    assert sha256_hex(once) == sha256_hex(twice)


@settings(max_examples=30, deadline=None)
@given(
    meta=_meta,
    sections=_sections.filter(lambda s: sum(len(d) for _, d, _ in s) > 0),
    data=st.data(),
)
def test_container_rejects_any_single_bit_flip(meta, sections, data):
    """Integrity is total: no flipped bit anywhere goes unnoticed."""
    from repro.errors import StoreIntegrityError

    blob = bytearray(write_container(meta, [Section(n, d, c) for n, d, c in sections]))
    position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    blob[position] ^= 1 << bit
    with pytest.raises(StoreIntegrityError):
        read_container(bytes(blob))


# ----------------------------------------------------------------------
# numpy section codec: dtypes × shapes.
# ----------------------------------------------------------------------

_dtypes = st.sampled_from(["uint8", "int8", "int16", "int32", "float16", "float32", "float64"])
_shapes = st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(dtype=_dtypes, shape=_shapes, data=st.data())
def test_array_sections_round_trip_exactly(dtype, shape, data):
    from repro.store.serialize import _array_bytes, _array_from

    size = int(np.prod(shape)) if shape else 1
    raw = data.draw(st.binary(min_size=size * 8, max_size=size * 8))
    array = np.frombuffer(raw[: size * np.dtype(dtype).itemsize], dtype=dtype)
    array = array.reshape(shape) if shape else array.reshape(())
    again = _array_from(_array_bytes(array))
    assert again.dtype == array.dtype and again.shape == array.shape
    # Byte-exact, including NaN payloads float equality would hide.
    assert again.tobytes() == array.tobytes()
    # And deterministic: same array, same serialized bytes.
    assert _array_bytes(array) == _array_bytes(again)


# ----------------------------------------------------------------------
# Bundle laws on real artefacts.
# ----------------------------------------------------------------------


def test_bundle_round_trip_law(lenet_bundle):
    """serialize∘deserialize∘serialize == serialize (the fixed point),
    and the reconstruction preserves the artifact digest."""
    blob = serialize_bundle(lenet_bundle)
    loaded = deserialize_bundle(blob)
    assert serialize_bundle(loaded) == blob
    assert loaded.artifact_digest() == lenet_bundle.artifact_digest()
    # Field-level spot checks (the digest covers these, but failures
    # here localise a regression immediately).
    assert loaded.network == lenet_bundle.network
    assert loaded.commands == lenet_bundle.commands
    assert loaded.assembly == lenet_bundle.assembly
    assert loaded.program.words == lenet_bundle.program.words
    assert loaded.program.symbols == lenet_bundle.program.symbols
    assert loaded.trace.render() == lenet_bundle.trace.render()
    assert loaded.vp_result.cycles == lenet_bundle.vp_result.cycles
    assert np.array_equal(loaded.input_image, lenet_bundle.input_image)
    assert [i.name for i in loaded.images.preload] == [
        i.name for i in lenet_bundle.images.preload
    ]


_SUBPROCESS_PROGRAM = """
import hashlib
from repro.serve.cache import BundleCache
from repro.store import serialize_bundle

bundle = BundleCache().bundle_for("lenet5", "nv_small", fidelity="timing")
print(bundle.artifact_digest())
print(hashlib.sha256(serialize_bundle(bundle)).hexdigest())
"""


def test_digest_stability_across_processes(lenet_bundle):
    """A different process compiling the same deployment produces the
    byte-identical container — the property content addressing and
    cross-worker store sharing stand on."""
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_PROGRAM],
        capture_output=True,
        text=True,
        check=True,
    )
    their_artifact, their_container = proc.stdout.split()
    assert their_artifact == lenet_bundle.artifact_digest()
    assert their_container == sha256_hex(serialize_bundle(lenet_bundle))
