"""The versioned binary container every stored artifact lives in.

One file = one artifact::

    RBST | version(2, LE) | index_len(4, LE) | index JSON |
    index SHA-256 (32 raw bytes) | payload

The index names every *section* of the payload — offset, stored
length, SHA-256 of the stored bytes, logical length and encoding —
plus a free-form ``meta`` dict for the object kind and identity.  A
reader verifies the index's own digest and then each section's digest
before decoding it (the store, which has already checked the whole
file against its content address, skips the latter), so a flipped
byte *anywhere in the file* — header, index, meta or payload — a
truncated tail or a swapped payload is always a typed
:class:`~repro.errors.StoreIntegrityError`, never silently wrong data.

The encoding is deterministic: JSON is emitted with sorted keys and
fixed separators, and zlib (the only compression used) is fixed at
one level — two processes serialising the same artifact produce
byte-identical containers, which is what makes content addressing
(digest = SHA-256 of the file) stable across writers.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass

from repro.errors import StoreIntegrityError

MAGIC = b"RBST"
FORMAT_VERSION = 1

_ZLIB_LEVEL = 6  # fixed: compression must be deterministic
_ENCODINGS = ("raw", "zlib")


def canonical_json(data: dict | list) -> bytes:
    """Deterministic JSON bytes (sorted keys, fixed separators)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Section:
    """One named payload slice of a container."""

    name: str
    data: bytes
    compress: bool = False


def write_container(meta: dict, sections: list[Section]) -> bytes:
    """Serialise sections into one integrity-indexed blob."""
    names = [section.name for section in sections]
    if len(set(names)) != len(names):
        raise StoreIntegrityError(f"duplicate section names in {names}")
    payload = bytearray()
    index_sections = []
    for section in sections:
        stored = (
            zlib.compress(section.data, _ZLIB_LEVEL) if section.compress else section.data
        )
        index_sections.append(
            {
                "name": section.name,
                "offset": len(payload),
                "stored_length": len(stored),
                "length": len(section.data),
                "encoding": "zlib" if section.compress else "raw",
                "sha256": sha256_hex(stored),
            }
        )
        payload.extend(stored)
    index = canonical_json({"meta": meta, "sections": index_sections})
    return (
        MAGIC
        + FORMAT_VERSION.to_bytes(2, "little")
        + len(index).to_bytes(4, "little")
        + index
        + hashlib.sha256(index).digest()
        + bytes(payload)
    )


def read_container(
    blob: bytes, path: str | None = None, content_verified: bool = False
) -> tuple[dict, dict[str, bytes]]:
    """Parse and verify a container; returns ``(meta, {name: data})``.

    Every anomaly — bad magic, unknown version, an index that does not
    parse, a section outside the payload, a digest mismatch, an
    undecodable zlib stream — raises :class:`StoreIntegrityError`.

    ``content_verified=True`` says the caller has already checked the
    whole blob against its content address (the store does on every
    load), so the section digests, which that check covers, are not
    hashed again; everything else is still checked.
    """

    def bad(reason: str) -> StoreIntegrityError:
        return StoreIntegrityError(reason, path=path)

    if len(blob) < 10:
        raise bad(f"container truncated to {len(blob)} bytes")
    if blob[:4] != MAGIC:
        raise bad(f"bad magic {blob[:4]!r} (want {MAGIC!r})")
    version = int.from_bytes(blob[4:6], "little")
    if version != FORMAT_VERSION:
        raise bad(f"unsupported container version {version}")
    index_len = int.from_bytes(blob[6:10], "little")
    if 10 + index_len + 32 > len(blob):
        raise bad(f"index length {index_len} overruns {len(blob)}-byte container")
    index_bytes = blob[10 : 10 + index_len]
    recorded_digest = blob[10 + index_len : 10 + index_len + 32]
    if hashlib.sha256(index_bytes).digest() != recorded_digest:
        raise bad("index SHA-256 mismatch (corrupted header/index/meta)")
    try:
        index = json.loads(index_bytes.decode())
        meta = index["meta"]
        entries = index["sections"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise bad(f"index does not parse: {exc}") from exc
    payload = blob[10 + index_len + 32 :]
    sections: dict[str, bytes] = {}
    for entry in entries:
        try:
            name = entry["name"]
            offset, stored_length = entry["offset"], entry["stored_length"]
            encoding, digest = entry["encoding"], entry["sha256"]
        except (KeyError, TypeError) as exc:
            raise bad(f"malformed section entry {entry!r}") from exc
        if encoding not in _ENCODINGS:
            raise bad(f"section {name!r}: unknown encoding {encoding!r}")
        if not (0 <= offset and offset + stored_length <= len(payload)):
            raise bad(
                f"section {name!r}: [{offset}, {offset + stored_length}) outside "
                f"{len(payload)}-byte payload (truncated?)"
            )
        stored = payload[offset : offset + stored_length]
        if not content_verified and sha256_hex(stored) != digest:
            raise bad(f"section {name!r}: SHA-256 mismatch (corrupted bytes)")
        if encoding == "zlib":
            try:
                data = zlib.decompress(stored)
            except zlib.error as exc:
                raise bad(f"section {name!r}: zlib stream corrupt: {exc}") from exc
        else:
            data = stored
        if len(data) != entry.get("length", len(data)):
            raise bad(
                f"section {name!r}: decoded {len(data)} bytes, "
                f"index records {entry['length']}"
            )
        if name in sections:
            raise bad(f"duplicate section {name!r}")
        sections[name] = data
    return meta, sections
