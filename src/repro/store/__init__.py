"""Persistent content-addressed store for compiled artifacts.

``repro.store`` persists the expensive products of the bare-metal
pipeline — full deployment bundles, compiled loadable included — under
content-addressed digest keys so that a process (or a freshly
provisioned replica) can warm up by *fetching* instead of
*recompiling*.  See :mod:`repro.store.format` for the container
format, :mod:`repro.store.serialize` for the bundle mapping and
:mod:`repro.store.store` for the on-disk layout, atomic writes,
integrity verification and LRU eviction.
"""

from repro.errors import StoreError, StoreIntegrityError
from repro.store.format import (
    FORMAT_VERSION,
    MAGIC,
    Section,
    canonical_json,
    read_container,
    sha256_hex,
    write_container,
)
from repro.store.serialize import (
    BUNDLE_KIND,
    SERIAL_VERSION,
    deserialize_bundle,
    serialize_bundle,
)
from repro.store.store import (
    DEFAULT_STORE_DIR,
    GC_GRACE_SECONDS,
    STORE_ENV_VAR,
    BundleStore,
    StoreEntry,
    StoreStats,
    VerifyReport,
    key_digest,
)

__all__ = [
    "BUNDLE_KIND",
    "BundleStore",
    "DEFAULT_STORE_DIR",
    "FORMAT_VERSION",
    "GC_GRACE_SECONDS",
    "MAGIC",
    "SERIAL_VERSION",
    "STORE_ENV_VAR",
    "Section",
    "StoreEntry",
    "StoreError",
    "StoreIntegrityError",
    "StoreStats",
    "VerifyReport",
    "canonical_json",
    "deserialize_bundle",
    "key_digest",
    "read_container",
    "serialize_bundle",
    "sha256_hex",
    "write_container",
]
