"""The content-addressed on-disk artifact store.

Layout (everything under one root directory)::

    store.json                      # layout version marker
    objects/<dd>/<digest>           # immutable containers; digest =
                                    #   SHA-256 of the file bytes
    refs/<key-digest>.json          # deployment key → object digest,
                                    #   byte size, created / last_used

Objects are *content addressed*: the file name is the SHA-256 of the
file's own bytes, so verification needs no side channel and two
writers racing on one deployment key converge on the same object.
Every publish is a write-to-temp-file-then-``os.replace`` in the
target directory — readers either see the complete old file, the
complete new file, or nothing; a crashed writer leaves only a
``.tmp-*`` turd that the next :meth:`gc` sweeps.

Loads verify three layers before returning a bundle: the file digest
against the ref, the container's own index digest and structure (its
section digests are covered by the file digest, so a load does not
hash them again; :meth:`BundleStore.verify` and direct
:func:`~repro.store.format.read_container` callers still do), and the
reconstructed bundle's :meth:`artifact_digest` against the one
recorded at write time.  Any mismatch raises
:class:`~repro.errors.StoreIntegrityError`; :class:`BundleStore`
never returns bytes it could not verify.

Eviction is LRU over refs (``last_used`` is touched on every hit) with
optional caps on total bytes and object count, applied on every put
and on demand via :meth:`gc`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.baremetal.pipeline import BaremetalBundle
from repro.errors import StoreError, StoreIntegrityError
from repro.store.format import canonical_json, sha256_hex
from repro.store.serialize import (
    BUNDLE_KIND,
    bundle_meta,
    deserialize_bundle,
    serialize_bundle,
)

LAYOUT_VERSION = 1

#: Environment variable the CLI reads for a default store root.
STORE_ENV_VAR = "REPRO_STORE_DIR"
DEFAULT_STORE_DIR = ".repro-store"

#: How old (seconds since mtime) an *unreferenced* object or a writer's
#: temp file must be before :meth:`BundleStore.gc` will sweep it.  A
#: concurrent ``put`` publishes object-then-ref, so a just-written
#: object can legitimately have no ref yet; sweeping it would leave the
#: racing writer with a dangling ref.  Anything a put is mid-way
#: through is seconds old at most; a minute of grace closes the race
#: without keeping real garbage around.
GC_GRACE_SECONDS = 60.0


def key_digest(key: tuple) -> str:
    """Stable SHA-256 of a deployment key (str/int/float items only)."""
    return sha256_hex(canonical_json(list(key)))


@dataclass
class StoreStats:
    """Counters for one :class:`BundleStore` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    integrity_failures: int = 0
    evictions: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "integrity_failures": self.integrity_failures,
            "evictions": self.evictions,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
        }


@dataclass(frozen=True)
class StoreEntry:
    """One ``ls`` row: a ref plus its object's vitals."""

    key_digest: str
    object_digest: str
    kind: str
    name: str  # "network/config/precision/fidelity" for bundles
    bytes: int
    created: float
    last_used: float

    def render(self) -> str:
        return (
            f"{self.object_digest[:12]}  {self.bytes / 1024:>9.1f} KiB  "
            f"{self.kind:<16} {self.name}"
        )


@dataclass
class VerifyReport:
    """Outcome of a full-store verification sweep."""

    checked: int = 0
    ok: int = 0
    problems: list[tuple[str, str]] = field(default_factory=list)  # (path, reason)

    @property
    def clean(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = [f"verified {self.checked} object(s): {self.ok} ok, "
                 f"{len(self.problems)} problem(s)"]
        lines.extend(f"  BAD {path}: {reason}" for path, reason in self.problems)
        return "\n".join(lines)


class BundleStore:
    """Content-addressed persistent store for compiled artifacts."""

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int | None = None,
        max_objects: int | None = None,
        gc_grace_seconds: float = GC_GRACE_SECONDS,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise StoreError("max_bytes must be positive (or None for no cap)")
        if max_objects is not None and max_objects <= 0:
            raise StoreError("max_objects must be positive (or None for no cap)")
        if gc_grace_seconds < 0:
            raise StoreError("gc_grace_seconds must be non-negative")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_objects = max_objects
        self.gc_grace_seconds = gc_grace_seconds
        self.stats = StoreStats()
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        (self.root / "refs").mkdir(parents=True, exist_ok=True)
        marker = self.root / "store.json"
        if marker.exists():
            try:
                layout = json.loads(marker.read_text())["layout"]
            except (ValueError, KeyError) as exc:
                raise StoreError(f"{marker}: unreadable store marker: {exc}") from exc
            if layout != LAYOUT_VERSION:
                raise StoreError(
                    f"{self.root}: store layout {layout} != supported {LAYOUT_VERSION}"
                )
        else:
            self._atomic_write(marker, canonical_json({"layout": LAYOUT_VERSION}))

    # ------------------------------------------------------------------
    # Paths and atomic publishing.
    # ------------------------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    def _ref_path(self, kdigest: str) -> Path:
        return self.root / "refs" / f"{kdigest}.json"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        """Publish via temp file + rename: no reader ever sees a torn file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.parent / f".tmp-{os.getpid()}-{os.urandom(4).hex()}"
        try:
            temp.write_bytes(data)
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------

    def _put_object(self, key: tuple, blob: bytes, ref_extra: dict) -> str:
        digest = sha256_hex(blob)
        object_path = self._object_path(digest)
        # An existing file only short-circuits the write if its bytes
        # still hash to the address — republishing heals in-place
        # corruption instead of silently keeping it.
        try:
            fresh = sha256_hex(object_path.read_bytes()) == digest
        except OSError:
            fresh = False
        if not fresh:
            self._atomic_write(object_path, blob)
            self.stats.bytes_written += len(blob)
        now = time.time()
        ref = {
            "key": list(key),
            "object": digest,
            "bytes": len(blob),
            "created": now,
            "last_used": now,
            **ref_extra,
        }
        self._atomic_write(self._ref_path(key_digest(key)), canonical_json(ref))
        self.stats.writes += 1
        self._enforce_capacity()
        return digest

    def put_bundle(self, key: tuple, bundle: BaremetalBundle) -> str:
        """Serialise and publish; returns the object digest."""
        meta = bundle_meta(bundle)
        return self._put_object(
            key,
            serialize_bundle(bundle, meta),
            {
                "kind": BUNDLE_KIND,
                "name": f"{meta['network']}/{meta['config']}/"
                f"{meta['precision']}/{meta['fidelity']}",
                "artifact_digest": meta["artifact_digest"],
            },
        )

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------

    def _read_ref(self, kdigest: str) -> dict | None:
        ref_path = self._ref_path(kdigest)
        try:
            raw = ref_path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            ref = json.loads(raw.decode())
            ref["object"], ref["bytes"]  # required fields
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise StoreIntegrityError(
                f"ref does not parse: {exc}", path=str(ref_path)
            ) from exc
        return ref

    def _read_object(self, ref: dict, kdigest: str) -> bytes:
        object_path = self._object_path(ref["object"])
        try:
            blob = object_path.read_bytes()
        except FileNotFoundError:
            raise StoreIntegrityError(
                f"ref {kdigest[:12]}… points at a missing object {ref['object'][:12]}…",
                path=str(object_path),
            ) from None
        if sha256_hex(blob) != ref["object"]:
            raise StoreIntegrityError(
                "object bytes do not hash to their content address",
                path=str(object_path),
            )
        self.stats.bytes_read += len(blob)
        return blob

    def _touch(self, kdigest: str, ref: dict) -> None:
        ref = dict(ref)
        ref["last_used"] = time.time()
        self._atomic_write(self._ref_path(kdigest), canonical_json(ref))

    def get_bundle(self, key: tuple) -> BaremetalBundle | None:
        """The stored bundle for a deployment key, fully verified.

        Returns ``None`` on a clean miss.  Raises
        :class:`StoreIntegrityError` — after counting it — when bytes
        exist but cannot be trusted; callers treat that as a miss and
        recompile (see :class:`repro.serve.cache.BundleCache`).
        """
        kdigest = key_digest(key)
        try:
            ref = self._read_ref(kdigest)
            if ref is None:
                self.stats.misses += 1
                return None
            blob = self._read_object(ref, kdigest)
            bundle = deserialize_bundle(
                blob,
                path=str(self._object_path(ref["object"])),
                expected_digest=ref.get("artifact_digest"),
                content_verified=True,  # _read_object hashed the whole blob
            )
        except StoreIntegrityError:
            self.stats.integrity_failures += 1
            raise
        self._touch(kdigest, ref)
        self.stats.hits += 1
        return bundle

    def contains(self, key: tuple) -> bool:
        """Cheap presence probe (ref + object files exist; no hashing)."""
        try:
            ref = self._read_ref(key_digest(key))
        except StoreIntegrityError:
            return False
        return ref is not None and self._object_path(ref["object"]).exists()

    def discard(self, key: tuple) -> bool:
        """Drop a deployment's ref (and its object when unreferenced)."""
        kdigest = key_digest(key)
        try:
            ref = self._read_ref(kdigest)
        except StoreIntegrityError:
            ref = None
        self._ref_path(kdigest).unlink(missing_ok=True)
        if ref is not None:
            self._drop_if_unreferenced(ref["object"])
            return True
        return False

    # ------------------------------------------------------------------
    # Inventory, verification, eviction.
    # ------------------------------------------------------------------

    def _refs(self) -> list[tuple[str, dict]]:
        entries = []
        for path in sorted((self.root / "refs").glob("*.json")):
            try:
                ref = self._read_ref(path.stem)
            except StoreIntegrityError:
                continue  # verify() reports these; inventory skips them
            if ref is not None:
                entries.append((path.stem, ref))
        return entries

    def ls(self) -> list[StoreEntry]:
        """Every live ref, most recently used first."""
        entries = [
            StoreEntry(
                key_digest=kdigest,
                object_digest=ref["object"],
                kind=ref.get("kind", "?"),
                name=ref.get("name", "?"),
                bytes=ref["bytes"],
                created=ref.get("created", 0.0),
                last_used=ref.get("last_used", 0.0),
            )
            for kdigest, ref in self._refs()
        ]
        return sorted(entries, key=lambda e: e.last_used, reverse=True)

    def total_bytes(self) -> int:
        return sum(
            path.stat().st_size for path in (self.root / "objects").glob("*/*")
        )

    def __len__(self) -> int:
        return sum(1 for _ in (self.root / "refs").glob("*.json"))

    def verify(self, static: bool = False) -> VerifyReport:
        """Deep-check every ref and object; report, don't raise.

        ``static=True`` additionally runs the :mod:`repro.analyze`
        descriptor-chain verifier over each deserialized artifact, so a
        bit-exact but *miscompiled* object is flagged too.
        """
        report = VerifyReport()
        referenced: set[str] = set()
        for path in sorted((self.root / "refs").glob("*.json")):
            report.checked += 1
            try:
                ref = self._read_ref(path.stem)
                if ref is None:
                    raise StoreIntegrityError(
                        "ref disappeared during verify (discarded or evicted concurrently)",
                        path=str(path),
                    )
                referenced.add(ref["object"])
                blob = self._read_object(ref, path.stem)
                bundle = deserialize_bundle(
                    blob, expected_digest=ref.get("artifact_digest")
                )
                if static:
                    self._verify_static(bundle.loadable, path)
            except StoreIntegrityError as exc:
                report.problems.append((str(path), str(exc)))
            else:
                report.ok += 1
        for object_path in sorted((self.root / "objects").glob("*/*")):
            if object_path.name not in referenced:
                report.checked += 1
                report.problems.append((str(object_path), "unreferenced object"))
        return report

    @staticmethod
    def _verify_static(loadable, path: Path) -> None:
        """Run the descriptor-chain analyzer; fold errors into the sweep."""
        from repro.analyze import analyze_loadable

        analysis = analyze_loadable(loadable, artifact=path.stem)
        if not analysis.clean:
            errors = analysis.errors
            head = "; ".join(d.render() for d in errors[:3])
            more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
            raise StoreIntegrityError(
                f"static analysis found {len(errors)} error(s): {head}{more}",
                path=str(path),
            )

    def _drop_if_unreferenced(self, digest: str) -> None:
        if any(ref["object"] == digest for _, ref in self._refs()):
            return
        self._object_path(digest).unlink(missing_ok=True)

    def _past_grace(self, path: Path, grace_seconds: float) -> bool:
        """True when ``path`` is old enough to be swept as garbage.

        A vanished file (a racing writer just renamed or unlinked it)
        is not ours to sweep either.
        """
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False
        return age >= grace_seconds

    def _sweep_turds(self, grace_seconds: float) -> None:
        for turd in self.root.glob("**/.tmp-*"):
            if self._past_grace(turd, grace_seconds):
                turd.unlink(missing_ok=True)

    def gc(
        self,
        max_bytes: int | None = None,
        max_objects: int | None = None,
        grace_seconds: float | None = None,
    ) -> list[StoreEntry]:
        """Evict least-recently-used refs until under the caps.

        Also drops crashed writers' temp files and any object no ref
        points at.  Returns the evicted entries, oldest first.

        The unreferenced-object sweep only removes objects (and temp
        files) whose mtime is at least ``grace_seconds`` old (default:
        the store's ``gc_grace_seconds``).  A concurrent ``put``
        publishes its object *before* its ref, so a fresh ref-less
        object is indistinguishable from a publish in flight — the
        grace window keeps the sweep from deleting it under the writer
        (``tests/store/test_concurrent.py`` pins the interleaving).
        Cap-driven evictions are exempt: there this store just unlinked
        the ref itself, so the object really is garbage.
        """
        if grace_seconds is None:
            grace_seconds = self.gc_grace_seconds
        self._sweep_turds(grace_seconds)
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        max_objects = self.max_objects if max_objects is None else max_objects
        entries = self.ls()  # most recently used first
        evicted: list[StoreEntry] = []
        live_bytes = sum(entry.bytes for entry in entries)
        while entries and (
            (max_objects is not None and len(entries) > max_objects)
            or (max_bytes is not None and live_bytes > max_bytes)
        ):
            victim = entries.pop()  # LRU tail
            self._ref_path(victim.key_digest).unlink(missing_ok=True)
            self._drop_if_unreferenced(victim.object_digest)
            live_bytes -= victim.bytes
            evicted.append(victim)
            self.stats.evictions += 1
        referenced = {entry.object_digest for entry in entries}
        for object_path in (self.root / "objects").glob("*/*"):
            if object_path.name not in referenced and self._past_grace(
                object_path, grace_seconds
            ):
                object_path.unlink(missing_ok=True)
        return evicted

    def _enforce_capacity(self) -> None:
        if self.max_bytes is None and self.max_objects is None:
            return
        # Cheap pre-check before the full inventory pass.
        if self.max_objects is not None and len(self) > self.max_objects:
            self.gc()
            return
        if self.max_bytes is not None and self.total_bytes() > self.max_bytes:
            self.gc()
