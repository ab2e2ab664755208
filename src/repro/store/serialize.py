"""Bundle (de)serialisation for the persistent store.

A :class:`~repro.baremetal.pipeline.BaremetalBundle` is a bag of
heterogeneous artefacts — a compiled loadable, a VP trace, register
commands, assembly text, a machine-code image, preload blobs, the VP
reference result — each with an existing text or binary round-trip
(``Loadable.to_bytes``, ``TraceLog.to_bytes``/``from_bytes``, ...).
This module maps each onto one section of the container format, so a
deserialised bundle is field-for-field equivalent to the one written:
same :meth:`artifact_digest`, bit-identical execution on both tiers.

Sections (``*`` = optional): ``loadable``, ``program.json``,
``program.words``, ``assembly``, ``commands``, ``images.json``,
``images.preload.<i>``, ``trace``, ``input_image``,
``vp_result.json``, ``vp_result.raw_output``, ``vp_result.output``,
``vp_result.probabilities``\\*.

The ``trace`` section is :meth:`TraceLog.to_bytes
<repro.vp.trace_log.TraceLog.to_bytes>`, stored as is: int64
transaction columns the codec zlib-compresses itself, then the raw DBB
payload bytes.  Version 1 objects kept the rendered hex text instead;
they fail the version check, so a store holding them recompiles each
deployment once and republishes it.
"""

from __future__ import annotations

import io
import json

import numpy as np

from repro.baremetal.config_file import ConfigCommand
from repro.baremetal.image import BinImage, DeploymentImages
from repro.baremetal.pipeline import BaremetalBundle
from repro.compiler.loadable import Loadable
from repro.errors import StoreIntegrityError
from repro.nvdla.config import Precision
from repro.riscv.program import Program
from repro.store.format import Section, read_container, write_container
from repro.vp import InferenceResult
from repro.vp.trace_log import TraceLog

BUNDLE_KIND = "baremetal-bundle"
SERIAL_VERSION = 2


def _array_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def _array_from(data: bytes, path: str | None = None) -> np.ndarray:
    try:
        return np.load(io.BytesIO(data), allow_pickle=False)
    except ValueError as exc:
        raise StoreIntegrityError(f"stored array does not parse: {exc}", path=path) from exc


def bundle_meta(bundle: BaremetalBundle) -> dict:
    """The identity recorded next to the sections (and in store refs)."""
    return {
        "kind": BUNDLE_KIND,
        "serial_version": SERIAL_VERSION,
        "network": bundle.network,
        "config": bundle.config,
        "precision": bundle.precision.value,
        "fidelity": bundle.fidelity,
        "artifact_digest": bundle.artifact_digest(),
        "notes": bundle.notes,
    }


def serialize_bundle(bundle: BaremetalBundle, meta: dict | None = None) -> bytes:
    """One deterministic container blob for the whole bundle.

    ``meta`` is :func:`bundle_meta` of ``bundle`` when the caller has
    already computed it (it hashes every artefact).
    """
    program = bundle.program
    sections = [
        Section("loadable", bundle.loadable.to_bytes()),
        Section(
            "program.json",
            json.dumps(
                {
                    "base": program.base,
                    "entry": program.entry,
                    "symbols": program.symbols,
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode(),
        ),
        Section("program.words", program.to_bytes()),
        Section("assembly", bundle.assembly.encode(), compress=True),
        Section(
            "commands",
            json.dumps(
                [[c.kind, c.address, c.data, c.mask] for c in bundle.commands],
                separators=(",", ":"),
            ).encode(),
            compress=True,
        ),
        Section(
            "images.json",
            json.dumps(
                {
                    "program_mem": bundle.images.program_mem,
                    "preload": [
                        {"name": image.name, "load_address": image.load_address}
                        for image in bundle.images.preload
                    ],
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode(),
            compress=True,
        ),
        *(
            Section(f"images.preload.{index}", image.data)
            for index, image in enumerate(bundle.images.preload)
        ),
        Section("trace", bundle.trace.to_bytes()),
        Section("input_image", _array_bytes(bundle.input_image)),
        Section(
            "vp_result.json",
            json.dumps(
                {
                    "cycles": bundle.vp_result.cycles,
                    "ops": bundle.vp_result.ops,
                    "csb_accesses": bundle.vp_result.csb_accesses,
                    "op_cycles": bundle.vp_result.op_cycles,
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode(),
        ),
        Section("vp_result.raw_output", _array_bytes(bundle.vp_result.raw_output)),
        Section("vp_result.output", _array_bytes(bundle.vp_result.output)),
    ]
    if bundle.vp_result.probabilities is not None:
        sections.append(
            Section(
                "vp_result.probabilities", _array_bytes(bundle.vp_result.probabilities)
            )
        )
    return write_container(meta or bundle_meta(bundle), sections)


def deserialize_bundle(
    blob: bytes,
    path: str | None = None,
    expected_digest: str | None = None,
    content_verified: bool = False,
) -> BaremetalBundle:
    """Reconstruct a bundle; integrity failures raise, never mis-load.

    The reconstruction's :meth:`artifact_digest` must equal the one
    recorded in the object and, when given, ``expected_digest`` (the
    one a store ref records); it is computed once for both checks.
    ``content_verified`` is passed to :func:`read_container`.
    """
    meta, sections = read_container(blob, path=path, content_verified=content_verified)
    if meta.get("kind") != BUNDLE_KIND:
        raise StoreIntegrityError(
            f"object is a {meta.get('kind')!r}, not a {BUNDLE_KIND!r}", path=path
        )
    if meta.get("serial_version") != SERIAL_VERSION:
        raise StoreIntegrityError(
            f"unsupported bundle serial version {meta.get('serial_version')!r}",
            path=path,
        )

    def section(name: str) -> bytes:
        try:
            return sections[name]
        except KeyError:
            raise StoreIntegrityError(f"missing section {name!r}", path=path) from None

    try:
        loadable = Loadable.from_bytes(section("loadable"))
        program_meta = json.loads(section("program.json").decode())
        program = Program.from_bytes(section("program.words"), base=program_meta["base"])
        program.entry = program_meta["entry"]
        program.symbols = program_meta["symbols"]
        assembly = section("assembly").decode()
        program.source = assembly
        commands = [
            ConfigCommand(kind, address, data, mask)
            for kind, address, data, mask in json.loads(section("commands").decode())
        ]
        images_meta = json.loads(section("images.json").decode())
        preload = [
            BinImage(
                name=entry["name"],
                load_address=entry["load_address"],
                data=section(f"images.preload.{index}"),
            )
            for index, entry in enumerate(images_meta["preload"])
        ]
        trace = TraceLog.from_bytes(section("trace"))
        vp_meta = json.loads(section("vp_result.json").decode())
    except StoreIntegrityError:
        raise
    except Exception as exc:  # malformed inner payloads are integrity failures too
        raise StoreIntegrityError(f"stored bundle does not decode: {exc}", path=path) from exc
    vp_result = InferenceResult(
        raw_output=_array_from(section("vp_result.raw_output"), path),
        output=_array_from(section("vp_result.output"), path),
        probabilities=(
            _array_from(sections["vp_result.probabilities"], path)
            if "vp_result.probabilities" in sections
            else None
        ),
        cycles=vp_meta["cycles"],
        ops=vp_meta["ops"],
        csb_accesses=vp_meta["csb_accesses"],
        op_cycles=vp_meta["op_cycles"],
    )
    bundle = BaremetalBundle(
        network=meta["network"],
        config=meta["config"],
        precision=Precision(meta["precision"]),
        loadable=loadable,
        trace=trace,
        commands=commands,
        assembly=assembly,
        program=program,
        images=DeploymentImages(
            program_mem=images_meta["program_mem"], program=program, preload=preload
        ),
        vp_result=vp_result,
        input_image=_array_from(section("input_image"), path),
        fidelity=meta["fidelity"],
        notes=meta.get("notes", {}),
    )
    digest = bundle.artifact_digest()
    recorded = meta.get("artifact_digest")
    if recorded is not None and digest != recorded:
        raise StoreIntegrityError(
            "reconstructed bundle's artifact digest disagrees with the one "
            f"recorded at write time ({recorded[:12]}…)",
            path=path,
        )
    if expected_digest is not None and digest != expected_digest:
        raise StoreIntegrityError(
            "bundle artifact digest disagrees with its ref", path=path
        )
    return bundle
