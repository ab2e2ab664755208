"""Golden-trace regression: pinned configuration files.

The checked-in fixtures snapshot the ``ConfigCommand`` sequences that
``trace_to_config`` produces for the default flow (seed 2024), one per
hardware class:

- ``golden/lenet5_nv_small.cfg`` — the small INT8 build (Table II),
- ``golden/resnet18_nv_full.cfg`` — the large FP16 build (Table III),
  covering the wide-atom packing and FP16 register programming the
  nv_small fixture cannot see.

Compiler, VP or codegen changes that alter a register program —
reordering, different addresses, different poll masks — fail here
instead of silently drifting the deployed artefacts.

Fixture history: regenerated when descriptor-level fusion became the
default compile mode.  Conv→pool pairs now program the PDP inside the
conv's own chain group (``D_SRC_FLYING=1``, null PDP_RDMA source
address), so the intermediate DRAM surface, the standalone pool
chain, and one interrupt poll per fused pair all disappear from the
register program; standalone-pool register sequences are otherwise
byte-identical.

The same two builds also pin the SHA-256 of their preload images
(``weights.bin``, ``input.bin``: the output of weight extraction) and
of their binary trace (``TraceLog.to_bytes()``, the store's ``trace``
section), so extraction and trace-codec changes must keep every byte.

If a change is *intentional*, regenerate a fixture::

    PYTHONPATH=src python - <<'EOF'
    from repro.baremetal import generate_baremetal
    from repro.baremetal.config_file import render_config_file
    from repro.nn.zoo import lenet5, resnet18_cifar
    from repro.nvdla import NV_FULL, NV_SMALL
    from repro.nvdla.config import Precision
    for net, config, precision, name in (
        (lenet5(), NV_SMALL, Precision.INT8, "lenet5_nv_small"),
        (resnet18_cifar(), NV_FULL, Precision.FP16, "resnet18_nv_full"),
    ):
        bundle = generate_baremetal(net, config, precision=precision)
        open(f"tests/baremetal/golden/{name}.cfg", "w").write(
            render_config_file(bundle.commands,
            header=f"golden configuration file: {bundle.network} on "
                   f"{config.name} ({precision.value}), seed 2024"))
    EOF

and print the pinned digests for ``PINNED`` with::

    PYTHONPATH=src python - <<'EOF'
    import hashlib
    from repro.baremetal import generate_baremetal
    from repro.nn.zoo import lenet5, resnet18_cifar
    from repro.nvdla import NV_FULL, NV_SMALL
    from repro.nvdla.config import Precision
    for net, config, precision, name in (
        (lenet5(), NV_SMALL, Precision.INT8, "lenet5_nv_small"),
        (resnet18_cifar(), NV_FULL, Precision.FP16, "resnet18_nv_full"),
    ):
        bundle = generate_baremetal(net, config, precision=precision)
        sha = lambda data: hashlib.sha256(data).hexdigest()
        print(name, {image.name: sha(image.data) for image in bundle.images.preload},
              sha(bundle.trace.to_bytes()))
    EOF
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.baremetal import generate_baremetal
from repro.baremetal.config_file import parse_config_file, render_config_file
from repro.nn.zoo import lenet5, resnet18_cifar
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "lenet5_nv_small": (
        lenet5,
        NV_SMALL,
        Precision.INT8,
        "golden configuration file: lenet5 on nv_small (int8), seed 2024",
    ),
    "resnet18_nv_full": (
        resnet18_cifar,
        NV_FULL,
        Precision.FP16,
        "golden configuration file: resnet18 on nv_full (fp16), seed 2024",
    ),
}


#: SHA-256 of each build's preload images and binary trace.
PINNED = {
    "lenet5_nv_small": {
        "images": {
            "weights.bin": "49c2dc0228feb7d318d93bbef464a88c0b09e4c6565535cc7b86929876de3471",
            "input.bin": "8e41f0185d829a201945e9cf025fc44fc2a9d4f5457c673a7dcd9cb9225b5190",
        },
        "trace": "23beca29b6fd967f9b8b933712d74324d77f53c0f62d259bfcea99326ff2200a",
    },
    "resnet18_nv_full": {
        "images": {
            "weights.bin": "fa31917865bea774670051e0fd78a56561b60c32010385a63d5b30f980ab7a1f",
            "input.bin": "d215dfd7862447eca9f5c3ad4a2464f72f50ca1b2c3ff1346acb05efcb4eb2bc",
        },
        "trace": "362826ad1928eb39a0103ed3bec91f76225d36a6dd435202e7eaced1b889171e",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module", params=sorted(CASES))
def built(request):
    builder, config, precision, _ = CASES[request.param]
    return request.param, generate_baremetal(builder(), config, precision=precision)


@pytest.fixture(scope="module")
def case(built):
    name, bundle = built
    return bundle.commands, GOLDEN_DIR / f"{name}.cfg", CASES[name][3]


def test_render_is_byte_stable_against_golden(case):
    commands, golden, header = case
    rendered = render_config_file(commands, header=header)
    assert rendered == golden.read_text(), (
        f"configuration-file drift against {golden.name} — if intentional, "
        "regenerate the fixture (see module docstring)"
    )


def test_golden_round_trips_through_parser(case):
    commands, golden, _ = case
    parsed = parse_config_file(golden.read_text())
    assert parsed == commands
    # And the parse→render cycle is itself stable (modulo the header).
    assert render_config_file(parsed) == render_config_file(commands)


def test_golden_command_mix_is_plausible(case):
    _, golden, _ = case
    commands = parse_config_file(golden.read_text())
    writes = [c for c in commands if c.kind == "write_reg"]
    reads = [c for c in commands if c.kind == "read_reg"]
    assert len(writes) > len(reads) > 0
    # Interrupt-status polls carry restricted masks (the trace_to_config
    # masking rule); plain register reads keep the full mask.
    assert any(c.mask != 0xFFFFFFFF for c in reads)


def test_preload_images_are_pinned(built):
    name, bundle = built
    images = {image.name: _sha256(image.data) for image in bundle.images.preload}
    assert images == PINNED[name]["images"], (
        "preload image drift — if intentional, re-pin (see module docstring)"
    )


def test_trace_bytes_are_pinned(built):
    name, bundle = built
    assert _sha256(bundle.trace.to_bytes()) == PINNED[name]["trace"], (
        "binary trace drift — if intentional, re-pin (see module docstring)"
    )
