"""The end-to-end offline flow: model → bare-metal artefacts.

Composes the whole of the paper's Fig. 1 in one call::

    bundle = generate_baremetal(lenet5(), NV_SMALL)

running: compile → VP execution (trace capture) → configuration file →
weight/input extraction → RISC-V assembly → machine code.  The bundle
carries every intermediate artefact, so examples and tests can inspect
any stage, and the SoC model consumes the final images directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

from repro.baremetal.codegen import CodegenOptions, estimate_program_words, generate_assembly
from repro.baremetal.config_file import ConfigCommand, render_config_file
from repro.baremetal.image import BinImage, DeploymentImages, segments_to_bin
from repro.baremetal.trace_to_config import trace_to_config
from repro.baremetal.weight_extract import extract_initial_memory, split_by_regions
from repro.compiler import CompileOptions, compile_network
from repro.compiler.loadable import Loadable
from repro.errors import CodegenError, TraceError
from repro.nn.graph import Network
from repro.nn.quantize import CalibrationTable
from repro.nvdla.config import HardwareConfig, Precision, get_config
from repro.riscv.assembler import assemble
from repro.riscv.program import Program
from repro.vp import InferenceResult, NvdlaRuntime, TraceLog, VirtualPlatform


@dataclass
class BaremetalBundle:
    """All artefacts of one offline flow run."""

    network: str
    config: str
    precision: Precision
    loadable: Loadable
    trace: TraceLog
    commands: list[ConfigCommand]
    assembly: str
    program: Program
    images: DeploymentImages
    vp_result: InferenceResult
    input_image: np.ndarray
    fidelity: str = "functional"
    notes: dict = field(default_factory=dict)

    @property
    def config_file_text(self) -> str:
        return render_config_file(
            self.commands,
            header=(
                f"configuration file for {self.network} on {self.config} "
                f"({self.precision.value})"
            ),
        )

    def has_input(self, input_image: np.ndarray | None = None) -> bool:
        """Whether a run of this bundle computes on a real input: the
        run's own ``input_image`` or the baked ``input.bin`` (a timing
        build ships none).  Every execution tier returns ``output=None``
        for a run without one, whatever DRAM happens to hold."""
        return input_image is not None or any(
            image.name == "input.bin" for image in self.images.preload
        )

    def artifact_digest(self) -> str:
        """SHA-256 over every deployable artefact of the bundle.

        Two bundles with equal digests produce bit-identical SoC runs:
        the digest covers the machine code, the register command
        sequence and every preload image (name, load address, bytes).
        The serve tests use it to prove that independent builds of one
        deployment key are exact replicas of each other.
        """
        h = hashlib.sha256()
        h.update(self.program.to_bytes())
        h.update(self.program.base.to_bytes(8, "little"))
        for command in self.commands:
            h.update(command.render().encode())
        for image in self.images.preload:
            h.update(image.name.encode())
            h.update(image.load_address.to_bytes(8, "little"))
            h.update(image.data)
        return h.hexdigest()

    def describe(self) -> str:
        lines = [
            f"bare-metal bundle: {self.network} on {self.config} ({self.precision.value})",
            f"  trace: {len(self.trace.csb)} csb + {len(self.trace.dbb)} dbb transactions",
            f"  config file: {len(self.commands)} commands",
            f"  program: {len(self.program.words)} words "
            f"({self.program.size_bytes / 1024:.1f} KiB)",
            self.images.describe(),
        ]
        return "\n".join(lines)


def generate_baremetal(
    net: Network,
    config: HardwareConfig,
    precision: Precision = Precision.INT8,
    input_image: np.ndarray | None = None,
    fidelity: str = "functional",
    compile_options: CompileOptions | None = None,
    codegen_options: CodegenOptions | None = None,
    seed: int = 2024,
    verify: bool = False,
) -> BaremetalBundle:
    """Run the complete offline software-generation flow.

    With ``fidelity="timing"`` the VP skips tensor computation and DBB
    data logging (for ResNet-50-class models); weight extraction then
    falls back to the loadable's own weight blob and packed input, so
    the deployment images are still complete.

    ``verify=True`` statically analyzes the compiled loadable (see
    :mod:`repro.analyze`) *before* the VP runs, raising
    :class:`~repro.errors.StaticAnalysisError` on any ERROR finding —
    a miscompile is caught for the cost of a descriptor replay rather
    than a simulation.
    """
    compile_options = compile_options or CompileOptions(precision=precision)
    if compile_options.precision is not precision:
        raise CodegenError("compile_options.precision disagrees with precision argument")
    loadable = compile_network(net, config, compile_options, verify=verify)

    platform = VirtualPlatform(config, fidelity=fidelity, trace=True)
    runtime = NvdlaRuntime(platform)
    runtime.deploy(loadable)
    if input_image is None:
        rng = np.random.default_rng(seed)
        input_image = rng.uniform(-1.0, 1.0, size=net.input_shape).astype(np.float32)
    runtime.set_input(input_image)
    vp_result = runtime.execute()
    trace = platform.trace
    if trace is None:
        raise TraceError("the virtual platform kept no trace log")

    commands = trace_to_config(trace)
    assembly = generate_assembly(
        commands,
        options=codegen_options,
        header=(
            f"bare-metal NVDLA driver for {net.name} on {config.name} "
            f"({precision.value}); {len(commands)} register commands"
        ),
    )
    program = assemble(assembly, base=0)
    if len(program.words) < estimate_program_words(commands) // 8:
        raise CodegenError("generated program is implausibly small")  # defensive

    preload = _build_preload_images(trace, loadable, fidelity)
    images = DeploymentImages(
        program_mem=program.to_mem_file(),
        program=program,
        preload=preload,
    )
    return BaremetalBundle(
        network=net.name,
        config=config.name,
        precision=precision,
        loadable=loadable,
        trace=trace,
        commands=commands,
        assembly=assembly,
        program=program,
        images=images,
        vp_result=vp_result,
        input_image=input_image,
        fidelity=fidelity,
        notes={"tiling": loadable.tiling_summary},
    )


def execute_bundle(
    bundle: BaremetalBundle,
    execution_mode: str = "cycle_accurate",
    input_image: np.ndarray | None = None,
    frequency_hz: float = 100e6,
    memory_bus_width_bits: int = 32,
):
    """Run a bundle on the selected execution tier.

    The one-stop dispatch the harness and CLI use: builds a throwaway
    cycle-accurate :class:`~repro.core.soc.Soc` or a
    :class:`~repro.core.fastpath.FastPathExecutor` for the bundle's
    hardware point and executes one inference.  The SoC computes the
    data plane exactly when the run has an input
    (:meth:`BaremetalBundle.has_input`), so both tiers return an output
    for the same runs.  Long-running callers (the serving layer) keep
    their own reusable workers instead.
    """
    # Local imports: repro.core.soc imports this module for the bundle
    # type, so the dispatch must not import repro.core at module level.
    if execution_mode == "cycle_accurate":
        from repro.core.soc import Soc

        soc = Soc(
            get_config(bundle.config),
            frequency_hz=frequency_hz,
            fidelity="functional" if bundle.has_input(input_image) else "timing",
            memory_bus_width_bits=memory_bus_width_bits,
        )
        soc.load_bundle(bundle)
        if input_image is not None:
            from repro.nvdla.fastpath import pack_input

            address, packed = pack_input(
                bundle.loadable, get_config(bundle.config), input_image
            )
            soc.preload_dram(address, packed)
        return soc.run_inference(bundle)
    if execution_mode == "fast":
        from repro.core.fastpath import FastPathExecutor

        executor = FastPathExecutor(
            get_config(bundle.config),
            frequency_hz=frequency_hz,
            memory_bus_width_bits=memory_bus_width_bits,
        )
        return executor.run(bundle, input_image=input_image)
    raise CodegenError(f"unknown execution mode {execution_mode!r}")


def options_fingerprint(options: object | None) -> str:
    """Stable short digest of a (frozen) options dataclass.

    Field values are serialised by name in declaration order, so two
    option objects that would drive the flow identically fingerprint
    identically, and ``None`` (meaning "all defaults") fingerprints the
    same as an explicitly default-constructed object of either options
    type used by :func:`generate_baremetal`.
    """
    if options is None:
        return "defaults"
    try:
        if options == type(options)():
            return "defaults"
    except TypeError:
        pass  # options types with required fields have no bare default
    parts: list[str] = [type(options).__name__]
    for f in fields(options):
        value = getattr(options, f.name)
        if isinstance(value, CalibrationTable):
            value = hashlib.sha256(value.to_text().encode()).hexdigest()[:16]
        parts.append(f"{f.name}={value!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def bundle_cache_key(
    network: str,
    config: HardwareConfig | str,
    precision: Precision,
    fidelity: str = "functional",
    compile_options: CompileOptions | None = None,
    codegen_options: CodegenOptions | None = None,
    seed: int = 2024,
) -> tuple:
    """The memoisation key of one unique deployment.

    Everything that changes the generated artefacts is part of the key;
    notably the *input image* is NOT — the generated program is
    input-independent (only ``input.bin`` changes), which is what lets
    the serving layer replay one bundle for many requests.  ``seed``
    covers the calibration input baked into the trace.
    """
    # None and a default-constructed options object generate identical
    # artefacts, so collapse both onto one fingerprint.
    if compile_options is not None and compile_options == CompileOptions(
        precision=compile_options.precision
    ):
        compile_options = None
    if codegen_options == CodegenOptions():
        codegen_options = None
    compile_fp = options_fingerprint(compile_options)
    if compile_options is None:
        compile_fp = f"defaults:{precision.value}"
    return (
        network,
        config.name if isinstance(config, HardwareConfig) else config,
        precision.value,
        fidelity,
        compile_fp,
        options_fingerprint(codegen_options),
        seed,
    )


def _build_preload_images(
    trace: TraceLog, loadable: Loadable, fidelity: str
) -> list[BinImage]:
    """Weight/input ``.bin`` files, via trace extraction when possible."""
    memory_map = loadable.memory_map
    regions = {
        "weights": (memory_map.weights.address, memory_map.weights.size),
        "input": (memory_map.input.address, memory_map.input.size),
    }
    if fidelity == "functional" and trace.dbb:
        segments = extract_initial_memory(trace)
        by_region = split_by_regions(segments, regions)
        images: list[BinImage] = []
        if by_region["weights"]:
            images.append(segments_to_bin("weights.bin", by_region["weights"]))
        if by_region["input"]:
            images.append(segments_to_bin("input.bin", by_region["input"]))
        return images
    # Timing-only runs have no DBB payloads; ship the compiler's blobs.
    return [
        BinImage("weights.bin", memory_map.weights.address, loadable.weight_blob),
    ]
