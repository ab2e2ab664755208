"""DRAM address assignment with liveness-based buffer reuse.

Memory map inside the SoC's DRAM window (absolute bus addresses; the
decoder places DRAM at ``0x100000``)::

    base ──► weight blob (the preloaded "weight file")
             input tensor (the preloaded image)
             activation arena (buffers reused by liveness)

Activation blobs are freed after their last consuming op and recycled
best-fit, which keeps ResNet-50's arena tens of megabytes instead of
the sum of all 120+ intermediate tensors.  Concat branches and
depthwise channel blocks are views into their parent blob and never
allocate storage of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompilerError
from repro.compiler.ops import Schedule, TensorRef
from repro.nvdla.config import HardwareConfig, Precision


@dataclass(frozen=True)
class Region:
    name: str
    address: int
    size: int

    @property
    def end(self) -> int:
        return self.address + self.size


@dataclass
class MemoryMap:
    """The allocation result: named regions plus per-blob addresses."""

    base: int
    weights: Region
    input: Region
    activations: Region
    blob_addresses: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.activations.end - self.base

    def describe(self) -> str:
        lines = [f"memory map @ 0x{self.base:08x}:"]
        for region in (self.weights, self.input, self.activations):
            lines.append(
                f"  {region.name:<12} 0x{region.address:08x} .. 0x{region.end:08x} "
                f"({region.size / 1024:.1f} KiB)"
            )
        return "\n".join(lines)


def _align(value: int, align: int) -> int:
    return (value + align - 1) // align * align


class _Arena:
    """Bump allocator with a best-fit free list."""

    def __init__(self, base: int, align: int) -> None:
        self.base = base
        self.align = align
        self.top = base
        self._free: list[tuple[int, int]] = []  # (size, address)

    def allocate(self, size: int) -> int:
        size = _align(size, self.align)
        best = None
        for index, (free_size, address) in enumerate(self._free):
            if free_size >= size and (best is None or free_size < self._free[best][0]):
                best = index
        if best is not None:
            free_size, address = self._free.pop(best)
            if free_size > size:
                self._free.append((free_size - size, address + size))
            return address
        address = self.top
        self.top += size
        return address

    def release(self, address: int, size: int) -> None:
        self._free.append((_align(size, self.align), address))


def allocate_memory(
    schedule: Schedule,
    config: HardwareConfig,
    weight_blob_size: int,
    base: int,
    dram_size: int,
    align: int = 256,
) -> MemoryMap:
    """Assign addresses to every tensor reference in the schedule."""
    atom_by_precision = {p: config.atom_channels(p) for p in Precision}

    def blob_size(ref: TensorRef) -> int:
        return ref.blob_packed_bytes(atom_by_precision[ref.precision])

    # Gather all refs per blob and compute blob sizes + liveness.
    refs_by_blob: dict[str, list[TensorRef]] = {}
    first_def: dict[str, int] = {}
    last_use: dict[str, int] = {}
    if schedule.input_tensor is None or schedule.output_tensor is None:
        raise CompilerError("schedule has no network input or output tensor to allocate")

    def note(ref: TensorRef, index: int, is_def: bool) -> None:
        refs_by_blob.setdefault(ref.blob, []).append(ref)
        if is_def:
            first_def.setdefault(ref.blob, index)
        last_use[ref.blob] = max(last_use.get(ref.blob, index), index)

    note(schedule.input_tensor, -1, True)
    for index, op in enumerate(schedule.ops):
        for ref in op.inputs():
            note(ref, index, False)
        for ref in op.outputs():
            note(ref, index, True)
    # The network output must survive until read back by the host.
    last_use[schedule.output_tensor.blob] = len(schedule.ops) + 1

    sizes = {
        blob: max(blob_size(ref) for ref in refs)
        for blob, refs in refs_by_blob.items()
    }

    # The first 4 KiB of the DRAM window are reserved as the bare-metal
    # status page (result/error words written by the generated program).
    weight_region = Region("weights", _align(base + 0x1000, 4096), _align(weight_blob_size, 4096))
    input_blob = schedule.input_tensor.blob
    input_region = Region(
        "input", weight_region.end, _align(sizes[input_blob], align)
    )
    arena = _Arena(input_region.end, align)
    addresses: dict[str, int] = {input_blob: input_region.address}

    # Frees scheduled after the op that last uses each blob.
    frees_at: dict[int, list[str]] = {}
    for blob, last in last_use.items():
        if blob != input_blob:
            frees_at.setdefault(last, []).append(blob)

    for index, op in enumerate(schedule.ops):
        for ref in op.outputs():
            if ref.blob not in addresses:
                addresses[ref.blob] = arena.allocate(sizes[ref.blob])
        for blob in frees_at.get(index, []):
            if blob in addresses and blob != schedule.output_tensor.blob:
                arena.release(addresses[blob], sizes[blob])

    activation_region = Region(
        "activations", input_region.end, max(0, arena.top - input_region.end)
    )
    if activation_region.end > base + dram_size:
        raise CompilerError(
            f"allocation exceeds DRAM: needs {activation_region.end - base} bytes, "
            f"window is {dram_size}"
        )

    # Resolve every reference's absolute address.
    for blob, refs in refs_by_blob.items():
        blob_address = addresses.get(blob)
        if blob_address is None:
            raise CompilerError(f"blob {blob!r} never produced (dangling reference)")
        for ref in refs:
            atom = atom_by_precision[ref.precision]
            ref.address = blob_address + ref.view_offset_bytes(atom)

    return MemoryMap(
        base=base,
        weights=weight_region,
        input=input_region,
        activations=activation_region,
        blob_addresses=addresses,
    )
