"""Weight extraction from DBB traces (paper §IV-B step 3).

Reconstructs the initial DRAM contents NVDLA expects — the "weight
file" plus the input image — from the data-backbone log:

- a read from an address that was never written earlier in the trace
  reveals an *initial* byte (weight or input),
- a write marks the address as NVDLA-produced (intermediate
  activations); later reads of it are ignored,
- duplicate reads keep the first occurrence, per the paper: "duplicate
  address entries in the weight file are deleted by retaining the
  first occurrence, as they are the original weights."

The result is a set of contiguous memory segments; ``.bin`` images for
the Zynq preloader fall out directly, and
:func:`split_by_regions` separates the weight file from the image
file using the loadable's memory map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.vp.trace_log import TraceLog


@dataclass(frozen=True)
class MemorySegment:
    """A contiguous block of reconstructed initial memory."""

    address: int
    data: bytes

    @property
    def end(self) -> int:
        return self.address + len(self.data)

    def to_bin(self) -> bytes:
        return self.data


def extract_initial_memory(trace: TraceLog) -> list[MemorySegment]:
    """Reconstruct initial DRAM state from the DBB transaction order.

    An address holds an initial byte iff its earliest DBB event is a
    read; that read's byte is the value.  Computed over the whole trace
    at once: one row per transferred byte, the earliest row of each
    address, then contiguous runs of the initial addresses become
    segments.
    """
    starts, lengths, writes, payload = trace.dbb_arrays()
    # A transaction over exactly the range of an earlier one has an
    # earlier event on every byte, so it cannot contribute; dropping
    # those (and empty ones) first shrinks the per-byte work below.
    by_range = np.lexsort((lengths, starts))  # stable: ties stay in trace order
    repeats = np.zeros(starts.size, dtype=bool)
    repeats[by_range[1:]] = (np.diff(starts[by_range]) == 0) & (
        np.diff(lengths[by_range]) == 0
    )
    kept = ~repeats & (lengths > 0)
    if not kept.any():
        return []
    payload = payload[np.repeat(kept, lengths)]
    starts, lengths, writes = starts[kept], lengths[kept], writes[kept]
    total = payload.size

    # Row i (log order) of transaction t is byte starts[t] + i - (bytes
    # logged before t): one arange supplies every in-transaction offset.
    rows = np.arange(total)
    logged_before = np.cumsum(lengths) - lengths
    keys = np.repeat(starts - logged_before, lengths)
    keys += rows

    # Sort (address, row) pairs packed into one int64 key; the smallest
    # key of each address is its earliest event.  The keys arrive as
    # ascending runs (one per transaction), which the stable sort's
    # run merging exploits.
    low = int(starts.min())
    shift = (total - 1).bit_length()
    if (int((starts + lengths).max()) - 1 - low).bit_length() + shift > 63:
        raise TraceError("DBB trace spans too many addresses and bytes to extract")
    keys -= low
    keys <<= shift
    keys |= rows
    keys.sort(kind="stable")
    offsets = keys >> shift
    earliest = np.ones(total, dtype=bool)
    np.not_equal(offsets[1:], offsets[:-1], out=earliest[1:])
    first_rows = keys[earliest] & ((1 << shift) - 1)
    initial = ~np.repeat(writes, lengths)[first_rows]
    addresses = offsets[earliest][initial] + low
    data = payload[first_rows[initial]]
    if not addresses.size:
        return []
    bounds = [0, *(np.flatnonzero(np.diff(addresses) != 1) + 1).tolist(), addresses.size]
    return [
        MemorySegment(int(addresses[lo]), data[lo:hi].tobytes())
        for lo, hi in zip(bounds, bounds[1:])
    ]


def split_by_regions(
    segments: list[MemorySegment],
    regions: dict[str, tuple[int, int]],
) -> dict[str, list[MemorySegment]]:
    """Assign segments to named ``(base, size)`` regions.

    Segments crossing a region boundary are split; bytes outside every
    region land under ``"other"``.
    """
    ordered = sorted(regions.items(), key=lambda item: item[1][0])
    result: dict[str, list[MemorySegment]] = {name: [] for name, _ in ordered}
    result["other"] = []

    for segment in segments:
        cursor = segment.address
        end = segment.end
        while cursor < end:
            owner = "other"
            slice_end = end
            for name, (base, size) in ordered:
                if base <= cursor < base + size:
                    owner = name
                    slice_end = min(end, base + size)
                    break
                if cursor < base < end:
                    slice_end = min(slice_end, base)
            data = segment.data[cursor - segment.address : slice_end - segment.address]
            if data:
                result[owner].append(MemorySegment(cursor, data))
            if slice_end <= cursor:
                raise TraceError("region split made no progress")  # pragma: no cover
            cursor = slice_end
    return result


def total_bytes(segments: list[MemorySegment]) -> int:
    return sum(len(s.data) for s in segments)
