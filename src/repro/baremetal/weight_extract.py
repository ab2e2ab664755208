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


def extract_initial_memory(trace: TraceLog) -> list[MemorySegment]:
    """Reconstruct initial DRAM state from the DBB transaction order.

    An address holds an initial byte iff its earliest DBB event is a
    read; that read's byte is the value.  Work is per line wherever
    the answer is known per line:

    - a line over exactly the range of an earlier line has an earlier
      event on every byte, so it cannot contribute and is dropped;
    - a kept line that overlaps no other kept line is the only event
      on its bytes: a read contributes all of them, a write none;
    - only lines that overlap another kept line go through the
      per-byte pass (:func:`_first_reads`).  Overlap is symmetric, so
      those lines are the only events on their bytes too.

    The contributed byte ranges are disjoint; sorted by address,
    abutting ones join into segments.
    """
    starts, lengths, writes, payload = trace.dbb_arrays()
    sources = np.cumsum(lengths) - lengths  # each line's payload offset
    by_range = np.lexsort((lengths, starts))  # stable: ties stay in trace order
    repeats = np.zeros(starts.size, dtype=bool)
    repeats[by_range[1:]] = (np.diff(starts[by_range]) == 0) & (
        np.diff(lengths[by_range]) == 0
    )
    kept = by_range[~repeats[by_range] & (lengths[by_range] > 0)]  # by address
    if not kept.size:
        return []
    starts, lengths, writes, sources = (
        starts[kept], lengths[kept], writes[kept], sources[kept]
    )
    ends = starts + lengths
    low = int(starts[0])
    # The per-byte pass packs (address - low, row) into one int64 key;
    # bounding it over every kept line covers whichever lines it gets.
    if (int(ends.max()) - 1 - low).bit_length() + (int(lengths.sum()) - 1).bit_length() > 63:
        raise TraceError("DBB trace spans too many addresses and bytes to extract")

    # A line overlaps an earlier-starting one iff it starts before the
    # running maximum of their ends, and a later-starting one iff it
    # ends after the next line's start.
    overlaps = np.zeros(kept.size, dtype=bool)
    overlaps[1:] = starts[1:] < np.maximum.accumulate(ends)[:-1]
    overlaps[:-1] |= ends[:-1] > starts[1:]

    lone = ~overlaps & ~writes
    chunks = [(starts[lone], sources[lone], lengths[lone])]
    if overlaps.any():
        flagged = np.flatnonzero(overlaps)
        order = flagged[np.argsort(kept[flagged])]  # back to log order
        addresses, byte_sources = _first_reads(
            starts[order], lengths[order], writes[order], sources[order], low
        )
        if addresses.size:
            # Consecutive addresses read from consecutive payload
            # bytes form one chunk.
            first = np.flatnonzero(np.concatenate((
                [True], (np.diff(addresses) != 1) | (np.diff(byte_sources) != 1)
            )))
            chunks.append((
                addresses[first],
                byte_sources[first],
                np.diff(np.append(first, addresses.size)),
            ))
    addresses, sources, lengths = (np.concatenate(column) for column in zip(*chunks))
    if not addresses.size:
        return []

    # The chunks are disjoint.  By address, one joins the segment of the
    # one before when it abuts it, and the same copy when its payload
    # bytes continue that one's too.
    order = np.argsort(addresses, kind="stable")
    addresses, sources, lengths = addresses[order], sources[order], lengths[order]
    abuts = addresses[1:] == addresses[:-1] + lengths[:-1]
    continues = abuts & (sources[1:] == sources[:-1] + lengths[:-1])
    copy_first = np.flatnonzero(np.concatenate(([True], ~continues)))
    copy_last = np.append(copy_first[1:], addresses.size) - 1
    copy_from = sources[copy_first].tolist()
    copy_to = (sources[copy_last] + lengths[copy_last]).tolist()
    segment_first = np.flatnonzero(np.concatenate(([True], ~abuts))[copy_first])
    bounds = [*segment_first.tolist(), copy_first.size]
    segment_addresses = addresses[copy_first[segment_first]].tolist()
    data = memoryview(payload)
    return [
        MemorySegment(
            address, b"".join(data[copy_from[i] : copy_to[i]] for i in range(lo, hi))
        )
        for address, lo, hi in zip(segment_addresses, bounds, bounds[1:])
    ]


def _first_reads(
    starts: np.ndarray,
    lengths: np.ndarray,
    writes: np.ndarray,
    sources: np.ndarray,
    low: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-byte pass over lines in log order: ascending addresses
    whose earliest event is a read, and each one's payload offset.

    One row per byte; the (address, row) pairs are sorted packed into
    one int64 key, and the smallest key of each address is its
    earliest event.  ``low`` is at most every start.
    """
    total = int(lengths.sum())
    # Row i (log order) of line t is byte starts[t] + i - (bytes before
    # t): one arange supplies every in-line offset.
    rows = np.arange(total)
    before = np.cumsum(lengths) - lengths
    keys = np.repeat(starts - before - low, lengths)
    keys += rows
    shift = (total - 1).bit_length()
    keys <<= shift
    keys |= rows
    # The keys arrive as ascending runs (one per line), which the
    # stable sort's run merging exploits.
    keys.sort(kind="stable")
    offsets = keys >> shift
    earliest = np.ones(total, dtype=bool)
    np.not_equal(offsets[1:], offsets[:-1], out=earliest[1:])
    first_rows = keys[earliest] & ((1 << shift) - 1)
    line = np.repeat(np.arange(lengths.size), lengths)[first_rows]
    initial = ~writes[line]
    first_rows, line = first_rows[initial], line[initial]
    return (
        offsets[earliest][initial] + low,
        sources[line] + first_rows - before[line],
    )


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
