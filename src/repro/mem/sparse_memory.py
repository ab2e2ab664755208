"""Paged sparse byte store.

Backs every memory in the system.  Pages are allocated lazily so a
512 MB DRAM costs nothing until written, which matters when streaming
the 100 MB-class weight files of ResNet-50/AlexNet through the flow.
A memory made with a ``base`` is a copy-on-write overlay of it: pages
it never wrote read through to the base, so many private images can
share one large preloaded one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MemoryError_

_PAGE_BITS = 16
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1


class SparseMemory:
    """A byte-addressable sparse memory of a fixed size.

    Reads from never-written locations return ``fill`` (default 0),
    like zero-initialised simulation memory.  With a ``base`` memory
    (itself without one), never-written pages read as the base's, and
    the first write to a page copies the base's page into this memory;
    the base is never written through the overlay.
    """

    def __init__(self, size: int, fill: int = 0, base: "SparseMemory | None" = None) -> None:
        if size <= 0:
            raise MemoryError_("memory size must be positive")
        if not 0 <= fill <= 0xFF:
            raise MemoryError_("fill byte out of range")
        if base is not None and (base.size, base.fill) != (size, fill):
            raise MemoryError_("an overlay needs its base's size and fill")
        self.size = size
        self.fill = fill
        self._pages: dict[int, bytearray] = {}
        # Pages this memory has not written itself: the base's (shared).
        self._shared: dict[int, bytearray] = base._pages if base is not None else {}
        self.reads = 0
        self.writes = 0

    def _check_range(self, address: int, nbytes: int) -> None:
        if address < 0 or nbytes < 0 or address + nbytes > self.size:
            raise MemoryError_(
                f"access [0x{address:x}, 0x{address + nbytes:x}) outside memory of size 0x{self.size:x}"
            )

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            shared = self._shared.get(index)
            page = bytearray(shared) if shared is not None else bytearray([self.fill]) * _PAGE_SIZE
            self._pages[index] = page
        return page

    def read(self, address: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at ``address``."""
        self._check_range(address, nbytes)
        self.reads += 1
        out = bytearray(nbytes)
        offset = 0
        while offset < nbytes:
            addr = address + offset
            page_index = addr >> _PAGE_BITS
            in_page = addr & _PAGE_MASK
            chunk = min(nbytes - offset, _PAGE_SIZE - in_page)
            page = self._pages.get(page_index)
            if page is None:
                page = self._shared.get(page_index)
            if page is None:
                if self.fill:
                    out[offset : offset + chunk] = bytes([self.fill]) * chunk
            else:
                out[offset : offset + chunk] = page[in_page : in_page + chunk]
            offset += chunk
        return bytes(out)

    def write(self, address: int, data: bytes | bytearray | memoryview) -> None:
        """Write ``data`` starting at ``address``."""
        nbytes = len(data)
        self._check_range(address, nbytes)
        self.writes += 1
        view = memoryview(data)
        offset = 0
        while offset < nbytes:
            addr = address + offset
            page_index = addr >> _PAGE_BITS
            in_page = addr & _PAGE_MASK
            chunk = min(nbytes - offset, _PAGE_SIZE - in_page)
            self._page(page_index)[in_page : in_page + chunk] = view[offset : offset + chunk]
            offset += chunk

    def read_u8(self, address: int) -> int:
        return self.read(address, 1)[0]

    def read_u16(self, address: int) -> int:
        return int.from_bytes(self.read(address, 2), "little")

    def read_u32(self, address: int) -> int:
        return int.from_bytes(self.read(address, 4), "little")

    def read_u64(self, address: int) -> int:
        return int.from_bytes(self.read(address, 8), "little")

    def write_u8(self, address: int, value: int) -> None:
        self.write(address, (value & 0xFF).to_bytes(1, "little"))

    def write_u16(self, address: int, value: int) -> None:
        self.write(address, (value & 0xFFFF).to_bytes(2, "little"))

    def write_u32(self, address: int, value: int) -> None:
        self.write(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def write_u64(self, address: int, value: int) -> None:
        self.write(address, (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    def read_array(self, address: int, count: int, dtype: np.dtype | str) -> np.ndarray:
        """Read ``count`` elements of ``dtype`` as a numpy array."""
        dt = np.dtype(dtype)
        raw = self.read(address, count * dt.itemsize)
        return np.frombuffer(raw, dtype=dt).copy()

    def write_array(self, address: int, array: np.ndarray) -> None:
        """Write a numpy array's raw little-endian bytes."""
        contiguous = np.ascontiguousarray(array)
        self.write(address, contiguous.tobytes())

    @property
    def resident_bytes(self) -> int:
        """Bytes of host memory actually allocated for pages."""
        return len(self._pages) * _PAGE_SIZE

    def touched_ranges(self) -> list[tuple[int, int]]:
        """Coalesced [start, end) page ranges that have been written."""
        if not self._pages:
            return []
        indices = sorted(self._pages)
        ranges: list[tuple[int, int]] = []
        start = prev = indices[0]
        for index in indices[1:]:
            if index == prev + 1:
                prev = index
                continue
            ranges.append((start << _PAGE_BITS, (prev + 1) << _PAGE_BITS))
            start = prev = index
        ranges.append((start << _PAGE_BITS, (prev + 1) << _PAGE_BITS))
        return ranges

    def clear(self) -> None:
        """Drop all pages (memory reads as ``fill``, or its base, again)."""
        self._pages.clear()
