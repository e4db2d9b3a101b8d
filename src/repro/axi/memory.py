"""Sparse byte-addressable memory model backing AXI subordinates.

Pages are allocated lazily so a 64-bit address space costs nothing until
written.  Reads of unwritten bytes return a configurable fill byte,
making "read garbage" bugs deterministic in tests.
"""

from __future__ import annotations

from typing import Dict


class SparseMemory:
    """Lazily-paged byte memory.

    Parameters
    ----------
    page_bits:
        log2 of the page size in bytes.
    fill:
        Byte value returned for never-written locations.
    """

    def __init__(self, page_bits: int = 12, fill: int = 0) -> None:
        if not 0 <= fill <= 0xFF:
            raise ValueError("fill must be a byte value")
        self._page_bits = page_bits
        self._page_size = 1 << page_bits
        self._fill = fill
        self._pages: Dict[int, bytearray] = {}
        self._watchers: tuple = ()

    def watch(self, callback) -> None:
        """Invoke *callback* after every store.

        Subordinates register their scheduler invalidation here so a
        testbench writing memory mid-simulation (while a read burst is
        in flight) re-evaluates the R datapath — the demand-driven
        contract for state mutated behind the component's back.
        """
        if callback not in self._watchers:
            self._watchers = (*self._watchers, callback)

    def snapshot(self) -> Dict[int, bytes]:
        """The current contents, frozen, for a later :meth:`restore`."""
        return {index: bytes(page) for index, page in self._pages.items()}

    def restore(self, snapshot: Dict[int, bytes]) -> None:
        """Return to the contents a :meth:`snapshot` captured."""
        self._pages = {index: bytearray(page) for index, page in snapshot.items()}
        self._notify()

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)

    def _page_for(self, addr: int) -> bytearray:
        page_index = addr >> self._page_bits
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray([self._fill]) * self._page_size
            self._pages[page_index] = page
        return page

    def _notify(self) -> None:
        for watcher in self._watchers:
            watcher()

    def _store(self, addr: int, data) -> None:
        """Copy *data* to *addr*, one page slice at a time, unwatched."""
        mask = self._page_size - 1
        offset = 0
        length = len(data)
        while offset < length:
            at = addr + offset
            start = at & mask
            chunk = min(length - offset, self._page_size - start)
            self._page_for(at)[start : start + chunk] = data[offset : offset + chunk]
            offset += chunk

    def read_byte(self, addr: int) -> int:
        page = self._pages.get(addr >> self._page_bits)
        if page is None:
            return self._fill
        return page[addr & (self._page_size - 1)]

    def write_byte(self, addr: int, value: int) -> None:
        self._page_for(addr)[addr & (self._page_size - 1)] = value & 0xFF
        self._notify()

    def read(self, addr: int, length: int) -> bytes:
        """Read *length* bytes starting at *addr*, one slice per page."""
        mask = self._page_size - 1
        start = addr & mask
        if start + length <= self._page_size:
            page = self._pages.get(addr >> self._page_bits)
            if page is None:
                return bytes((self._fill,)) * length
            return bytes(page[start : start + length])
        out = bytearray()
        offset = 0
        while offset < length:
            at = addr + offset
            start = at & mask
            chunk = min(length - offset, self._page_size - start)
            page = self._pages.get(at >> self._page_bits)
            if page is None:
                out += bytes((self._fill,)) * chunk
            else:
                out += page[start : start + chunk]
            offset += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* starting at *addr*; watchers run once per store."""
        if data:
            self._store(addr, data)
            self._notify()

    def read_word(self, addr: int, width: int) -> int:
        """Read a little-endian integer of *width* bytes."""
        return int.from_bytes(self.read(addr, width), "little")

    def write_word(self, addr: int, value: int, width: int) -> None:
        """Write a little-endian integer of *width* bytes."""
        self.write(addr, (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little"))

    def write_masked(self, addr: int, value: int, strb: int, width: int) -> None:
        """Apply a write-strobe-masked store, as the W channel requires.

        Each run of enabled byte lanes is one slice copy; lanes whose
        strobe bit is clear keep their bytes, and the watchers run once
        per store that wrote anything.
        """
        full = (1 << width) - 1
        strb &= full
        if not strb:
            return
        data = (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        if strb == full:
            self._store(addr, data)
        else:
            lane = 0
            while lane < width:
                if strb >> lane & 1:
                    end = lane + 1
                    while end < width and strb >> end & 1:
                        end += 1
                    self._store(addr + lane, data[lane:end])
                    lane = end
                else:
                    lane += 1
        self._notify()
