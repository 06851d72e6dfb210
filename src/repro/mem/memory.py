"""Sparse byte-addressable device memory.

Device memory is modeled as a dictionary of fixed-size numpy pages
allocated on first touch, so a 4 GB address space costs nothing until
used.  All simulator drivers, the texture units and the command-processor
driver share one instance per device, exactly as the FPGA board's local
memory is shared between the AFU and the cores.

Each page keeps two views of the same backing store: a ``uint8`` byte view
(the byte-level API used by DMA and :class:`DeviceBuffer`) and a
little-endian ``uint32`` word view used by the vectorized execution
engine's gather/scatter paths, which service a whole warp's coalesced
loads and stores with a handful of numpy operations.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable

import numpy as np

from repro.common.bitutils import to_uint32
from repro.common.state import VALUE, Codec, Stateful

PAGE_SIZE = 4096
PAGE_MASK = PAGE_SIZE - 1
_WORD_DTYPE = np.dtype("<u4")
_HALF_DTYPE = np.dtype("<u2")


class MemoryAccessError(Exception):
    """Raised on malformed accesses (misaligned words, negative sizes …)."""


def _restore_pages(
    memory: MainMemory, data: dict[int, bytes], pages: dict, refs: object
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    pages.clear()
    for index, raw in data.items():
        page = np.frombuffer(raw, dtype=np.uint8).copy()
        pages[index] = (page, page.view(_WORD_DTYPE))
    return pages


#: The memory image, sparse: non-zero pages only.  Page payloads are
#: immutable ``bytes`` copies, so a snapshot held across further execution
#: never aliases later stores.
_PAGES = Codec(lambda memory, pages, refs: memory.page_snapshot(), _restore_pages)


class MainMemory(Stateful):
    """Byte-addressable sparse memory with word/halfword/byte accessors."""

    STATE = {"_pages": _PAGES, "reads": VALUE, "writes": VALUE}

    def __init__(self):
        #: page index -> (uint8 byte view, uint32 word view) of one backing array
        self._pages: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.reads = 0
        self.writes = 0

    # -- page helpers ---------------------------------------------------------------

    def _page(self, address: int) -> tuple[np.ndarray, np.ndarray]:
        page_index = address >> 12
        page = self._pages.get(page_index)
        if page is None:
            data = np.zeros(PAGE_SIZE, dtype=np.uint8)
            page = (data, data.view(_WORD_DTYPE))
            self._pages[page_index] = page
        return page

    @property
    def allocated_bytes(self) -> int:
        """Total bytes of backing storage currently allocated."""
        return len(self._pages) * PAGE_SIZE

    def page_snapshot(self) -> dict[int, bytes]:
        """Canonical content snapshot: non-zero pages keyed by page index.

        All-zero pages are omitted so two memories are equal iff their
        snapshots are equal, regardless of which pages were merely touched.
        """
        snapshot: dict[int, bytes] = {}
        for index, (data, _) in self._pages.items():
            if data.any():
                snapshot[index] = data.tobytes()
        return snapshot

    # -- raw byte access --------------------------------------------------------------

    def read_bytes(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``address``."""
        if size < 0:
            raise MemoryAccessError(f"negative read size: {size}")
        address = to_uint32(address)
        result = bytearray()
        remaining = size
        while remaining > 0:
            data, _ = self._page(address)
            offset = address & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            result += data[offset : offset + chunk].tobytes()
            address = to_uint32(address + chunk)
            remaining -= chunk
        self.reads += 1
        return bytes(result)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        address = to_uint32(address)
        view = memoryview(data)
        while view:
            page, _ = self._page(address)
            offset = address & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - offset)
            page[offset : offset + chunk] = np.frombuffer(view[:chunk], dtype=np.uint8)
            address = to_uint32(address + chunk)
            view = view[chunk:]
        self.writes += 1

    # -- typed accessors ---------------------------------------------------------------

    def read_word(self, address: int) -> int:
        """Read a little-endian 32-bit word (must be 4-byte aligned)."""
        word = self.fetch_word(address)
        self.reads += 1
        return word

    def fetch_word(self, address: int) -> int:
        """:meth:`read_word` for instruction decode, which ``reads`` does not
        count: decodes are cached, and a restored device decodes again."""
        if address & 3:
            raise MemoryAccessError(f"misaligned word read at {address:#x}")
        address = to_uint32(address)
        _, words = self._page(address)
        return int(words[(address & PAGE_MASK) >> 2])

    def write_word(self, address: int, value: int) -> None:
        """Write a little-endian 32-bit word (must be 4-byte aligned)."""
        if address & 3:
            raise MemoryAccessError(f"misaligned word write at {address:#x}")
        address = to_uint32(address)
        _, words = self._page(address)
        words[(address & PAGE_MASK) >> 2] = to_uint32(value)
        self.writes += 1

    def read_half(self, address: int) -> int:
        if address & 1:
            raise MemoryAccessError(f"misaligned halfword read at {address:#x}")
        address = to_uint32(address)
        data, _ = self._page(address)
        offset = address & PAGE_MASK
        self.reads += 1
        return int(data[offset]) | (int(data[offset + 1]) << 8)

    def write_half(self, address: int, value: int) -> None:
        if address & 1:
            raise MemoryAccessError(f"misaligned halfword write at {address:#x}")
        address = to_uint32(address)
        data, _ = self._page(address)
        offset = address & PAGE_MASK
        data[offset] = value & 0xFF
        data[offset + 1] = (value >> 8) & 0xFF
        self.writes += 1

    def read_byte(self, address: int) -> int:
        address = to_uint32(address)
        data, _ = self._page(address)
        self.reads += 1
        return int(data[address & PAGE_MASK])

    def write_byte(self, address: int, value: int) -> None:
        address = to_uint32(address)
        data, _ = self._page(address)
        data[address & PAGE_MASK] = value & 0xFF
        self.writes += 1

    # -- vector gather/scatter (whole-warp coalesced accesses) --------------------------

    def gather_words(self, addresses: np.ndarray) -> np.ndarray:
        """Read one 32-bit word per lane address (4-byte aligned each).

        The single-page case — a warp's coalesced load — is serviced with
        one fancy-indexed numpy read; page-straddling gathers group the
        lanes by page and do one fancy-indexed read per touched page.
        Alignment and the same-page test share two reductions: the OR of
        all addresses carries any misaligned low bit, and OR == AND over
        the page field iff every lane hits one page.
        """
        ored = int(np.bitwise_or.reduce(addresses))
        if ored & 3:
            for address in addresses:
                if int(address) & 3:
                    raise MemoryAccessError(f"misaligned word read at {int(address):#x}")
        anded = int(np.bitwise_and.reduce(addresses))
        if (ored >> 12) == (anded >> 12):
            _, words = self._page(ored)
            self.reads += len(addresses)
            return words[np.bitwise_and(addresses, PAGE_MASK) >> np.uint32(2)]
        # Page-straddling gather: group the lanes by page and service each
        # page with one fancy-indexed read (large textures span many pages).
        out = np.empty(len(addresses), dtype=np.uint32)
        pages = addresses >> np.uint32(12)
        for page_index in np.unique(pages):
            selected = pages == page_index
            _, words = self._page(int(page_index) << 12)
            out[selected] = words[
                np.bitwise_and(addresses[selected], PAGE_MASK) >> np.uint32(2)
            ]
        self.reads += len(addresses)
        return out

    def scatter_words(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Write one 32-bit word per lane address (4-byte aligned each).

        Lane order is preserved for duplicate addresses (the highest lane
        wins, matching sequential per-thread emulation; numpy fancy
        assignment stores values in index order).
        """
        ored = int(np.bitwise_or.reduce(addresses))
        if ored & 3:
            for address in addresses:
                if int(address) & 3:
                    raise MemoryAccessError(f"misaligned word write at {int(address):#x}")
        anded = int(np.bitwise_and.reduce(addresses))
        if (ored >> 12) == (anded >> 12):
            _, words = self._page(ored)
            words[np.bitwise_and(addresses, PAGE_MASK) >> np.uint32(2)] = values
            self.writes += len(addresses)
            return
        for lane, address in enumerate(addresses):
            self.write_word(int(address), int(values[lane]))

    def gather_bytes(self, addresses: np.ndarray) -> np.ndarray:
        """Read one byte per lane address."""
        ored = int(np.bitwise_or.reduce(addresses))
        anded = int(np.bitwise_and.reduce(addresses))
        if (ored >> 12) == (anded >> 12):
            data, _ = self._page(ored)
            self.reads += len(addresses)
            return data[np.bitwise_and(addresses, PAGE_MASK)].astype(np.uint32)
        out = np.empty(len(addresses), dtype=np.uint32)
        pages = addresses >> np.uint32(12)
        for page_index in np.unique(pages):
            selected = pages == page_index
            data, _ = self._page(int(page_index) << 12)
            out[selected] = data[np.bitwise_and(addresses[selected], PAGE_MASK)]
        self.reads += len(addresses)
        return out

    def scatter_bytes(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Write one byte per lane address (highest lane wins on duplicates)."""
        ored = int(np.bitwise_or.reduce(addresses))
        anded = int(np.bitwise_and.reduce(addresses))
        if (ored >> 12) == (anded >> 12):
            data, _ = self._page(ored)
            data[np.bitwise_and(addresses, PAGE_MASK)] = np.bitwise_and(
                values, np.uint32(0xFF)
            ).astype(np.uint8)
            self.writes += len(addresses)
            return
        for lane, address in enumerate(addresses):
            self.write_byte(int(address), int(values[lane]))

    def gather_halves(self, addresses: np.ndarray) -> np.ndarray:
        """Read one 16-bit halfword per lane address (2-byte aligned each)."""
        if np.bitwise_and(addresses, 1).any():
            bad = addresses[np.bitwise_and(addresses, 1) != 0][0]
            raise MemoryAccessError(f"misaligned halfword read at {int(bad):#x}")
        out = np.empty(len(addresses), dtype=np.uint32)
        pages = addresses >> np.uint32(12)
        for page_index in np.unique(pages):
            selected = pages == page_index
            data, _ = self._page(int(page_index) << 12)
            halves = data.view(_HALF_DTYPE)
            out[selected] = halves[
                np.bitwise_and(addresses[selected], PAGE_MASK) >> np.uint32(1)
            ]
        self.reads += len(addresses)
        return out

    def scatter_halves(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Write one 16-bit halfword per lane address (2-byte aligned each)."""
        if np.bitwise_and(addresses, 1).any():
            bad = addresses[np.bitwise_and(addresses, 1) != 0][0]
            raise MemoryAccessError(f"misaligned halfword write at {int(bad):#x}")
        for lane, address in enumerate(addresses):
            self.write_half(int(address), int(values[lane]))

    def word_cursor(self) -> WordCursor:
        """A per-call-site cursor that memoizes the last page touched."""
        return WordCursor(self)

    # -- bulk helpers -------------------------------------------------------------------

    def load_words(self, address: int, words: Iterable[int]) -> None:
        """Write a sequence of 32-bit words starting at ``address``."""
        words = list(words)
        self.write_bytes(address, struct.pack(f"<{len(words)}I", *(to_uint32(w) for w in words)))

    def read_words(self, address: int, count: int) -> list:
        """Read ``count`` consecutive 32-bit words."""
        data = self.read_bytes(address, count * 4)
        return list(struct.unpack(f"<{count}I", data))

    def fill(self, address: int, size: int, value: int = 0) -> None:
        """Fill ``size`` bytes with a byte value."""
        self.write_bytes(address, bytes([value & 0xFF]) * size)


class WordCursor:
    """Page-memoizing word gather/scatter front end for one access site.

    A warp's loads/stores from one program point overwhelmingly hit the
    same page run after run; the cursor caches that page's word view so the
    steady-state cost is a single numpy reduction (which validates both
    page residency and 4-byte alignment: relative offsets OR-ed together
    stay below the page size with clear low bits iff every lane does).
    """

    __slots__ = ("memory", "page_start", "words")

    def __init__(self, memory: MainMemory):
        self.memory = memory
        self.page_start = np.uint32(0)
        self.words = None

    def _re_anchor(self, addresses: np.ndarray) -> None:
        base = int(addresses[0]) & ~PAGE_MASK
        self.page_start = np.uint32(base)
        self.words = self.memory._page(base)[1]

    def gather(self, addresses: np.ndarray) -> np.ndarray:
        relative = addresses - self.page_start
        if self.words is not None:
            packed = int(np.bitwise_or.reduce(relative))
            if packed < PAGE_SIZE and not (packed & 3):
                # reads/writes count per-lane accesses on every path.
                self.memory.reads += relative.shape[0]
                return self.words.take(relative >> np.uint32(2))
        result = self.memory.gather_words(addresses)
        self._re_anchor(addresses)
        return result

    def scatter(self, addresses: np.ndarray, values: np.ndarray) -> None:
        relative = addresses - self.page_start
        if self.words is not None:
            packed = int(np.bitwise_or.reduce(relative))
            if packed < PAGE_SIZE and not (packed & 3):
                self.words.put(relative >> np.uint32(2), values)
                self.memory.writes += relative.shape[0]
                return
        self.memory.scatter_words(addresses, values)
        self._re_anchor(addresses)
