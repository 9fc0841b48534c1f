"""Sparse byte-addressable memory for the simulators.

Backing store is a dict of 4 KiB pages, each a ``bytearray``.  This is the
*functional* memory shared by the functional executor, the cycle simulator
and the software-ILR emulator; the cache hierarchy and DRAM model only
track *timing* and always read their data through this object.
"""

from __future__ import annotations

import struct
from typing import Dict

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

MASK32 = 0xFFFFFFFF

#: The little-endian word codec of :meth:`SparseMemory.read_u32` /
#: :meth:`~SparseMemory.write_u32` and of their inlined source.
_WORD = struct.Struct("<I")

#: The codec under its generated-scope names (:func:`read_u32_src`,
#: :func:`write_u32_src`): process-wide constants, which the block tier
#: binds once as globals of its shape handlers.
WORD_SCOPE = {"u32": _WORD.unpack_from, "p32": _WORD.pack_into}


class MemoryFault(Exception):
    """Access to an unmapped address when strict mode is enabled."""

    def __init__(self, addr: int, why: str = "unmapped"):
        super().__init__("memory fault at 0x%08x (%s)" % (addr, why))
        self.addr = addr


class SparseMemory:
    """4 KiB-paged sparse memory.

    Pages are allocated zero-filled on first touch (``strict=False``, the
    default, which matches an OS that lazily maps zero pages) or faults
    (``strict=True``, used by tests that want to catch wild accesses).
    """

    __slots__ = ("_pages", "strict")

    def __init__(self, strict: bool = False):
        self._pages: Dict[int, bytearray] = {}
        self.strict = strict

    # -- page plumbing ---------------------------------------------------------

    def _page(self, addr: int) -> bytearray:
        idx = addr >> PAGE_SHIFT
        page = self._pages.get(idx)
        if page is None:
            if self.strict:
                raise MemoryFault(addr)
            page = bytearray(PAGE_SIZE)
            self._pages[idx] = page
        return page

    def mapped_pages(self) -> int:
        return len(self._pages)

    def is_mapped(self, addr: int) -> bool:
        return (addr >> PAGE_SHIFT) in self._pages

    # -- byte access ------------------------------------------------------------

    def read_u8(self, addr: int) -> int:
        return self._page(addr)[addr & PAGE_MASK]

    def write_u8(self, addr: int, value: int) -> None:
        self._page(addr)[addr & PAGE_MASK] = value & 0xFF

    # -- word access (little-endian) ----------------------------------------------

    def read_u32(self, addr: int) -> int:
        off = addr & PAGE_MASK
        if off <= PAGE_SIZE - 4:
            return _WORD.unpack_from(self._page(addr), off)[0]
        raw = bytes(self.read_u8(addr + i) for i in range(4))
        return _WORD.unpack(raw)[0]

    def write_u32(self, addr: int, value: int) -> None:
        off = addr & PAGE_MASK
        if off <= PAGE_SIZE - 4:
            _WORD.pack_into(self._page(addr), off, value & MASK32)
            return
        for i, byte in enumerate(_WORD.pack(value & MASK32)):
            self.write_u8(addr + i, byte)

    def inline_scope(self) -> dict:
        """Generated-scope bindings of :func:`read_u32_src` and
        :func:`write_u32_src`: the bound word methods as ``rd``/``wr``,
        the page dict (mutated in place, never rebound) as ``pages``,
        and the word codec as ``u32``/``p32``."""
        return dict(WORD_SCOPE, rd=self.read_u32, wr=self.write_u32,
                    pages=self._pages)

    # -- block access ----------------------------------------------------------------

    def read_block(self, addr: int, count: int) -> bytes:
        out = bytearray()
        while count:
            off = addr & PAGE_MASK
            chunk = min(count, PAGE_SIZE - off)
            page = self._page(addr)
            out += page[off : off + chunk]
            addr += chunk
            count -= chunk
        return bytes(out)

    def write_block(self, addr: int, payload: bytes) -> None:
        view = memoryview(payload)
        while view:
            off = addr & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - off)
            page = self._page(addr)
            page[off : off + chunk] = view[:chunk]
            addr += chunk
            view = view[chunk:]

    def copy(self) -> "SparseMemory":
        """Deep copy (used to give each simulation mode identical state)."""
        clone = SparseMemory(strict=self.strict)
        clone._pages = {idx: bytearray(page) for idx, page in self._pages.items()}
        return clone


# -- inlined word access (block and trace tiers) -------------------------------
#
# A mapped page and a word that ends inside it is the hit case: the page
# dict lookup and the codec run inline.  Anything else calls ``rd``/
# ``wr``, so lazy zero-page allocation, ``strict`` faults and the
# byte-wise page-crossing path stay in one place.

def read_u32_src(addr: str):
    """``(setup, expr)``: after the ``setup`` line, ``expr`` is the
    word ``read_u32`` returns for the address in local ``addr``."""
    return ("p_ = pages.get(%s >> %d)" % (addr, PAGE_SHIFT),
            "u32(p_, %s & %d)[0] if p_ is not None and %s & %d <= %d "
            "else rd(%s)"
            % (addr, PAGE_MASK, addr, PAGE_MASK, PAGE_SIZE - 4, addr))


def write_u32_src(addr: str, value: str):
    """Source lines doing ``write_u32(addr, value)`` for a local
    ``addr`` and a value expression (masked to 32 bits, as the method
    masks it)."""
    return [
        "p_ = pages.get(%s >> %d)" % (addr, PAGE_SHIFT),
        "if p_ is not None and %s & %d <= %d:" % (addr, PAGE_MASK,
                                                  PAGE_SIZE - 4),
        "    p32(p_, %s & %d, %s & %d)" % (addr, PAGE_MASK, value, MASK32),
        "else:",
        "    wr(%s, %s)" % (addr, value),
    ]
