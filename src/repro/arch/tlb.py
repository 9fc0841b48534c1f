"""Fully-associative TLB with the paper's page-visibility extension.

Paper §IV-B: "A simple implementation of this protection is to extend each
entry of the TLB with a new page visibility bit.  For a page, if the
visibility bit is set ... contents stored in the page can be accessed by
the user space instructions.  Otherwise ... the page is invisible to the
application instructions.  The randomization and de-randomization
translation tables are stored in such pages."

The simulator registers the RDR-table and bitmap page ranges as invisible;
any program access to them raises :class:`PageVisibilityFault`.  DRC
refills, the micro-architectural accesses that read those tables, go
straight to the L2 and never pass through a TLB.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

from .config import TLBConfig


class PageVisibilityFault(Exception):
    """User-space access to a kernel-invisible page (RDR tables / bitmap)."""

    def __init__(self, addr: int):
        super().__init__("user access to invisible page at 0x%08x" % addr)
        self.addr = addr


class TLBStats:
    __slots__ = ("accesses", "misses")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Zero both counters in place (compiled trace code closes over
        this instance)."""
        self.accesses = 0
        self.misses = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """LRU fully-associative TLB (timing only; translation is identity).

    Flattened for the simulator's hot loop: ``__slots__`` storage and
    precomputed page-shift / entry-count / penalty fields so
    :meth:`access` never chases ``self.config`` attributes.
    """

    __slots__ = (
        "config", "name", "stats", "mru", "_entries", "_invisible",
        "_page_bits", "_capacity", "_miss_penalty", "_inv_lo", "_inv_hi",
    )

    def __init__(self, config: TLBConfig, name: str = "tlb"):
        self.config = config
        self.name = name
        self.stats = TLBStats()
        self._entries: "OrderedDict[int, bool]" = OrderedDict()
        #: The most recently used page (the last key of ``_entries``),
        #: or -1 when empty.  Every access that returns has passed the
        #: visibility check, so a page held here is visible.
        self.mru = -1
        #: (start_page, end_page) ranges whose visibility bit is clear.
        self._invisible: List[Tuple[int, int]] = []
        self._page_bits = config.page_bits
        self._capacity = config.entries
        self._miss_penalty = config.miss_penalty
        # Envelope of all invisible pages: one range compare rejects the
        # overwhelmingly common visible case before any per-range scan.
        self._inv_lo = 1 << 62
        self._inv_hi = -1

    def set_invisible(self, start: int, size: int) -> None:
        """Mark byte range [start, start+size) as user-invisible.

        Call before the first access: ``mru`` and compiled traces take
        a page that passed the check as visible for good."""
        bits = self._page_bits
        lo = start >> bits
        hi = (start + size - 1) >> bits
        self._invisible.append((lo, hi))
        if lo < self._inv_lo:
            self._inv_lo = lo
        if hi > self._inv_hi:
            self._inv_hi = hi

    def _is_invisible(self, page: int) -> bool:
        for lo, hi in self._invisible:
            if lo <= page <= hi:
                return True
        return False

    def access(self, addr: int) -> int:
        """Translate; returns extra latency (0 on hit, miss penalty
        otherwise).  An access to an invisible page raises
        :class:`PageVisibilityFault` before touching any state."""
        page = addr >> self._page_bits
        if self._inv_lo <= page <= self._inv_hi and self._is_invisible(page):
            raise PageVisibilityFault(addr)

        stats = self.stats
        entries = self._entries
        stats.accesses += 1
        self.mru = page
        if page in entries:
            entries.move_to_end(page)
            return 0
        stats.misses += 1
        if len(entries) >= self._capacity:
            entries.popitem(last=False)
        entries[page] = True
        return self._miss_penalty

    def access_src(self, name: str, addr, miss):
        """Source for :meth:`access` with its hits inlined, for the
        trace tier; ``miss`` is the caller's fallback (the call, which
        does its own accounting) and the names are those of
        :meth:`inline_scope` under ``name``.

        An MRU hit or any other hit runs inline.  ``addr`` is an int
        for a fetch address fixed at compile time, whose access stays a
        call when its page is invisible, so that it faults.  Otherwise
        ``addr`` names a local: ``_entries`` only ever holds pages that
        passed the visibility check (``mru`` is one of them), so a hit
        never skips a fault."""
        if isinstance(addr, int):
            page = addr >> self._page_bits
            if self._is_invisible(page):
                return list(miss)
            setup, page = [], str(page)
        else:
            setup, page = ["pg_ = %s >> %d" % (addr, self._page_bits)], "pg_"
        return setup + [
            "if %so.mru == %s:" % (name, page),
            "    %sst.accesses += 1" % name,
            "elif %s in %se:" % (page, name),
            "    %sst.accesses += 1" % name,
            "    %se.move_to_end(%s)" % (name, page),
            "    %so.mru = %s" % (name, page),
            "else:",
        ] + ["    " + line for line in miss]

    def inline_scope(self, name: str) -> dict:
        """Generated-scope bindings of :meth:`access_src` under
        ``name``: the bound :meth:`access`, and ``o``/``e``/``st``-
        suffixed names for this TLB, its entries and its stats, each
        kept in place for the TLB's lifetime."""
        return {name: self.access, name + "o": self,
                name + "e": self._entries, name + "st": self.stats}

    def flush(self) -> None:
        self._entries.clear()
        self.mru = -1
