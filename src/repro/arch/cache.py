"""Set-associative cache timing model with LRU replacement and write-back.

Caches model *timing and occupancy only*; data always comes from the
functional :class:`~repro.arch.memory.SparseMemory`.  This split keeps the
hot simulation loop fast while preserving faithful hit/miss behaviour.

The line state tracks a ``prefetched`` bit so the prefetch-effectiveness
statistics of paper Fig. 3 can be computed (a prefetched line that gets
evicted before any demand hit was a wasted prefetch).
"""

from __future__ import annotations

from typing import Callable

from .config import CacheConfig


class CacheStats:
    """Counters for one cache instance."""

    __slots__ = (
        "accesses", "misses", "evictions", "writebacks",
        "prefetches", "prefetch_hits", "prefetch_used", "prefetch_wasted",
        "demand_reads_to_next",
    )

    def __init__(self):
        self.accesses = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.prefetches = 0
        #: prefetch requests that already hit in this cache (no fill needed).
        self.prefetch_hits = 0
        #: prefetched lines that served at least one demand access.
        self.prefetch_used = 0
        #: prefetched lines evicted without a single demand access.
        self.prefetch_wasted = 0
        #: read requests this cache issued to the next level (L2 "pressure"
        #: in paper Fig. 3 terms, when read on an L1).
        self.demand_reads_to_next = 0

    def reset(self) -> None:
        """Zero every counter in place (object identity is preserved so
        compiled trace code may close over this instance)."""
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def prefetch_waste_rate(self) -> float:
        """Fraction of prefetched lines never used — the "prefetch miss rate"."""
        issued = self.prefetch_used + self.prefetch_wasted
        return self.prefetch_wasted / issued if issued else 0.0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Cache:
    """One level of set-associative cache.

    ``next_level`` is a callable ``(line_addr, is_write) -> latency`` used
    on misses and writebacks — either another :class:`Cache`'s
    :meth:`access` or the DRAM model.

    The class is flattened for the simulator's hot loop: ``__slots__``
    storage, a precomputed set-index mask for power-of-two set counts,
    and an :meth:`access` body that binds its hot references to locals.
    """

    __slots__ = (
        "config", "name", "next_level", "num_sets", "assoc",
        "line_shift", "latency", "stats", "_sets", "_set_mask",
    )

    def __init__(
        self,
        config: CacheConfig,
        name: str,
        next_level: Callable[[int, bool], int],
    ):
        self.config = config
        self.name = name
        self.next_level = next_level
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.line_shift = config.line_bytes.bit_length() - 1
        self.latency = config.latency
        self.stats = CacheStats()
        # Set-index mask; -1 disables it for non-power-of-two set counts
        # (``line & mask == line % num_sets`` only when num_sets is 2**k).
        if self.num_sets > 0 and self.num_sets & (self.num_sets - 1) == 0:
            self._set_mask = self.num_sets - 1
        else:
            self._set_mask = -1
        # Per set: list of [tag, dirty, prefetched, touched] in LRU order
        # (index 0 = LRU, -1 = MRU).
        self._sets = [[] for _ in range(self.num_sets)]

    # -- helpers -----------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr >> self.line_shift

    def _set_index(self, line: int) -> int:
        mask = self._set_mask
        return line & mask if mask >= 0 else line % self.num_sets

    def _find(self, ways, tag):
        for idx, entry in enumerate(ways):
            if entry[0] == tag:
                return idx
        return -1

    def contains(self, addr: int) -> bool:
        line = self.line_addr(addr)
        ways = self._sets[self._set_index(line)]
        return self._find(ways, line) >= 0

    # -- main access path ------------------------------------------------------

    def access(self, addr: int, is_write: bool = False) -> int:
        """Demand access; returns total latency in cycles."""
        line = addr >> self.line_shift
        mask = self._set_mask
        ways = self._sets[line & mask if mask >= 0 else line % self.num_sets]
        stats = self.stats
        stats.accesses += 1

        idx = 0
        for entry in ways:
            if entry[0] == line:
                if entry[2] and not entry[3]:
                    stats.prefetch_used += 1
                entry[3] = True
                if is_write:
                    entry[1] = True
                if entry is not ways[-1]:  # already-MRU: skip the reorder
                    del ways[idx]
                    ways.append(entry)
                return self.latency
            idx += 1

        # Miss: fill from the next level.
        stats.misses += 1
        stats.demand_reads_to_next += 1
        latency = self.latency + self.next_level(line << self.line_shift, False)
        self._install(ways, line, dirty=is_write, prefetched=False, touched=True)
        return latency

    def access_src(self, name: str, addr, is_write: bool, hit, miss):
        """Source for :meth:`access` with the MRU-way hit inlined, for
        the trace tier; the names are those of :meth:`inline_scope`
        under ``name``.

        An MRU hit only bumps stats, sets the entry's bits and returns
        the base latency (zero marginal stall), so it runs inline and
        then ``hit``; anything else (a non-MRU hit, a miss) runs
        ``miss``, the caller's call of the method, which does its own
        accounting.  ``addr`` is an int fixed at compile time or names
        a local.  With a non-power-of-two set count the set index does
        not fold to a mask and the source is ``miss`` alone.
        """
        mask = self._set_mask
        if mask < 0:
            return list(miss)
        if isinstance(addr, int):
            line = addr >> self.line_shift
            lines = ["w_ = %ss[%d]" % (name, line & mask)]
            tag = str(line)
        else:
            lines = ["ln_ = %s >> %d" % (addr, self.line_shift),
                     "w_ = %ss[ln_ & %d]" % (name, mask)]
            tag = "ln_"
        lines += [
            "e_ = w_[-1] if w_ else None",
            "if e_ is not None and e_[0] == %s:" % tag,
            "    %sst.accesses += 1" % name,
            "    if e_[2] and not e_[3]:",
            "        %sst.prefetch_used += 1" % name,
            "    e_[3] = True",
        ]
        if is_write:
            lines.append("    e_[1] = True")
        lines += ["    " + line for line in hit]
        lines.append("else:")
        lines += ["    " + line for line in miss]
        return lines

    def prefetch(self, addr: int) -> None:
        """Install ``addr``'s line speculatively (no latency charged to the core)."""
        line = addr >> self.line_shift
        mask = self._set_mask
        ways = self._sets[line & mask if mask >= 0 else line % self.num_sets]
        for entry in ways:
            if entry[0] == line:
                self.stats.prefetch_hits += 1
                return
        self.stats.prefetches += 1
        # The fill still loads the next level (bandwidth/pressure there).
        self.next_level(line << self.line_shift, False)
        self._install(ways, line, dirty=False, prefetched=True, touched=False)

    def prefetch_src(self, name: str, addr: int):
        """Source for :meth:`prefetch` of the compile-time ``addr``: a
        hit only bumps ``prefetch_hits`` (no LRU reorder), so the ways
        are scanned inline and the method is called on a real fill."""
        call = "%sp(%d)" % (name, addr)
        mask = self._set_mask
        if mask < 0:
            return [call]
        line = addr >> self.line_shift
        return [
            "for pe_ in %ss[%d]:" % (name, line & mask),
            "    if pe_[0] == %d:" % line,
            "        %sst.prefetch_hits += 1" % name,
            "        break",
            "else:",
            "    " + call,
        ]

    def inline_scope(self, name: str) -> dict:
        """Generated-scope bindings of the ``*_src`` methods under
        ``name``: the bound :meth:`access`, and ``p``/``s``/``st``-
        suffixed names for :meth:`prefetch`, the per-set way lists and
        the stats, each kept in place for the cache's lifetime
        (:meth:`flush` and ``CacheStats.reset`` work in place)."""
        return {name: self.access, name + "p": self.prefetch,
                name + "s": self._sets, name + "st": self.stats}

    def _install(self, ways, line, dirty, prefetched, touched) -> None:
        if len(ways) >= self.assoc:
            victim = ways.pop(0)
            self.stats.evictions += 1
            if victim[2] and not victim[3]:
                self.stats.prefetch_wasted += 1
            if victim[1]:
                self.stats.writebacks += 1
                self.next_level(victim[0] << self.line_shift, True)
        ways.append([line, dirty, prefetched, touched])

    def flush(self) -> None:
        """Drop all lines (writebacks are not modelled on flush).

        Clears each set in place: the ``_sets`` list and its per-set way
        lists keep their identity, so compiled trace code
        (:mod:`repro.arch.tracecache`) may close over them."""
        for ways in self._sets:
            ways.clear()
