"""Shared last-level memory system for multi-tenant simulation.

The paper's §IV-D system-level story has every protected process keep
its *private* close-to-the-core state (DRC, TLBs, L1s) while the
unified L2 and DRAM are platform resources: RDR table refills go
"through the L2" and therefore contend with every other tenant's
working set.  :class:`SharedMemorySystem` models exactly that — one
:class:`~repro.arch.cache.Cache` L2 backed by one
:class:`~repro.arch.dram.DRAM`, handed out to per-tenant
:class:`~repro.arch.cpu.CycleCPU` instances through
:class:`MemoryPort` views.

Tenants are separate address spaces that may load the *same* image at
the *same* virtual addresses; a naive physically-indexed shared L2
would falsely alias their lines as shared.  Each port therefore adds a
per-tenant physical base (``index << PHYS_BASE_SHIFT``) before the L2:
distinct tags, identical set indexes — real occupancy/conflict
contention with no false sharing.  The offset also separates the
per-tenant RDR table regions, so one tenant's table refills genuinely
evict another tenant's lines without ever *hitting* on them.
"""

from __future__ import annotations

from typing import Optional

from .cache import Cache
from .config import MachineConfig, default_config
from .dram import DRAM

#: Per-tenant physical base stride.  Far above any virtual address the
#: toolchain emits (images, stacks, and RDR tables all live below
#: 2^32), and line-aligned by construction, so adding it never changes
#: a line's set index — only its tag.
PHYS_BASE_SHIFT = 44


class MemoryPort:
    """One tenant's view of the shared L2 + DRAM.

    The port is a drop-in for the private ``l2.access`` next-level
    callable: L1s and the DRC refill path call :meth:`access` with a
    line-aligned virtual byte address, and the port relocates it into
    the tenant's private physical region before the shared L2 sees it.
    """

    __slots__ = ("index", "base", "l2", "dram")

    def __init__(self, system: "SharedMemorySystem", index: int):
        # The port keeps the shared L2 and DRAM, not the system, whose
        # port table refers back to it.
        self.index = index
        self.base = index << PHYS_BASE_SHIFT
        self.l2 = system.l2
        self.dram = system.dram

    def access(self, addr: int, is_write: bool = False) -> int:
        """Access the shared L2 at the tenant-relocated address."""
        return self.l2.access(self.base + addr, is_write)


class SharedMemorySystem:
    """One node's shared memory hierarchy: a unified L2 over DRAM.

    Construct once per simulated node, then hand ``port(i)`` to tenant
    ``i``'s :class:`~repro.arch.cpu.CycleCPU` (its ``memory=``
    argument).  All ports funnel into the same L2 set array and the
    same DRAM row-buffer state, so tenants contend for occupancy and
    memory bandwidth exactly as co-located processes do.
    """

    def __init__(self, config: Optional[MachineConfig] = None):
        cfg = config or default_config()
        self.config = cfg
        self.dram = DRAM(cfg.dram)
        self.l2 = Cache(cfg.l2, "l2", self.dram.access)
        self._ports = {}

    def port(self, index: int) -> MemoryPort:
        """The (cached) memory port for tenant ``index``."""
        if index < 0:
            raise ValueError("tenant index must be non-negative")
        port = self._ports.get(index)
        if port is None:
            port = self._ports[index] = MemoryPort(self, index)
        return port

    def reset_stats(self) -> None:
        """Zero the shared-level counters (contents are preserved)."""
        from .dram import DRAMStats

        self.l2.stats.reset()
        self.dram.stats = DRAMStats()
