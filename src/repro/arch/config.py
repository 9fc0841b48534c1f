"""Machine configuration (paper §VI-C machine parameters).

Defaults reproduce the evaluated machine: a 1.6 GHz single-issue in-order
x86 core with 32 KB 2-way IL1/DL1 (64 B lines, 2-cycle), a unified 512 KB
8-way 12-cycle L2, 64-entry fully-associative TLBs, a 2-level gshare
predictor with BTB and RAS, a next-line IL1 prefetcher, a DDR-style DRAM
model, and a small direct-mapped DRC (64–512 entries).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Tuple

#: Version of the *timing semantics* of the simulator.  Bump whenever a
#: change alters cycle counts or statistics for an identical spec; the
#: result-cache fingerprint includes it, so results produced by an older
#: timing model can never be served against a newer one.
TIMING_MODEL_VERSION = 3

#: MachineConfig fields that tune *host-side* execution strategy only.
#: They are required (and differentially tested) to have zero effect on
#: simulated cycles and statistics, so the result-cache fingerprint
#: excludes them — a result computed by the reference loop is equally
#: valid for the fast path and vice versa.
HOST_TUNING_FIELDS: Tuple[str, ...] = (
    "fastpath", "block_cache_capacity", "block_max_insts",
    "tracepath", "trace_hot_threshold", "trace_max_blocks",
    "trace_max_insts", "trace_cache_capacity",
)


@dataclass
class CacheConfig:
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    latency: int = 2

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass
class BranchConfig:
    #: gshare: global history bits (table has 2**bits 2-bit counters).
    gshare_bits: int = 12
    btb_entries: int = 2048
    btb_assoc: int = 4
    ras_entries: int = 16
    #: full pipeline flush on a direction/target mispredict.
    mispredict_penalty: int = 6
    #: bubble for a correctly-predicted taken branch (fetch redirect).
    taken_bubble: int = 1
    #: extra bubble when a taken branch misses the BTB.
    btb_miss_penalty: int = 2


@dataclass
class TLBConfig:
    entries: int = 64  # fully associative (paper: 64-entry FA I-TLB/D-TLB)
    page_bits: int = 12
    miss_penalty: int = 12  # page-walk cycles (warm paging-structure caches)


@dataclass
class DRAMConfig:
    num_banks: int = 8
    row_bits: int = 12  # 4 KiB rows; open-page policy
    t_cas: int = 15  # CPU cycles (column access, row already open)
    t_rcd: int = 15  # activate
    t_rp: int = 15  # precharge
    controller_overhead: int = 10


@dataclass
class DRCConfig:
    """De-Randomization Cache: small direct-mapped translation cache."""

    entries: int = 128  # paper evaluates 64 / 128 / 512
    latency: int = 1
    #: associativity: 1 = direct-mapped (the paper's design), n = n-way,
    #: 0 = fully associative (ablation only).
    assoc: int = 1
    #: bitmap cache for §IV-C marked stack slots.
    bitmap_latency: int = 1


@dataclass
class MachineConfig:
    freq_mhz: int = 1600
    il1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 2, 64, 2)
    )
    dl1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 2, 64, 2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 8, 64, 12)
    )
    branch: BranchConfig = field(default_factory=BranchConfig)
    itlb: TLBConfig = field(default_factory=TLBConfig)
    dtlb: TLBConfig = field(default_factory=TLBConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    drc: DRCConfig = field(default_factory=DRCConfig)
    #: enable the next-line IL1 instruction prefetcher.
    prefetch_il1: bool = True
    #: average exposed load-use latency for a DL1 hit, in stall cycles.
    load_use_stall: int = 1
    #: run the basic-block fast path (pre-decoded block cache + flattened
    #: stall kernels).  ``False`` selects the per-instruction reference
    #: loop; both are cycle- and stats-exact by construction (host-side
    #: knob — excluded from the result-cache fingerprint).
    fastpath: bool = True
    #: bounded capacity of the basic-block cache, in blocks (host-side).
    block_cache_capacity: int = 4096
    #: maximum instructions pre-decoded into one block (host-side).
    block_max_insts: int = 32
    #: run the superblock trace tier on top of the block fast path: a
    #: hot block's path, linked across predicted branches, is compiled
    #: to a specialized Python function when it loops back to that
    #: block (host-side knob; cycle/stat-exact by contract, like
    #: ``fastpath``).
    tracepath: bool = True
    #: block executions before a leader is hot enough to anchor a trace
    #: recording (host-side).
    trace_hot_threshold: int = 16
    #: maximum blocks linked into one trace; a recording that reaches
    #: it before looping back is rejected, not compiled (host-side).
    trace_max_blocks: int = 16
    #: maximum instructions across one trace; a recording that reaches
    #: it before looping back is rejected, not compiled (host-side).
    trace_max_insts: int = 256
    #: bounded capacity of the compiled-trace cache, in traces
    #: (host-side; flush-on-overflow like the block cache).
    trace_cache_capacity: int = 512

    def with_overrides(self, overrides) -> "MachineConfig":
        """A copy with ``(dotted field, value)`` pairs applied, e.g.
        ``[("drc.entries", 64)]``; an unknown field raises ValueError."""
        cfg = copy.deepcopy(self)
        for path, value in overrides:
            *owners, name = path.split(".")
            target = cfg
            for part in owners:
                target = getattr(target, part) if _has(target, part) else None
            if not _has(target, name) or is_dataclass(getattr(target, name)):
                raise ValueError("no MachineConfig field %r" % path)
            setattr(target, name, value)
        return cfg


def _has(obj, name: str) -> bool:
    return is_dataclass(obj) and name in {f.name for f in fields(obj)}


def default_config() -> MachineConfig:
    """The paper's evaluated machine."""
    return MachineConfig()
