"""Result object of one cycle-level simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..isa.syscalls import OutputStream
from .power import EnergyBreakdown


def ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator`` with a uniform zero-denominator policy.

    Every derived rate in the simulator (IPC, miss rates, speedups,
    normalized IPC) is a ratio whose denominator can legitimately be
    zero on a degenerate run; callers use this instead of hand-rolled
    ``x / y if y else ...`` guards with inconsistent defaults.
    """
    return numerator / denominator if denominator else default


def miss_rate(stats: Dict[str, int],
              misses: str = "misses",
              accesses: str = "accesses") -> float:
    """Miss rate from a counter-snapshot dict, zero-guarded.

    Works on any ``{"accesses": N, "misses": M}``-shaped dict (the
    :class:`~repro.arch.cache.CacheStats` snapshots stored on
    :class:`SimResult`); alternate key names cover TLB/DRC-style dicts.

    An *empty* dict means "this structure never ran" and yields 0.0
    (e.g. a default-constructed :class:`SimResult`).  A non-empty dict
    that lacks either key is a caller bug — a misspelled key used to
    silently read as a perfect 0.0 miss rate, masking miscounted
    TLB/DRC-style dicts — and raises ``KeyError`` instead.
    """
    if not stats:
        return 0.0
    if misses not in stats or accesses not in stats:
        raise KeyError(
            "miss_rate: stats dict has keys %s, expected %r and %r"
            % (sorted(stats), misses, accesses)
        )
    return ratio(stats[misses], stats[accesses])


@dataclass
class SimResult:
    """Timing + activity + architectural outcome of one run."""

    mode: str
    cycles: int = 0
    instructions: int = 0
    #: instructions executed before measurement started (cache warmup).
    warmup_instructions: int = 0
    exit_code: Optional[int] = None
    finished: bool = False  # program terminated (vs. budget exhausted)
    output: Optional[OutputStream] = None

    # Memory hierarchy.
    il1: Dict[str, int] = field(default_factory=dict)
    dl1: Dict[str, int] = field(default_factory=dict)
    l2: Dict[str, int] = field(default_factory=dict)
    itlb_misses: int = 0
    dtlb_misses: int = 0
    dram_accesses: int = 0
    dram_row_hit_rate: float = 0.0

    # Branch prediction.
    cond_branches: int = 0
    cond_mispredicts: int = 0
    ras_mispredicts: int = 0
    indirect_mispredicts: int = 0

    # DRC.
    drc_lookups: int = 0
    drc_misses: int = 0
    drc_bitmap_probes: int = 0

    # Power.
    energy: Optional[EnergyBreakdown] = None

    @property
    def ipc(self) -> float:
        return ratio(self.instructions, self.cycles)

    @property
    def il1_miss_rate(self) -> float:
        return miss_rate(self.il1)

    @property
    def dl1_miss_rate(self) -> float:
        return miss_rate(self.dl1)

    @property
    def l2_miss_rate(self) -> float:
        return miss_rate(self.l2)

    @property
    def l2_pressure(self) -> int:
        """Read requests arriving at the L2 from the L1s (paper Fig. 3)."""
        return self.il1.get("demand_reads_to_next", 0) + self.il1.get(
            "prefetches", 0
        ) + self.dl1.get("demand_reads_to_next", 0)

    @property
    def il1_prefetch_waste_rate(self) -> float:
        used = self.il1.get("prefetch_used", 0)
        wasted = self.il1.get("prefetch_wasted", 0)
        return ratio(wasted, used + wasted)

    @property
    def drc_miss_rate(self) -> float:
        return ratio(self.drc_misses, self.drc_lookups)

    @property
    def drc_power_overhead_percent(self) -> float:
        return self.energy.drc_overhead_percent if self.energy else 0.0

    # -- serialization -----------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-serializable form, exact for every field (counters are
        integers, rates round-trip at full float precision).

        Together with :meth:`from_dict` this is the round-trip used by
        the on-disk result cache and the parallel sweep workers, so any
        new field added to :class:`SimResult` must be representable
        here — and ``from_dict(as_dict())`` must stay bit-identical
        (the qa oracle checks this on every fuzzed run).
        """
        output = None
        if self.output is not None:
            output = {
                "chars": bytes(self.output.chars).decode("latin-1"),
                "words": list(self.output.words),
            }
        return {
            "mode": self.mode,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "warmup_instructions": self.warmup_instructions,
            "exit_code": self.exit_code,
            "finished": self.finished,
            "output": output,
            "il1": dict(self.il1),
            "dl1": dict(self.dl1),
            "l2": dict(self.l2),
            "itlb_misses": self.itlb_misses,
            "dtlb_misses": self.dtlb_misses,
            "dram_accesses": self.dram_accesses,
            "dram_row_hit_rate": self.dram_row_hit_rate,
            "cond_branches": self.cond_branches,
            "cond_mispredicts": self.cond_mispredicts,
            "ras_mispredicts": self.ras_mispredicts,
            "indirect_mispredicts": self.indirect_mispredicts,
            "drc_lookups": self.drc_lookups,
            "drc_misses": self.drc_misses,
            "drc_bitmap_probes": self.drc_bitmap_probes,
            "energy": (
                dict(self.energy.by_structure) if self.energy else None
            ),
            # Always empty: progress samples live only in the event log
            # (``checkpoint`` records).  The key stays only because the
            # digests of ``to_dict()`` in perfbench/golden.json include
            # it; from_dict ignores it, so older entries with samples load.
            "checkpoints": [],
        }

    #: Alias so callers used to the common ``to_dict`` spelling (and the
    #: fast-path acceptance harness) get the same serialization.
    to_dict = as_dict

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        output = None
        if data.get("output") is not None:
            output = OutputStream(
                chars=bytearray(data["output"]["chars"], "latin-1"),
                words=list(data["output"]["words"]),
            )
        energy = None
        if data.get("energy") is not None:
            energy = EnergyBreakdown(by_structure=dict(data["energy"]))
        return cls(
            mode=data["mode"],
            cycles=data["cycles"],
            instructions=data["instructions"],
            warmup_instructions=data.get("warmup_instructions", 0),
            exit_code=data.get("exit_code"),
            finished=data.get("finished", False),
            output=output,
            il1=dict(data.get("il1", {})),
            dl1=dict(data.get("dl1", {})),
            l2=dict(data.get("l2", {})),
            itlb_misses=data.get("itlb_misses", 0),
            dtlb_misses=data.get("dtlb_misses", 0),
            dram_accesses=data.get("dram_accesses", 0),
            dram_row_hit_rate=data.get("dram_row_hit_rate", 0.0),
            cond_branches=data.get("cond_branches", 0),
            cond_mispredicts=data.get("cond_mispredicts", 0),
            ras_mispredicts=data.get("ras_mispredicts", 0),
            indirect_mispredicts=data.get("indirect_mispredicts", 0),
            drc_lookups=data.get("drc_lookups", 0),
            drc_misses=data.get("drc_misses", 0),
            drc_bitmap_probes=data.get("drc_bitmap_probes", 0),
            energy=energy,
        )

    def summary(self) -> str:
        lines = [
            "mode=%s instructions=%d cycles=%d ipc=%.4f"
            % (self.mode, self.instructions, self.cycles, self.ipc),
            "il1 miss=%.4f dl1 miss=%.4f l2 miss=%.4f l2 pressure=%d"
            % (self.il1_miss_rate, self.dl1_miss_rate, self.l2_miss_rate,
               self.l2_pressure),
            "prefetch waste=%.3f cond mispredict=%d/%d"
            % (self.il1_prefetch_waste_rate, self.cond_mispredicts,
               self.cond_branches),
        ]
        if self.drc_lookups:
            lines.append(
                "drc lookups=%d miss rate=%.4f power overhead=%.4f%%"
                % (self.drc_lookups, self.drc_miss_rate,
                   self.drc_power_overhead_percent)
            )
        return "\n".join(lines)
