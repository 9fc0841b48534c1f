"""The De-Randomization Cache (DRC) — paper §IV-B, Fig. 7/8.

A small direct-mapped on-chip cache of randomization/de-randomization
table entries.  Each entry holds an address tag, the translation, a
single-bit *type* tag (``derand`` vs ``rand``) and a valid bit, exactly
the organization of paper Fig. 8.

On a miss, the entry is refilled from the RDR table stored in (kernel-
invisible) paged memory: the refill is charged an L2 access — "for
efficient usage of cache space, DRC can share its second level cache with
the unified L2 of a processor core, which is our current design" — and
the L2 may in turn miss to DRAM.  Misses never trap to the kernel.

:meth:`DRC.drain` is the one place the pipeline's rule for exposing
that latency lives: the reference loop, the block loop and generated
traces all hand it the lookups an instruction queued.
"""

from __future__ import annotations

from typing import Callable

from .config import DRCConfig

KIND_DERAND = 0
KIND_RAND = 1


class DRCStats:
    __slots__ = ("lookups", "misses", "derand_lookups", "rand_lookups",
                 "bitmap_probes", "refill_latency_total", "evictions")

    def __init__(self):
        self.lookups = 0
        self.misses = 0
        self.derand_lookups = 0
        self.rand_lookups = 0
        self.bitmap_probes = 0
        self.refill_latency_total = 0
        #: valid entries displaced by a refill (capacity/conflict churn;
        #: aggregated into ``drc_evict`` events at checkpoint boundaries).
        self.evictions = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0


class DRC:
    """Unified randomization/de-randomization lookup buffer.

    Direct-mapped by default (the paper's design: "We designed DRC as
    direct mapped cache with small size to minimize power consumption...
    The design doesn't require a fully-associative DRC since the miss
    penalty is marginal").  ``DRCConfig.assoc`` > 1 enables the
    set-associative variant used by the ablation study that checks that
    claim; ``assoc=0`` means fully associative.
    """

    __slots__ = (
        "config", "num_entries", "refill", "stats", "assoc", "num_sets",
        "_sets", "_set_mask", "_hit_latency",
    )

    def __init__(
        self,
        config: DRCConfig,
        refill: Callable[[int, int], int],
    ):
        """``refill(key, kind) -> latency`` fetches the table entry from the
        memory hierarchy (L2-first) and returns the latency in cycles."""
        self.config = config
        self.num_entries = config.entries
        self.refill = refill
        self.stats = DRCStats()
        assoc = getattr(config, "assoc", 1)
        if assoc == 0:
            assoc = config.entries
        self.assoc = max(1, min(assoc, config.entries))
        self.num_sets = max(1, config.entries // self.assoc)
        # Precomputed index mask (the paper's DRC sizes are powers of
        # two; -1 falls back to ``%`` for odd ablation geometries).
        if self.num_sets & (self.num_sets - 1) == 0:
            self._set_mask = self.num_sets - 1
        else:
            self._set_mask = -1
        self._hit_latency = config.latency
        # Per set: list of (addr_tag, kind) in LRU order (index 0 = LRU).
        self._sets = [[] for _ in range(self.num_sets)]

    def _index(self, key: int, kind: int) -> int:
        # Multiplicative (Fibonacci) hash index over the *informative*
        # bits of the key.  The two key populations carry different
        # guaranteed-zero low bits:
        #
        # * ``KIND_DERAND`` keys are randomized-space addresses, which
        #   the layout engine places on 8-byte slot boundaries
        #   (``repro.ilr.layout.DEFAULT_SLOT_SIZE``): 3 dead low bits;
        # * ``KIND_RAND`` keys are original-space addresses, which are
        #   byte-dense (variable-length instructions): 0 dead bits.
        #
        # A fixed ``>> 2`` (the historical compromise) wasted one
        # guaranteed-zero bit of the slot-aligned population *and*
        # discarded two real bits of the dense one (adjacent original
        # addresses hashed identically).  Aliasing only costs conflict
        # misses — the full key is the stored tag, so correctness never
        # depended on the shift — but it skewed the Fig. 13/14 DRC
        # miss-rate ablations.  A key less aligned than its population's
        # shift (custom slot sizes) merely degrades back to extra
        # conflicts, again never false hits.
        shift = 3 if kind == KIND_DERAND else 0
        hashed = ((key >> shift) * 2654435761) >> 8
        mask = self._set_mask
        return hashed & mask if mask >= 0 else hashed % self.num_sets

    def lookup(self, key: int, kind: int) -> int:
        """Translate ``key``; returns latency in cycles (hit or refill)."""
        stats = self.stats
        stats.lookups += 1
        if kind == KIND_DERAND:
            stats.derand_lookups += 1
        else:
            stats.rand_lookups += 1

        ways = self._sets[self._index(key, kind)]
        entry = (key, kind)
        for idx, existing in enumerate(ways):
            if existing == entry:
                if self.assoc > 1:
                    ways.append(ways.pop(idx))
                return self._hit_latency

        stats.misses += 1
        latency = self._hit_latency + self.refill(key, kind)
        stats.refill_latency_total += latency
        if len(ways) >= self.assoc:
            ways.pop(0)
            stats.evictions += 1
        ways.append(entry)
        return latency

    def bitmap_probe(self) -> int:
        """§IV-C stack-bitmap cache probe (tiny dedicated cache)."""
        self.stats.bitmap_probes += 1
        return self.config.bitmap_latency

    def drain(self, events: list, fetch_waits: bool, overlap: int = 0) -> int:
        """Charge the RDR lookups one instruction queued in ``events``
        (a flow's ``(kind, key)`` list) and empty it; returns the stall.

        ``fetch_waits`` is True when the front end did NOT have a correct
        prediction for the transfer, i.e. fetch is stalled waiting for the
        de-randomized target (paper §IV-D: with prediction running in the
        de-randomized space, a predicted transfer never waits for the
        DRC).  Lookups always update DRC state and statistics; latency is
        only exposed when fetch actually waits — and even then a hit
        overlaps with the pipeline redirect, so only refills stall.
        """
        if not events:
            return 0
        stall = 0
        hit_latency = self._hit_latency
        for kind, key in events:
            if kind == "derand":
                latency = self.lookup(key, KIND_DERAND)
            elif kind == "redirect":
                latency = self.lookup(key, KIND_RAND)
            elif kind == "rand":
                # Return-address randomization on a call: the pushed value
                # is not needed until the matching ret, so the lookup is
                # never on the critical path.
                self.lookup(key, KIND_RAND)
                continue
            else:  # bitmap probe: tiny dedicated cache, fully pipelined
                self.bitmap_probe()
                continue
            if fetch_waits:
                # The refill runs concurrently with the pipeline flush the
                # mispredict already paid for; only the excess is exposed.
                stall += max(0, latency - hit_latency - overlap)
        events.clear()
        return stall

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
