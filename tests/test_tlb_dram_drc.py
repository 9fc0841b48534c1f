"""TLB (with page-visibility bit), DRAM row-buffer model, and DRC tests."""

import pytest

from repro.arch.config import DRAMConfig, DRCConfig, TLBConfig
from repro.arch.dram import DRAM
from repro.arch.drc import DRC, KIND_DERAND, KIND_RAND
from repro.arch.tlb import TLB, PageVisibilityFault


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(TLBConfig(entries=4, miss_penalty=12))
        assert tlb.access(0x1000) == 12
        assert tlb.access(0x1004) == 0  # same page
        assert tlb.stats.misses == 1
        assert tlb.stats.accesses == 2

    def test_lru_eviction(self):
        tlb = TLB(TLBConfig(entries=2, miss_penalty=12))
        tlb.access(0x1000)
        tlb.access(0x2000)
        tlb.access(0x1000)  # refresh page 1
        tlb.access(0x3000)  # evicts page 2
        assert tlb.access(0x1000) == 0
        assert tlb.access(0x2000) == 12

    def test_flush(self):
        tlb = TLB(TLBConfig(entries=4, miss_penalty=12))
        tlb.access(0x1000)
        tlb.flush()
        assert tlb.access(0x1000) == 12

    def test_visibility_fault_for_user_access(self):
        tlb = TLB(TLBConfig())
        tlb.set_invisible(0x60000000, 0x1000)
        with pytest.raises(PageVisibilityFault):
            tlb.access(0x60000800)

    def test_visible_pages_unaffected(self):
        tlb = TLB(TLBConfig())
        tlb.set_invisible(0x60000000, 0x1000)
        tlb.access(0x400000)  # normal code page


class TestDRAM:
    def test_row_hit_cheaper_than_conflict(self):
        dram = DRAM(DRAMConfig())
        first = dram.access(0x100000)
        second = dram.access(0x100040)  # same row
        assert second < first
        assert dram.stats.row_hits == 1

    def test_row_conflict_reopens(self):
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        dram.access(0x000000)
        far = 0x000000 + (cfg.num_banks << cfg.row_bits)  # same bank, new row
        latency = dram.access(far)
        assert latency == cfg.controller_overhead + cfg.t_rp + cfg.t_rcd + cfg.t_cas
        assert dram.stats.row_conflicts == 2  # both opens were conflicts

    def test_banks_independent(self):
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        dram.access(0 << cfg.row_bits)  # bank 0
        dram.access(1 << cfg.row_bits)  # bank 1
        # Returning to bank 0's open row is a hit.
        assert dram.access(0x40) == cfg.controller_overhead + cfg.t_cas

    def test_read_write_counters(self):
        dram = DRAM(DRAMConfig())
        dram.access(0, is_write=False)
        dram.access(0, is_write=True)
        assert dram.stats.reads == 1 and dram.stats.writes == 1
        assert dram.stats.row_hit_rate == 0.5


class _TableBacking:
    def __init__(self, latency=12):
        self.latency = latency
        self.refills = []

    def refill(self, key, kind):
        self.refills.append((key, kind))
        return self.latency


class TestDRC:
    def _drc(self, entries=64):
        backing = _TableBacking()
        return DRC(DRCConfig(entries=entries), backing.refill), backing

    def test_miss_then_hit(self):
        drc, backing = self._drc()
        first = drc.lookup(0x40000000, KIND_DERAND)
        assert first == 1 + 12
        second = drc.lookup(0x40000000, KIND_DERAND)
        assert second == 1
        assert drc.stats.misses == 1
        assert drc.stats.lookups == 2
        assert backing.refills == [(0x40000000, KIND_DERAND)]

    def test_kind_is_part_of_the_tag(self):
        # Same key, different type tag: distinct entries (paper Fig. 8's
        # derand/rand single-bit tag).
        drc, _ = self._drc()
        drc.lookup(0x1000, KIND_DERAND)
        latency = drc.lookup(0x1000, KIND_RAND)
        assert latency > 1
        assert drc.stats.misses == 2

    def test_direct_mapped_conflict(self):
        drc, _ = self._drc(entries=64)
        key_a = 0x40000000
        # Find a second key landing on the same index.
        key_b = next(
            k for k in range(0x40000008, 0x40100000, 8)
            if drc._index(k, KIND_DERAND) == drc._index(key_a, KIND_DERAND)
        )
        drc.lookup(key_a, KIND_DERAND)
        drc.lookup(key_b, KIND_DERAND)
        # key_a was displaced: it must miss again.
        assert drc.lookup(key_a, KIND_DERAND) > 1

    def test_working_set_within_capacity_hits(self):
        drc, _ = self._drc(entries=512)
        keys = [0x40000000 + 8 * i for i in range(40)]
        for key in keys:
            drc.lookup(key, KIND_DERAND)
        before = drc.stats.misses
        for _round in range(5):
            for key in keys:
                drc.lookup(key, KIND_DERAND)
        # A 512-entry DRC holds 40 keys with at most a few conflicts.
        assert drc.stats.misses - before <= 10 * 5

    def test_larger_drc_fewer_misses(self):
        keys = [0x40000000 + 8 * i for i in range(96)]
        results = {}
        for entries in (64, 512):
            drc, _ = self._drc(entries=entries)
            for _round in range(10):
                for key in keys:
                    drc.lookup(key, KIND_DERAND)
            results[entries] = drc.stats.miss_rate
        assert results[512] < results[64]

    def test_bitmap_probe_counted(self):
        drc, _ = self._drc()
        drc.bitmap_probe()
        assert drc.stats.bitmap_probes == 1

    def test_flush(self):
        drc, _ = self._drc()
        drc.lookup(0x1000, KIND_DERAND)
        drc.flush()
        assert drc.lookup(0x1000, KIND_DERAND) > 1

    def test_stats_by_kind(self):
        drc, _ = self._drc()
        drc.lookup(0x1000, KIND_DERAND)
        drc.lookup(0x2000, KIND_RAND)
        assert drc.stats.derand_lookups == 1
        assert drc.stats.rand_lookups == 1


    # -- drain: the pipeline's rule for exposing RDR lookups ------------

    @pytest.mark.parametrize("overlap", [0, 5, 11, 20])
    def test_drain_refill_stalls_a_waiting_fetch_past_the_overlap(
            self, overlap):
        drc, backing = self._drc()
        events = [("derand", 0x40000000)]
        hit = drc.config.latency
        latency = hit + 12  # a miss refills from the backing table
        assert drc.drain(events, True, overlap) == max(
            0, latency - hit - overlap)
        assert backing.refills == [(0x40000000, KIND_DERAND)]
        assert events == []

    def test_drain_redirect_refills_the_rand_kind(self):
        drc, backing = self._drc()
        assert drc.drain([("redirect", 0x401000)], True) == 12
        assert backing.refills == [(0x401000, KIND_RAND)]

    def test_drain_hit_never_stalls(self):
        drc, _ = self._drc()
        drc.lookup(0x40000000, KIND_DERAND)
        assert drc.drain([("derand", 0x40000000)], True) == 0
        assert drc.stats.lookups == 2 and drc.stats.misses == 1

    def test_drain_predicted_fetch_charges_nothing_but_counts_the_lookup(
            self):
        drc, backing = self._drc()
        events = [("derand", 0x40000000)]
        assert drc.drain(events, False) == 0
        assert drc.stats.lookups == 1 and drc.stats.misses == 1
        assert backing.refills == [(0x40000000, KIND_DERAND)]
        assert events == []

    def test_drain_rand_never_stalls(self):
        drc, backing = self._drc()
        events = [("rand", 0x400123)]
        assert drc.drain(events, True) == 0
        assert drc.stats.rand_lookups == 1
        assert backing.refills == [(0x400123, KIND_RAND)]
        assert events == []

    def test_drain_bitmap_counts_a_probe(self):
        drc, backing = self._drc()
        events = [("bitmap", 0x7FFF0000)]
        assert drc.drain(events, True) == 0
        assert drc.stats.bitmap_probes == 1
        assert drc.stats.lookups == 0 and backing.refills == []
        assert events == []

    def test_drain_charges_every_queued_lookup_and_empties_the_queue(self):
        drc, _ = self._drc()
        events = [("rand", 0x400123), ("bitmap", 0x7FFF0000),
                  ("derand", 0x40000000), ("derand", 0x40000008)]
        assert drc.drain(events, True) == 2 * 12
        assert drc.stats.lookups == 3 and drc.stats.bitmap_probes == 1
        assert events == []

    def test_drain_of_an_empty_queue_is_free(self):
        drc, _ = self._drc()
        assert drc.drain([], True, 0) == 0
        assert drc.stats.lookups == 0
