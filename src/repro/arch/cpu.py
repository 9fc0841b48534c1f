"""The cycle-level single-issue in-order CPU simulator.

Models the paper's evaluated machine (§VI-C): a five-stage in-order
pipeline (fetch, decode, alloc, exec, commit) fed by an IL1 with a
next-line prefetcher, a gshare/BTB/RAS front end, DL1 and unified L2,
fully-associative TLBs with the page-visibility extension, a DDR-style
DRAM model, and — in VCFR mode — the De-Randomization Cache between the
pipeline and the memory hierarchy (Fig. 7).

Timing is per-instruction cycle accounting: every instruction retires
``1 + stalls`` cycles, where the stall terms model exactly the events the
paper's study varies across modes —

* IL1/L2/DRAM fill latencies on instruction-line changes (this is where
  naive ILR loses: its scattered layout changes line on ~every fetch),
* branch direction/target mispredicts (gshare/BTB/RAS; predicted in the
  de-randomized space under VCFR, §IV-D, so accuracy is mode-invariant),
* data-side DL1/L2/DRAM and DTLB behaviour,
* DRC lookups for randomized control transfers (VCFR only) with misses
  refilled through the L2, per §IV-B,
* the naive mode's fall-through map is charged zero cycles ("the naive
  implementation assumes that CPU can resolve address mapping with zero
  cost", §III) so its measured penalty is purely locality loss.

Architectural behaviour is delegated to the same functional executor and
flow objects the un-timed runner uses, so a cycle simulation can never
diverge semantically from the functional reference.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from ..binary import BinaryImage, load_image
from ..isa.instruction import Instruction
from ..obs.events import EventLog
from ..obs.metrics import get_registry
from .blockcache import BlockCache
from .branch import BranchStats, BranchUnit
from .cache import Cache
from .config import MachineConfig, default_config
from .drc import DRC, DRCStats, KIND_DERAND, KIND_RAND
from .dram import DRAM, DRAMStats
from .executor import CTRL_HALT, CTRL_JUMP, CTRL_NONE, EXEC_EXTRA, execute
from .memory import SparseMemory
from .power import EnergyParams, compute_energy
from .simstats import Checkpoint, SimResult, ratio
from .state import ExitProgram, MachineState
from .tlb import TLB, TLBStats
from .tracecache import TraceCache

#: Kernel-space placement of the RDR tables and the §IV-C stack bitmap.
#: These pages are registered invisible in the TLBs; only DRC refills
#: (micro-architectural accesses) touch them.
DERAND_TABLE_BASE = 0x60000000
RAND_TABLE_BASE = 0x68000000
BITMAP_BASE = 0x6C000000
TABLE_REGION_SIZE = 0x04000000

#: ``_next_checkpoint`` sentinel when checkpointing is off: one integer
#: compare per retired instruction is the entire disabled-path cost.
_NO_CHECKPOINT = 1 << 62

#: Minimum run of back-to-back IL1 fetch fills that counts as a
#: ``cache_fill_burst`` event (naive ILR's scattered layout produces
#: long runs of these; baseline/VCFR essentially never do).
FILL_BURST_THRESHOLD = 8


class CycleCPU:
    """One simulated core executing one program under one flow."""

    def __init__(
        self,
        image: BinaryImage,
        flow,
        config: Optional[MachineConfig] = None,
        events: Optional[EventLog] = None,
        checkpoint_interval: int = 0,
        on_checkpoint: Optional[Callable[[Checkpoint], None]] = None,
        event_fields: Optional[dict] = None,
        memory=None,
    ):
        """``memory`` (a :class:`repro.arch.sharedmem.MemoryPort`) plugs
        this core into a node-level shared L2 + DRAM instead of building
        a private hierarchy; DRC/TLBs/L1s stay private either way."""
        self.config = config or default_config()
        self.image = image
        self.flow = flow
        # Only VCFR pays for RDR lookups; the naive model resolves its
        # mapping at zero cost per the paper's §III methodology.
        flow.record_events = getattr(flow, "uses_drc", False)

        self.mem = SparseMemory()
        info = load_image(image, self.mem)
        self.state = MachineState(self.mem, stack_top=info.stack_top)

        cfg = self.config
        self.memory = memory
        if memory is None:
            self.dram = DRAM(cfg.dram)
            self.l2 = Cache(cfg.l2, "l2", self.dram.access)
            #: next-level port the L1s and the DRC refill path use; with
            #: a shared node it relocates addresses into this tenant's
            #: physical region before the shared L2 sees them.
            self._l2_port = self.l2.access
        else:
            self.dram = memory.dram
            self.l2 = memory.l2
            self._l2_port = memory.access
        self.il1 = Cache(cfg.il1, "il1", self._l2_port)
        self.dl1 = Cache(cfg.dl1, "dl1", self._l2_port)
        self.itlb = TLB(cfg.itlb, "itlb")
        self.dtlb = TLB(cfg.dtlb, "dtlb")
        self.branch = BranchUnit(cfg.branch)
        self.drc = DRC(cfg.drc, self._drc_refill)

        for tlb in (self.itlb, self.dtlb):
            tlb.set_invisible(DERAND_TABLE_BASE, TABLE_REGION_SIZE)
            tlb.set_invisible(RAND_TABLE_BASE, TABLE_REGION_SIZE)
            tlb.set_invisible(BITMAP_BASE, TABLE_REGION_SIZE)

        self.cycle = 0
        #: optional execution tracer (see repro.arch.trace.attach_tracer).
        self.tracer = None

        # -- observability (repro.obs) ---------------------------------
        #: structured event log; the default Null-backed log drops
        #: everything and keeps producers branch-cheap via ``enabled``.
        self.events = events if events is not None else EventLog()
        #: extra fields merged into every emitted record (the harness
        #: sets e.g. ``{"workload": "gcc"}``; the CPU adds ``mode``).
        self.event_fields = dict(event_fields or {})
        self.checkpoint_interval = max(0, checkpoint_interval)
        self.on_checkpoint = on_checkpoint
        self.checkpoints = []
        self._next_checkpoint = _NO_CHECKPOINT
        self._ckpt_icount = 0
        self._ckpt_cycle = 0
        self._ckpt_il1_acc = 0
        self._ckpt_il1_miss = 0
        self._ckpt_drc_lookups = 0
        self._ckpt_drc_misses = 0
        self._ckpt_drc_evictions = 0
        self._run_t0 = 0.0
        # IL1 fetch-fill burst detection (events-enabled runs only).
        self._burst_track = self.events.enabled
        self._fill_streak = 0
        self._fill_streak_pc = 0

        self.event_fields.setdefault(
            "mode", getattr(flow, "name", "unknown")
        )
        self._warmup_icount = 0
        self._warmup_cycle = 0

        self._started = False
        self._finished = False
        self._resume_fetch_pc = 0
        self._line_shift = cfg.il1.line_bytes.bit_length() - 1
        self._page_shift = cfg.itlb.page_bits
        self._last_fetch_line = -1
        self._last_fetch_page = -1
        #: host-side execution strategy (cycle/stat-invariant by contract,
        #: enforced by tests/test_fastpath_equivalence.py).
        self._fastpath = cfg.fastpath
        self._blockcache = BlockCache(
            cfg.block_cache_capacity, cfg.block_max_insts
        )
        #: superblock trace tier (host-side, rides on the fast path);
        #: constructed last so it can close over the fully-built CPU.
        self._tracecache = (
            TraceCache(self) if (cfg.fastpath and cfg.tracepath) else None
        )
        #: counter writeback cell shared with generated trace functions
        #: (cycle, icount, last_page, last_line).
        self._trace_out = [0, 0, 0, 0]
        #: previously-synced tier telemetry (see _sync_metrics).
        self._tier_synced: Dict[str, int] = {}

    # -- DRC refill path -----------------------------------------------------

    def _drc_refill(self, key: int, kind: int) -> int:
        """Fetch an RDR table entry from memory (L2 first, then DRAM).

        Table entries live at deterministic kernel addresses so the L2
        genuinely caches the hot part of the table, as in the paper's
        design ("DRC can share its second level cache with the unified
        L2").
        """
        if kind == KIND_DERAND:
            addr = DERAND_TABLE_BASE + ((key & 0x3FFFFFFF) >> 3) * 8
        else:
            addr = RAND_TABLE_BASE + ((key & 0x3FFFFFFF) >> 2) * 8
        return self._l2_port(addr, False)

    # -- fetch ------------------------------------------------------------------

    def _fetch(self, fetch_pc: int) -> Instruction:
        # Decoded instructions live in the block cache's bounded map so
        # the reference and fast paths share one invalidation domain.
        blockcache = self._blockcache
        inst = blockcache.decoded.get(fetch_pc)
        if inst is None:
            inst = blockcache.decode_one(fetch_pc, self.mem)
        return inst

    # -- code mutation ----------------------------------------------------------

    def invalidate_blocks(self, start: Optional[int] = None,
                          size: int = 0) -> None:
        """Invalidate pre-decoded blocks (and cached decodes).

        With no arguments, everything is dropped — required after any
        randomization-table swap (re-randomization epoch), since blocks
        freeze per-run ``arch_pc_of``/``sequential`` results.  With a
        range, only blocks overlapping ``[start, start + size)`` in
        fetch space go.  Compiled traces bake in the same precomputed
        facts (plus folded table lookups), so they are flushed under
        exactly the same rules.
        """
        if start is None:
            self._blockcache.invalidate_all()
            if self._tracecache is not None:
                self._tracecache.invalidate_all()
        else:
            self._blockcache.invalidate_range(start, size)
            if self._tracecache is not None:
                self._tracecache.invalidate_range(start, size)

    def rewrite_code(self, addr: int, data: bytes) -> None:
        """Patch simulated memory and invalidate affected blocks and
        traces.

        All code-rewriting flows must go through this (or call
        :meth:`invalidate_blocks` themselves): the block and trace
        caches assume text is immutable between explicit invalidations.
        """
        self.mem.write_block(addr, bytes(data))
        self._blockcache.invalidate_range(addr, len(data))
        if self._tracecache is not None:
            self._tracecache.invalidate_range(addr, len(data))

    def switch_in(self, switch_cycles: int) -> None:
        """Charge a context switch to this, the incoming, process: the
        kernel's ``switch_cycles``, and a flush of the DRC and TLBs,
        which held the outgoing process's translations."""
        # Caches keep their lines (physically tagged).  Decoded blocks
        # and traces stay valid: a switch changes neither this
        # process's text nor its RDR tables.
        self.cycle += switch_cycles
        self.drc.flush()
        self.itlb.flush()
        self.dtlb.flush()
        self._last_fetch_line = -1
        self._last_fetch_page = -1

    def _fetch_stall(self, fetch_pc: int, length: int) -> int:
        """Instruction-side stall: IL1 (with prefetch) + iTLB."""
        stall = 0
        page = fetch_pc >> self._page_shift
        if page != self._last_fetch_page:
            self._last_fetch_page = page
            stall += self.itlb.access(fetch_pc)

        line = fetch_pc >> self._line_shift
        if line != self._last_fetch_line:
            self._last_fetch_line = line
            latency = self.il1.access(fetch_pc, False)
            stall += latency - self.config.il1.latency  # hits are pipelined
            if self._burst_track:
                self._note_fetch_fill(latency > self.config.il1.latency,
                                      fetch_pc)
            if self.config.prefetch_il1:
                self.il1.prefetch((line + 1) << self._line_shift)
        # A fetch group that straddles into the next line touches it too.
        end_line = (fetch_pc + length - 1) >> self._line_shift
        if end_line != line and end_line != self._last_fetch_line:
            self._last_fetch_line = end_line
            latency = self.il1.access(end_line << self._line_shift, False)
            stall += latency - self.config.il1.latency
            if self._burst_track:
                self._note_fetch_fill(latency > self.config.il1.latency,
                                      fetch_pc)
            if self.config.prefetch_il1:
                self.il1.prefetch((end_line + 1) << self._line_shift)
        return stall

    def _note_fetch_fill(self, missed: bool, fetch_pc: int) -> None:
        """Track runs of consecutive IL1 fetch fills; a long run is the
        micro-architectural signature of destroyed instruction locality
        (naive ILR), emitted as one ``cache_fill_burst`` record."""
        if missed:
            if not self._fill_streak:
                self._fill_streak_pc = fetch_pc
            self._fill_streak += 1
        elif self._fill_streak:
            if self._fill_streak >= FILL_BURST_THRESHOLD:
                self.events.emit(
                    "cache_fill_burst",
                    length=self._fill_streak,
                    start_pc=self._fill_streak_pc,
                    instructions=self.state.icount,
                    **self.event_fields,
                )
            self._fill_streak = 0

    # -- data side -------------------------------------------------------------------

    def _data_stall(self) -> int:
        state = self.state
        stall = 0
        addr = state.last_load_addr
        if addr is not None:
            stall += self.dtlb.access(addr)
            latency = self.dl1.access(addr, False)
            stall += latency - self.config.dl1.latency
            stall += self.config.load_use_stall
        addr = state.last_store_addr
        if addr is not None:
            stall += self.dtlb.access(addr)
            latency = self.dl1.access(addr, True)
            stall += latency - self.config.dl1.latency  # hits retire via store buffer
        return stall

    # -- DRC event draining -------------------------------------------------------------

    def _drc_stall(self, fetch_waits: bool, overlap: int = 0) -> int:
        """Charge the RDR lookups this instruction triggered.

        ``fetch_waits`` is True when the front end did NOT have a correct
        prediction for the transfer, i.e. fetch is stalled waiting for the
        de-randomized target (paper §IV-D: with prediction running in the
        de-randomized space, a predicted transfer never waits for the
        DRC).  Lookups always update DRC state and statistics; latency is
        only exposed when fetch actually waits — and even then a hit
        overlaps with the pipeline redirect, so only refills stall.
        """
        events = self.flow.events
        if not events:
            return 0
        stall = 0
        hit_latency = self.config.drc.latency
        for kind, key in events:
            if kind == "derand":
                latency = self.drc.lookup(key, KIND_DERAND)
            elif kind == "redirect":
                latency = self.drc.lookup(key, KIND_RAND)
            elif kind == "rand":
                # Return-address randomization on a call: the pushed value
                # is not needed until the matching ret, so the lookup is
                # never on the critical path.
                self.drc.lookup(key, KIND_RAND)
                continue
            else:  # bitmap probe: tiny dedicated cache, fully pipelined
                self.drc.bitmap_probe()
                continue
            if fetch_waits:
                # The refill runs concurrently with the pipeline flush the
                # mispredict already paid for; only the excess is exposed.
                stall += max(0, latency - hit_latency - overlap)
        events.clear()
        return stall

    # -- branch penalties --------------------------------------------------------------------

    def _branch_stall(self, inst: Instruction, kind: int, next_fetch_pc: int,
                      arch_target: int):
        """Front-end penalty for this instruction's control-flow outcome.

        Predictions are made on the *fetch-space* PC (under VCFR that is
        the de-randomized UPC, per §IV-D), so predictor accuracy does not
        depend on the randomization.  Returns ``(penalty, predicted_ok)``.
        """
        branch = self.branch
        pc = inst.addr
        if inst.cc is not None:
            taken = kind == CTRL_JUMP
            return branch.conditional(pc, taken, next_fetch_pc if taken else 0)
        if kind == CTRL_NONE or kind == CTRL_HALT:
            return 0, True
        m = inst.mnemonic
        if m == "call":
            return branch.direct(pc, next_fetch_pc, True, self.state.last_retaddr)
        if m == "jmp" or m == "jmp8":
            return branch.direct(pc, next_fetch_pc, False)
        if m == "calli":
            return branch.indirect(pc, next_fetch_pc, True, self.state.last_retaddr)
        if m == "jmpi":
            return branch.indirect(pc, next_fetch_pc, False)
        if m == "ret":
            return branch.ret(pc, arch_target)
        return 0, True

    # -- main loop ----------------------------------------------------------------------------------

    def run(
        self,
        max_instructions: int = 1_000_000,
        warmup_instructions: int = 0,
    ) -> SimResult:
        """Simulate until program exit or the instruction budget is spent.

        ``warmup_instructions`` executes (and warms caches/predictors) but
        is excluded from the reported statistics.
        """
        self.events.emit(
            "run_start",
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
            checkpoint_interval=self.checkpoint_interval,
            **self.event_fields,
        )
        if warmup_instructions:
            self._ensure_started()
            self._execute_loop(self.state.icount + warmup_instructions)
            self._reset_stats()
        elif not self._started:
            self._reset_stats()
        self._ensure_started()
        finished = self._execute_with_checkpoints(
            self.state.icount + max_instructions
        )
        result = self._result(finished, warmup_instructions)
        self.events.emit(
            "run_end",
            instructions=result.instructions,
            cycles=result.cycles,
            ipc=round(result.ipc, 6),
            il1_miss_rate=round(result.il1_miss_rate, 6),
            drc_miss_rate=round(result.drc_miss_rate, 6),
            finished=result.finished,
            checkpoints=len(result.checkpoints),
            host_seconds=round(time.perf_counter() - self._run_t0, 6),
            tiers=self.tier_stats() if self.events.enabled else None,
            **self.event_fields,
        )
        return result

    def run_slice(self, instructions: int) -> bool:
        """Resumable execution: run up to ``instructions`` more.

        Unlike :meth:`run`, statistics accumulate across slices and the
        program continues from where the previous slice stopped — the
        primitive the time-sharing model (:mod:`repro.arch.context`) is
        built on.  Returns True when the program terminated.
        """
        if not self._started:
            self._reset_stats()
        self._ensure_started()
        return self._execute_loop(self.state.icount + instructions)

    def _ensure_started(self) -> None:
        if not self._started:
            self._resume_fetch_pc = self.flow.initial_fetch_pc()
            self._started = True

    def _execute_with_checkpoints(self, budget: int) -> bool:
        """Run to ``budget``, pausing at checkpoint boundaries.

        Checkpointing costs nothing on the per-instruction path: the
        inner loop's own budget check doubles as the checkpoint trigger
        (each chunk's budget is clipped to the next boundary), so a
        disabled-checkpoint run and an enabled one execute the same
        loop body.
        """
        if not self.checkpoint_interval:
            return self._execute_loop(budget)
        while True:
            finished = self._execute_loop(min(budget, self._next_checkpoint))
            if self.state.icount >= self._next_checkpoint:
                self._take_checkpoint()
            if finished or self.state.icount >= budget:
                return finished

    def _execute_loop(self, budget: int) -> bool:
        """Run until ``state.icount`` reaches ``budget`` or the program
        terminates; returns the termination flag.

        Dispatches to one of two cycle/stat-identical loop bodies: the
        pre-decoded block fast path (default) or the per-instruction
        reference loop (``fastpath=False``).
        """
        if self._fastpath:
            return self._execute_loop_fast(budget)
        return self._execute_loop_ref(budget)

    def _execute_loop_ref(self, budget: int) -> bool:
        """The per-instruction reference pipeline loop.

        This is the semantic ground truth the block fast path is
        differentially tested against; it also executes partial-block
        tails for the fast path when a budget boundary (checkpoint or
        instruction cap) lands inside a block.
        """
        state = self.state
        flow = self.flow
        fetch_pc = self._resume_fetch_pc
        if self._finished:
            return True

        while state.icount < budget:
            inst = self._fetch(fetch_pc)
            state.pc = flow.arch_pc_of(fetch_pc)
            stall = self._fetch_stall(fetch_pc, inst.length)

            try:
                kind, target = execute(inst, state, flow)
            except ExitProgram:
                self._finished = True
                self.cycle += 1
                break

            stall += EXEC_EXTRA.get(inst.mnemonic, 0)
            stall += self._data_stall()

            if kind == CTRL_NONE:
                next_fetch_pc = flow.sequential(inst)
            elif kind == CTRL_HALT:
                self._finished = True
                self.cycle += 1 + stall
                break
            else:
                next_fetch_pc = flow.transfer(target)

            branch_penalty, predicted_ok = self._branch_stall(
                inst, kind, next_fetch_pc, target
            )
            stall += branch_penalty
            stall += self._drc_stall(
                fetch_waits=not predicted_ok, overlap=branch_penalty
            )

            if self.tracer is not None:
                self.tracer.record(
                    inst, state.pc, fetch_pc, kind != CTRL_NONE, target
                )

            self.cycle += 1 + stall
            fetch_pc = next_fetch_pc

        self._resume_fetch_pc = fetch_pc
        return self._finished

    def _execute_loop_fast(self, budget: int) -> bool:
        """The basic-block fast path.

        Replays pre-decoded op tuples (:mod:`repro.arch.blockcache`) and
        must stay cycle- and stat-identical to :meth:`_execute_loop_ref`
        — any timing change must land in both bodies.  The interior of
        a block only skips work the reference loop performs vacuously
        there: the branch unit returns a stat-free ``(0, True)`` for
        non-control instructions, and the DRC drain is a no-op without
        pending flow events (checked per instruction, since VCFR loads
        from marked stack slots emit events mid-block).  A block that
        does not fit in the remaining budget is delegated whole to the
        reference loop, which stops at exactly the boundary — so
        checkpoint windows clip identically.

        On top of the block tier sits the superblock trace tier
        (:mod:`repro.arch.tracecache`): the loop head dispatches hot
        fetch PCs to compiled traces, and the per-block epilogue feeds
        the trace profiler/recorder.  Traces are only entered when they
        fit the remaining budget whole and return control at guard
        side-exits, so the block path (and through it the reference
        loop) remains the single source of truth for every boundary.
        """
        if self._finished:
            return True
        state = self.state
        flow = self.flow
        flow_events = flow.events
        transfer = flow.transfer
        sequential = flow.sequential
        blockcache = self._blockcache
        blocks = blockcache.blocks
        build = blockcache.build
        mem = self.mem
        page_shift = self._page_shift
        line_shift = self._line_shift
        cfg = self.config
        il1_access = self.il1.access
        il1_prefetch = self.il1.prefetch
        il1_latency = cfg.il1.latency
        do_prefetch = cfg.prefetch_il1
        itlb_access = self.itlb.access
        dtlb_access = self.dtlb.access
        dl1_access = self.dl1.access
        dl1_latency = cfg.dl1.latency
        load_use = cfg.load_use_stall
        burst = self._burst_track
        note_fill = self._note_fetch_fill
        drc_stall = self._drc_stall
        branch_stall = self._branch_stall
        tracer = self.tracer
        tracecache = self._tracecache
        if tracecache is not None:
            trace_get = tracecache.traces.get
            on_block = tracecache.on_block
            out = self._trace_out
        else:
            trace_get = None
            on_block = None
            out = None

        fetch_pc = self._resume_fetch_pc
        cycle = self.cycle
        last_page = self._last_fetch_page
        last_line = self._last_fetch_line
        icount = state.icount
        bexec = 0
        tail = False
        try:
            while icount < budget:
                if trace_get is not None:
                    trace = trace_get(fetch_pc)
                    if trace is not None and icount + trace.n <= budget:
                        trace.entries += 1
                        try:
                            status, fetch_pc = trace.fn(
                                cycle, icount, budget, last_page,
                                last_line, tracer, out,
                            )
                        finally:
                            # The generated function settles counters
                            # through ``out`` in its own finally, so
                            # faults propagate with them written back.
                            cycle = out[0]
                            icount = out[1]
                            last_page = out[2]
                            last_line = out[3]
                        if status:
                            self._finished = True
                            break
                        continue
                block = blocks.get(fetch_pc)
                if block is None:
                    block = build(fetch_pc, mem, flow, page_shift,
                                  line_shift)
                if icount + block.n > budget:
                    # Partial block: let the reference loop retire the
                    # head of it up to the exact budget boundary.
                    tail = True
                    break

                halted = False
                for op in block.interior:
                    (handler, inst, fpc, arch_pc, extra, page, line, pf1,
                     cross, addr2, line2, pf2, _seq, touch, is_int) = op
                    state.pc = arch_pc
                    stall = extra
                    if page != last_page:
                        last_page = page
                        stall += itlb_access(fpc)
                    if line != last_line:
                        last_line = line
                        latency = il1_access(fpc, False)
                        stall += latency - il1_latency
                        if burst:
                            note_fill(latency > il1_latency, fpc)
                        if do_prefetch:
                            il1_prefetch(pf1)
                    if cross and line2 != last_line:
                        last_line = line2
                        latency = il1_access(addr2, False)
                        stall += latency - il1_latency
                        if burst:
                            note_fill(latency > il1_latency, fpc)
                        if do_prefetch:
                            il1_prefetch(pf2)

                    icount += 1
                    if burst or is_int:
                        state.icount = icount
                    if touch:
                        state.last_load_addr = None
                        state.last_store_addr = None
                        try:
                            handler(inst, state, flow)
                        except ExitProgram:
                            self._finished = True
                            cycle += 1
                            fetch_pc = fpc
                            halted = True
                            break
                        addr = state.last_load_addr
                        if addr is not None:
                            stall += dtlb_access(addr)
                            stall += dl1_access(addr, False) - dl1_latency
                            stall += load_use
                        addr = state.last_store_addr
                        if addr is not None:
                            stall += dtlb_access(addr)
                            stall += dl1_access(addr, True) - dl1_latency
                    else:
                        try:
                            handler(inst, state, flow)
                        except ExitProgram:
                            self._finished = True
                            cycle += 1
                            fetch_pc = fpc
                            halted = True
                            break

                    if flow_events:
                        drc_stall(False, 0)
                    if tracer is not None:
                        tracer.record(inst, arch_pc, fpc, False, 0)
                    cycle += 1 + stall
                if halted:
                    break

                (handler, inst, fpc, arch_pc, extra, page, line, pf1,
                 cross, addr2, line2, pf2, seq, touch, is_int) = block.term
                state.pc = arch_pc
                stall = extra
                if page != last_page:
                    last_page = page
                    stall += itlb_access(fpc)
                if line != last_line:
                    last_line = line
                    latency = il1_access(fpc, False)
                    stall += latency - il1_latency
                    if burst:
                        note_fill(latency > il1_latency, fpc)
                    if do_prefetch:
                        il1_prefetch(pf1)
                if cross and line2 != last_line:
                    last_line = line2
                    latency = il1_access(addr2, False)
                    stall += latency - il1_latency
                    if burst:
                        note_fill(latency > il1_latency, fpc)
                    if do_prefetch:
                        il1_prefetch(pf2)

                icount += 1
                if burst or is_int:
                    state.icount = icount
                if touch:
                    state.last_load_addr = None
                    state.last_store_addr = None
                try:
                    kind, target = handler(inst, state, flow)
                except ExitProgram:
                    self._finished = True
                    cycle += 1
                    fetch_pc = fpc
                    break

                if touch:
                    addr = state.last_load_addr
                    if addr is not None:
                        stall += dtlb_access(addr)
                        stall += dl1_access(addr, False) - dl1_latency
                        stall += load_use
                    addr = state.last_store_addr
                    if addr is not None:
                        stall += dtlb_access(addr)
                        stall += dl1_access(addr, True) - dl1_latency

                if kind == CTRL_NONE:
                    next_fetch_pc = seq if seq is not None else \
                        sequential(inst)
                elif kind == CTRL_HALT:
                    self._finished = True
                    cycle += 1 + stall
                    fetch_pc = fpc
                    break
                else:
                    next_fetch_pc = transfer(target)

                branch_penalty, predicted_ok = branch_stall(
                    inst, kind, next_fetch_pc, target
                )
                stall += branch_penalty
                if flow_events:
                    stall += drc_stall(not predicted_ok, branch_penalty)

                if tracer is not None:
                    tracer.record(inst, arch_pc, fpc, kind != CTRL_NONE,
                                  target)

                cycle += 1 + stall
                bexec += 1
                if on_block is not None:
                    on_block(block, next_fetch_pc)
                fetch_pc = next_fetch_pc
        finally:
            # Exceptions (security faults, decode errors, visibility
            # faults) propagate with counters written back, exactly as
            # the reference loop leaves them; ``_resume_fetch_pc`` is
            # deliberately not updated on that path (reference parity).
            # ``state.icount`` is synced lazily inside the loop (only
            # syscalls and burst tracking observe it mid-run), so it is
            # settled here for checkpoints, results and fault handlers.
            state.icount = icount
            self.cycle = cycle
            self._last_fetch_page = last_page
            self._last_fetch_line = last_line
            blockcache.execs += bexec
        self._resume_fetch_pc = fetch_pc
        if tail:
            return self._execute_loop_ref(budget)
        return self._finished

    # -- progress checkpoints ------------------------------------------------------------------

    def _arm_checkpoints(self) -> None:
        """(Re)base the checkpoint windows on the current counters."""
        if self.checkpoint_interval:
            self._next_checkpoint = (
                self.state.icount + self.checkpoint_interval
            )
        else:
            self._next_checkpoint = _NO_CHECKPOINT
        self.checkpoints = []
        self._ckpt_icount = self.state.icount
        self._ckpt_cycle = self.cycle
        il1 = self.il1.stats
        self._ckpt_il1_acc = il1.accesses
        self._ckpt_il1_miss = il1.misses
        drc = self.drc.stats
        self._ckpt_drc_lookups = drc.lookups
        self._ckpt_drc_misses = drc.misses
        self._ckpt_drc_evictions = drc.evictions
        self._run_t0 = time.perf_counter()

    def _take_checkpoint(self) -> None:
        """Sample the window since the previous checkpoint."""
        icount = self.state.icount
        delta_instr = icount - self._ckpt_icount
        if delta_instr <= 0:
            self._next_checkpoint = icount + (
                self.checkpoint_interval or _NO_CHECKPOINT
            )
            return
        il1 = self.il1.stats
        drc = self.drc.stats
        delta_cycle = self.cycle - self._ckpt_cycle
        checkpoint = Checkpoint(
            instructions=icount - self._warmup_icount,
            cycles=self.cycle - self._warmup_cycle,
            ipc=ratio(delta_instr, delta_cycle),
            il1_miss_rate=ratio(il1.misses - self._ckpt_il1_miss,
                                il1.accesses - self._ckpt_il1_acc),
            drc_miss_rate=ratio(drc.misses - self._ckpt_drc_misses,
                                drc.lookups - self._ckpt_drc_lookups),
            host_seconds=time.perf_counter() - self._run_t0,
        )
        self.checkpoints.append(checkpoint)
        if self.events.enabled:
            self.events.emit(
                "checkpoint", **checkpoint.as_dict(), **self.event_fields
            )
            evictions = drc.evictions - self._ckpt_drc_evictions
            if evictions:
                self.events.emit(
                    "drc_evict",
                    evictions=evictions,
                    lookups=drc.lookups - self._ckpt_drc_lookups,
                    misses=drc.misses - self._ckpt_drc_misses,
                    instructions=checkpoint.instructions,
                    **self.event_fields,
                )
        if self.on_checkpoint is not None:
            self.on_checkpoint(checkpoint)
        self._ckpt_icount = icount
        self._ckpt_cycle = self.cycle
        self._ckpt_il1_acc = il1.accesses
        self._ckpt_il1_miss = il1.misses
        self._ckpt_drc_lookups = drc.lookups
        self._ckpt_drc_misses = drc.misses
        self._ckpt_drc_evictions = drc.evictions
        self._next_checkpoint = icount + (
            self.checkpoint_interval or _NO_CHECKPOINT
        )

    # -- bookkeeping ----------------------------------------------------------------------------

    def _reset_stats(self) -> None:
        """Zero all counters (cache/predictor contents are preserved)."""
        self._warmup_icount = self.state.icount
        self._warmup_cycle = self.cycle
        # Cache stats reset in place: compiled trace code closes over
        # the il1/dl1 CacheStats objects, so rebinding them would strand
        # those counters (see repro.arch.tracecache).
        self.il1.stats.reset()
        self.dl1.stats.reset()
        self.l2.stats.reset()
        self.dram.stats = DRAMStats()
        self.itlb.stats = TLBStats()
        self.dtlb.stats = TLBStats()
        self.branch.stats = BranchStats()
        self.drc.stats = DRCStats()
        self._arm_checkpoints()

    def _result(self, finished: bool, warmup: int) -> SimResult:
        # Close out observability state: a final partial-window sample
        # (so short runs still report trailing progress) and any fill
        # streak still open when the program stopped.
        if self.checkpoint_interval and self.state.icount > self._ckpt_icount:
            self._take_checkpoint()
        if self._burst_track and self._fill_streak:
            self._note_fetch_fill(False, 0)

        state = self.state
        instructions = state.icount - self._warmup_icount
        cycles = self.cycle - self._warmup_cycle

        result = SimResult(
            mode=getattr(self.flow, "name", "unknown"),
            cycles=cycles,
            instructions=instructions,
            warmup_instructions=warmup,
            exit_code=state.exit_code,
            finished=finished,
            output=state.out,
            il1=self.il1.stats.snapshot(),
            dl1=self.dl1.stats.snapshot(),
            l2=self.l2.stats.snapshot(),
            itlb_misses=self.itlb.stats.misses,
            dtlb_misses=self.dtlb.stats.misses,
            dram_accesses=self.dram.stats.accesses,
            dram_row_hit_rate=self.dram.stats.row_hit_rate,
            cond_branches=self.branch.stats.cond_branches,
            cond_mispredicts=self.branch.stats.cond_mispredicts,
            ras_mispredicts=self.branch.stats.ras_mispredicts,
            indirect_mispredicts=self.branch.stats.indirect_mispredicts,
            drc_lookups=self.drc.stats.lookups,
            drc_misses=self.drc.stats.misses,
            drc_bitmap_probes=self.drc.stats.bitmap_probes,
            checkpoints=list(self.checkpoints),
        )
        result.energy = compute_energy(
            self._activity(result), EnergyParams(), self.config.drc.entries
        )
        self._sync_metrics(result)
        return result

    def tier_stats(self) -> Dict[str, Dict[str, int]]:
        """Host-side execution-tier telemetry: block-cache and (when
        the trace tier is on) trace-cache counters.  These are host
        strategy observables — never part of simulated statistics."""
        stats = {"blocks": self._blockcache.stats()}
        if self._tracecache is not None:
            stats["traces"] = self._tracecache.stats()
        return stats

    #: tier_stats keys that are point-in-time sizes (synced as gauges);
    #: everything else is monotonic and synced as counter deltas.
    _TIER_GAUGES = frozenset(("blocks", "decoded", "traces",
                              "live_entries"))

    def _sync_tier_metrics(self, registry) -> None:
        for tier, tier_stats in self.tier_stats().items():
            for key, value in tier_stats.items():
                name = "sim.tier.%s.%s" % (tier, key)
                if key in self._TIER_GAUGES:
                    registry.gauge(name).set(value)
                    continue
                delta = value - self._tier_synced.get(name, 0)
                self._tier_synced[name] = value
                if delta > 0:
                    registry.counter(name).inc(delta)

    def _sync_metrics(self, result: SimResult) -> None:
        """Fold the finished run into the process-global metrics
        registry (end-of-run only, so the hot loop never touches it)."""
        registry = get_registry()
        if not registry.enabled:
            return
        self._sync_tier_metrics(registry)
        mode = result.mode
        registry.counter("sim.runs").inc()
        registry.counter("sim.instructions").inc(result.instructions)
        registry.counter("sim.cycles").inc(result.cycles)
        registry.counter("sim.%s.instructions" % mode).inc(result.instructions)
        registry.counter("sim.%s.cycles" % mode).inc(result.cycles)
        if result.drc_lookups:
            registry.counter("sim.drc.lookups").inc(result.drc_lookups)
            registry.counter("sim.drc.misses").inc(result.drc_misses)
        registry.gauge("sim.%s.last_ipc" % mode).set(result.ipc)
        histogram = registry.histogram(
            "sim.checkpoint.ipc", bounds=(0.2, 0.4, 0.6, 0.8, 1.0)
        )
        for checkpoint in result.checkpoints:
            histogram.observe(checkpoint.ipc)

    def _activity(self, result: SimResult) -> Dict[str, int]:
        """Activity counters for the power model."""
        return {
            "il1": self.il1.stats.accesses + self.il1.stats.prefetches,
            "dl1": self.dl1.stats.accesses,
            "l2": self.l2.stats.accesses,
            "dram": self.dram.stats.accesses,
            "itlb": self.itlb.stats.accesses,
            "dtlb": self.dtlb.stats.accesses,
            "btb": self.branch.stats.btb_lookups,
            "gshare": self.branch.stats.cond_branches,
            "ras": self.branch.stats.ras_pushes + self.branch.stats.ras_pops,
            "decode": result.instructions,
            "fetch": result.instructions,
            "alu": result.instructions,
            "regfile": 2 * result.instructions,
            "drc": self.drc.stats.lookups,
            "drc_bitmap": self.drc.stats.bitmap_probes,
        }


def simulate(
    image: BinaryImage,
    flow,
    config: Optional[MachineConfig] = None,
    max_instructions: int = 1_000_000,
    warmup_instructions: int = 0,
    events: Optional[EventLog] = None,
    checkpoint_interval: int = 0,
    on_checkpoint: Optional[Callable[[Checkpoint], None]] = None,
    event_fields: Optional[dict] = None,
) -> SimResult:
    """One-shot helper: build a :class:`CycleCPU` and run it."""
    cpu = CycleCPU(
        image,
        flow,
        config,
        events=events,
        checkpoint_interval=checkpoint_interval,
        on_checkpoint=on_checkpoint,
        event_fields=event_fields,
    )
    return cpu.run(max_instructions, warmup_instructions)
