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

import functools
import time
from typing import Dict, Optional

from ..binary import BinaryImage, load_image
from ..isa.instruction import Instruction
from ..obs.events import EventLog
from .blockcache import BlockCache
from .branch import BranchUnit
from .cache import Cache
from .config import MachineConfig, default_config
from .drc import DRC, DRCStats, KIND_DERAND
from .dram import DRAM, DRAMStats
from .executor import CTRL_HALT, CTRL_NONE, EXEC_EXTRA, execute
from .memory import SparseMemory
from .power import EnergyParams, compute_energy
from .simstats import SimResult, ratio
from .state import ExitProgram, MachineState
from .tlb import TLB
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


def _table_refill(port, key: int, kind: int) -> int:
    """Fetch an RDR table entry through ``port`` (the L2 first, then
    DRAM): the DRC's refill, bound to a CPU's L2 port.

    Table entries live at deterministic kernel addresses so the L2
    genuinely caches the hot part of the table, as in the paper's
    design ("DRC can share its second level cache with the unified
    L2").
    """
    if kind == KIND_DERAND:
        addr = DERAND_TABLE_BASE + ((key & 0x3FFFFFFF) >> 3) * 8
    else:
        addr = RAND_TABLE_BASE + ((key & 0x3FFFFFFF) >> 2) * 8
    return port(addr, False)


class CycleCPU:
    """One simulated core executing one program under one flow.

    The CPU owns its parts and nothing it builds refers back to it (the
    DRC refills through the L2 port, traces close over the parts), so a
    finished CPU is freed as soon as its last reference goes.
    """

    def __init__(
        self,
        image: BinaryImage,
        flow,
        config: Optional[MachineConfig] = None,
        events: Optional[EventLog] = None,
        checkpoint_interval: int = 0,
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
        self.drc = DRC(cfg.drc, functools.partial(_table_refill,
                                                  self._l2_port))

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
        self._arm_checkpoints()

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
        #: constructed last so it can close over the fully-built parts.
        self._tracecache = (
            TraceCache(self) if (cfg.fastpath and cfg.tracepath) else None
        )
        #: counter writeback cell shared with generated trace functions
        #: (cycle, icount, last_page, last_line).
        self._trace_out = [0, 0, 0, 0]

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
            if self.config.prefetch_il1:
                self.il1.prefetch((line + 1) << self._line_shift)
        # A fetch group that straddles into the next line touches it too.
        end_line = (fetch_pc + length - 1) >> self._line_shift
        if end_line != line and end_line != self._last_fetch_line:
            self._last_fetch_line = end_line
            latency = self.il1.access(end_line << self._line_shift, False)
            stall += latency - self.config.il1.latency
            if self.config.prefetch_il1:
                self.il1.prefetch((end_line + 1) << self._line_shift)
        return stall

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
        self.log_run_start(max_instructions, warmup_instructions)
        if warmup_instructions:
            self._ensure_started()
            self._execute_loop(self.state.icount + warmup_instructions)
            self._reset_stats()
        elif not self._started:
            self._reset_stats()
        self._ensure_started()
        self._execute_with_checkpoints(self.state.icount + max_instructions)
        result = self.result(warmup_instructions)
        self.log_run_end(result)
        return result

    def log_run_start(self, max_instructions: int,
                      warmup_instructions: int = 0) -> None:
        """Log the ``run_start`` record of a run (or of a series of
        :meth:`run_slice` calls) about to start."""
        self.events.emit(
            "run_start",
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
            checkpoint_interval=self.checkpoint_interval,
            **self.event_fields,
        )

    def log_run_end(self, result: SimResult) -> None:
        """Log the ``run_end`` record of ``result``, this CPU's
        :meth:`result`."""
        self.events.emit(
            "run_end",
            instructions=result.instructions,
            cycles=result.cycles,
            ipc=round(result.ipc, 6),
            il1_miss_rate=round(result.il1_miss_rate, 6),
            drc_miss_rate=round(result.drc_miss_rate, 6),
            finished=result.finished,
            checkpoints=self._checkpoints_taken,
            host_seconds=round(time.perf_counter() - self._run_t0, 6),
            tiers=self.tier_stats() if self.events.enabled else None,
            **self.event_fields,
        )

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
        """The per-instruction reference pipeline loop (``fastpath=False``).

        This is the semantic ground truth the block and trace tiers are
        differentially tested against; neither ever calls it.
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
                if self.tracer is not None:
                    self.tracer.record(inst, state.pc, fetch_pc, False, 0)
                break

            stall += EXEC_EXTRA.get(inst.mnemonic, 0)
            stall += self._data_stall()

            if kind == CTRL_NONE:
                next_fetch_pc = flow.sequential(inst)
            elif kind == CTRL_HALT:
                self._finished = True
                self.cycle += 1 + stall
                if self.tracer is not None:
                    self.tracer.record(inst, state.pc, fetch_pc, False, 0)
                break
            else:
                next_fetch_pc = flow.transfer(target)

            branch_penalty, predicted_ok = self.branch.resolve(
                inst, kind, next_fetch_pc, target, state
            )
            stall += branch_penalty
            stall += self.drc.drain(
                flow.events, not predicted_ok, branch_penalty
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
        — any timing change must land in both bodies.  Every op of a
        block runs through one body; the block's last op then leaves it
        for the control tail (next fetch PC, branch unit, DRC drain,
        block epilogue).  The other ops skip only work the reference
        loop performs vacuously for them: the branch unit returns a
        stat-free ``(0, True)`` for non-control instructions, and the
        DRC drain of a correctly predicted instruction never stalls (it
        still runs per op, since VCFR loads from marked stack slots
        queue lookups mid-block).  A block that crosses the budget runs
        its ops up to the boundary, all of them interior, and the next
        call resumes at the last one's static fall-through, so
        checkpoint windows clip exactly where the reference loop's do.

        On top of the block tier sits the superblock trace tier
        (:mod:`repro.arch.tracecache`): the loop head dispatches hot
        fetch PCs to compiled traces, and the per-block epilogue feeds
        the trace profiler/recorder.  Traces are only entered when they
        fit the remaining budget whole and return control at guard
        side-exits, so the block path remains the single source of truth
        for every boundary.
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
        drc_drain = self.drc.drain
        resolve = self.branch.resolve
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
                ops = block.ops
                last = ops[-1]
                if icount + block.n > budget:
                    # The budget cuts the block before its last op: run
                    # the interior ops up to it, and resume after them.
                    ops = ops[:budget - icount]
                    fetch_pc = ops[-1][12]

                for op in ops:
                    (handler, inst, fpc, arch_pc, extra, page, line, pf1,
                     cross, addr2, line2, pf2, seq, touch, is_int) = op
                    state.pc = arch_pc
                    stall = extra
                    if page != last_page:
                        last_page = page
                        stall += itlb_access(fpc)
                    if line != last_line:
                        last_line = line
                        stall += il1_access(fpc, False) - il1_latency
                        if do_prefetch:
                            il1_prefetch(pf1)
                    if cross and line2 != last_line:
                        last_line = line2
                        stall += il1_access(addr2, False) - il1_latency
                        if do_prefetch:
                            il1_prefetch(pf2)

                    icount += 1
                    if is_int:
                        state.icount = icount
                    if touch:
                        state.last_load_addr = None
                        state.last_store_addr = None
                        kind, target = handler(inst, state, flow)
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
                        kind, target = handler(inst, state, flow)

                    if op is last:
                        break
                    if flow_events:
                        drc_drain(flow_events, False, 0)
                    if tracer is not None:
                        tracer.record(inst, arch_pc, fpc, False, 0)
                    cycle += 1 + stall
                else:
                    # Cut at the budget: ``fetch_pc`` is set above.
                    break

                if kind == CTRL_NONE:
                    next_fetch_pc = seq if seq is not None else \
                        sequential(inst)
                elif kind == CTRL_HALT:
                    self._finished = True
                    cycle += 1 + stall
                    fetch_pc = fpc
                    if tracer is not None:
                        tracer.record(inst, arch_pc, fpc, False, 0)
                    break
                else:
                    next_fetch_pc = transfer(target)

                branch_penalty, predicted_ok = resolve(
                    inst, kind, next_fetch_pc, target, state
                )
                stall += branch_penalty
                if flow_events:
                    stall += drc_drain(flow_events, not predicted_ok,
                                       branch_penalty)

                if tracer is not None:
                    tracer.record(inst, arch_pc, fpc, kind != CTRL_NONE,
                                  target)

                cycle += 1 + stall
                bexec += 1
                if on_block is not None:
                    on_block(block, next_fetch_pc)
                fetch_pc = next_fetch_pc
        except ExitProgram:
            # An exiting ``int`` of a block op (traces catch their own):
            # it retires in a bare cycle, its stalls dropped, as in the
            # reference loop.
            self._finished = True
            cycle += 1
            fetch_pc = fpc
            if tracer is not None:
                tracer.record(inst, arch_pc, fpc, False, 0)
        finally:
            # Other exceptions (security faults, decode errors, visibility
            # faults) propagate with counters written back, exactly as
            # the reference loop leaves them; ``_resume_fetch_pc`` is
            # deliberately not updated on that path (reference parity).
            # ``state.icount`` is synced lazily inside the loop (only
            # syscalls observe it mid-run), so it is settled here for
            # checkpoints, results and fault handlers.
            state.icount = icount
            self.cycle = cycle
            self._last_fetch_page = last_page
            self._last_fetch_line = last_line
            blockcache.execs += bexec
        self._resume_fetch_pc = fetch_pc
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
        self._window = self._window_counters()
        self._checkpoints_taken = 0
        self._run_t0 = time.perf_counter()

    def _window_counters(self) -> tuple:
        """The counters a checkpoint window spans: retired instructions,
        cycles, IL1 accesses and misses, DRC lookups, misses and
        evictions."""
        il1 = self.il1.stats
        drc = self.drc.stats
        return (self.state.icount, self.cycle, il1.accesses, il1.misses,
                drc.lookups, drc.misses, drc.evictions)

    def _take_checkpoint(self) -> None:
        """Log the window since the previous checkpoint: a ``checkpoint``
        record, and a ``drc_evict`` record when the DRC evicted."""
        start, now = self._window, self._window_counters()
        self._next_checkpoint = now[0] + (
            self.checkpoint_interval or _NO_CHECKPOINT
        )
        if now[0] <= start[0]:
            return
        self._window = now
        self._checkpoints_taken += 1
        if not self.events.enabled:
            return
        (instructions, cycles, il1_accesses, il1_misses,
         lookups, misses, evictions) = (b - a for a, b in zip(start, now))
        retired = now[0] - self._warmup_icount
        self.events.emit(
            "checkpoint",
            instructions=retired,
            cycles=now[1] - self._warmup_cycle,
            ipc=ratio(instructions, cycles),
            il1_miss_rate=ratio(il1_misses, il1_accesses),
            drc_miss_rate=ratio(misses, lookups),
            **self.event_fields,
        )
        if evictions:
            self.events.emit(
                "drc_evict",
                evictions=evictions,
                lookups=lookups,
                misses=misses,
                instructions=retired,
                **self.event_fields,
            )

    # -- bookkeeping ----------------------------------------------------------------------------

    def _reset_stats(self) -> None:
        """Zero all counters (cache/predictor contents are preserved)."""
        self._warmup_icount = self.state.icount
        self._warmup_cycle = self.cycle
        # Cache, TLB and branch stats reset in place: compiled trace
        # code closes over those objects, so rebinding them would strand
        # its counters (see repro.arch.tracecache).
        self.il1.stats.reset()
        self.dl1.stats.reset()
        self.l2.stats.reset()
        self.itlb.stats.reset()
        self.dtlb.stats.reset()
        self.branch.stats.reset()
        self.dram.stats = DRAMStats()
        self.drc.stats = DRCStats()
        self._arm_checkpoints()

    def result(self, warmup_instructions: int = 0) -> SimResult:
        """The run's statistics so far, as :meth:`run` reports them;
        callers that drive :meth:`run_slice` read their result here.
        ``warmup_instructions`` is only recorded in the result."""
        # Close out observability state: a final partial-window sample
        # (none when the window is empty), so short runs still report
        # trailing progress.
        if self.checkpoint_interval:
            self._take_checkpoint()

        state = self.state
        instructions = state.icount - self._warmup_icount
        cycles = self.cycle - self._warmup_cycle

        result = SimResult(
            mode=getattr(self.flow, "name", "unknown"),
            cycles=cycles,
            instructions=instructions,
            warmup_instructions=warmup_instructions,
            exit_code=state.exit_code,
            finished=self._finished,
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
        )
        result.energy = compute_energy(
            self._activity(result), EnergyParams(), self.config.drc.entries
        )
        return result

    def tier_stats(self) -> Dict[str, Dict[str, int]]:
        """Host-side execution-tier telemetry: block-cache and (when
        the trace tier is on) trace-cache counters.  These are host
        strategy observables — never part of simulated statistics."""
        stats = {"blocks": self._blockcache.stats()}
        if self._tracecache is not None:
            stats["traces"] = self._tracecache.stats()
        return stats

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
    event_fields: Optional[dict] = None,
) -> SimResult:
    """One-shot helper: build a :class:`CycleCPU` and run it."""
    cpu = CycleCPU(
        image,
        flow,
        config,
        events=events,
        checkpoint_interval=checkpoint_interval,
        event_fields=event_fields,
    )
    return cpu.run(max_instructions, warmup_instructions)
