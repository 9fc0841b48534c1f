"""Superblock trace tier: hot loops compiled to Python.

The block fast path (:mod:`repro.arch.blockcache`) removed per-
instruction decode and translation, but still pays, on every retired
instruction, the op-tuple unpack, the dynamic page/line compares, the
handler indirection, and per-block dict dispatch.  This module removes
those for steady-state code with the standard Python-JIT idiom: it
counts block executions in ``_execute_loop_fast``, records the block
sequence that follows a hot leader across its observed (predicted)
branch directions, and compiles the recording into a specialized
Python function via source generation + ``exec``.

Selection is loop-only, as in TraceMonkey (Gal et al., PLDI 2009): a
recording is compiled only when it closes back on its *anchor* (the
block where recording started), and the compiled trace loops in place
until a guard fails.  A recording that revisits another member block
or reaches ``trace_max_blocks``/``trace_max_insts`` is *rejected* and
its anchor blacklisted until the next invalidation.  ``compile()``
costs 6.5-9 us per generated source line (shared 2-vCPU x86-64 host)
and a trace has about 35 lines per instruction (34.6 on the perfbench
``sim_hot`` programs, 35.0 on ``sim_branchy``'s), so a trace must retire
hundreds of times its own length to pay for itself.  On gcc, xalan,
sjeng and bzip2, looping traces retired 1,700-2,200 instructions per
ms of compile, linear ones cut at an inner cycle 240-340 and those cut
at a cap about 30; the linear ones made those runs slower than the
block tier alone.

A process compiles each distinct trace source once: the code goes into
a bounded process-wide cache keyed by the source's digest, and every
later recording that renders the same source (another ``CycleCPU`` on
the same image and mode, in a repeat run or at another DRC size, which
no source bakes in) rebuilds its code object from there for about 4% of
the cost of ``compile()``.  The source is still rendered for every
recording.  Sharing is sound because generated code reaches every
per-CPU object through ``__make(C)``, and the source bakes in only
values fixed by the image, the flow's tables and the config.  The first
compile of each distinct trace is still paid in full, once per process,
which is why loop-only selection stands.  :func:`clear_code_cache`
restores a cold start.

The generated function is straight-line code rendered from the shape
templates of :mod:`repro.arch.executor` — the block tier's handlers
come from the same table — with the instruction fields baked in as
literals: no tuple unpack, no dispatch, flag algebra and stack traffic
inlined, fetch-page/line checks elided wherever the previous
instruction in the trace pins their value, and the flow traits
(baseline vs. randomized, DRC event recording on/off) specialized out
at compile time.  It calls no reference handler: an op whose shape has
no template raises :class:`TraceCompileError`, and the one such
non-terminal shape, ``imul``'s store form, faults before its block
completes, so no recording holds it.  The timing models' common hit
cases run inline, from source each model renders next to the method it
mirrors (the ``*_src`` methods of :mod:`~repro.arch.cache`,
:mod:`~repro.arch.tlb` and :mod:`~repro.arch.branch`, and the word
access of :mod:`~repro.arch.memory` in the shape templates): the
IL1/DL1 MRU way, an ITLB hit on a visible fetch page, a DTLB hit, a
correctly predicted conditional branch (gshare, and the MRU BTB way
when taken) and a page-local word read or write.  Anything else calls
the method, which does its own accounting; the reference loop always
calls them.  A *guard* at every intra-trace branch whose outcome is
dynamic (conditional direction, indirect/return target) compares the
actual next fetch PC against the recorded one and side-exits to the
block path on mismatch — after charging the instruction's full cycle
cost, so a bailout is correctness-neutral.  Direct transfers need no
guard: between explicit invalidations, ``flow.transfer`` of a
constant target is a pure function of the randomization tables.

Steady state
------------

Naive ILR spreads a loop's instructions over separate IL1 lines and
often separate pages, so each traced instruction probes the ITLB, the
IL1 and the next-line prefetcher, and in a hot loop every probe hits
and leaves both models as it found them.  A looping trace compares
``il1.misses + il1.prefetches + itlb.misses`` at two passes of its back
edge: once an iteration entered from the back edge filled nothing,
every later iteration of that call skips its fetch probes, behind one
``if not steady:`` per op that probes.  Three invariants make that
exact:

* the IL1 and the ITLB are touched only by the fetch side
  (``CycleCPU._fetch_stall``, the block loop and traces): DRC refills
  and DL1 misses go to the L2, and ``switch_in``'s ITLB flush and
  ``_reset_stats`` run outside traces;
* a hit on either model adds no fetch stall: ``Cache.access`` returns
  ``latency`` and ``TLB.access`` returns 0;
* between two passes of the back edge a trace follows one path (its
  guards enforce it), so the fetch probes of the second and later
  iterations are static, the first op's included: at the loop head the
  last fetch page and line are the last op's.

So an all-hit iteration leaves the IL1's LRU order and touched bits,
the ITLB's order and ``TLB.mru`` at a fixpoint, and repeating it only
adds to ``accesses`` and ``prefetch_hits``.  Non-MRU hits qualify; the
first iteration does not, since it is entered from the block path with
any last line.  Every exit (the loop-head budget check, a guard bail,
an exiting ``int``, a fault) runs the trace's ``finally``, which
settles: it adds the counters of the whole steady iterations, then
replays the fetch accesses of the cut one through ``Cache.access``,
``Cache.prefetch`` and ``TLB.access``, all hits, so that the LRU
order, the counters and the last fetch page and line end where the
reference loop leaves them.  The settle reads how far the cut
iteration got from ``st.pc``, which every op writes first, so a
recording whose arch pcs repeat is rendered without the steady path.
``stats()["steady"]`` counts the iterations run settled.

Correctness contract
--------------------

* Cycle- and statistics-exact against the reference interpreter, by the
  same differential contract as the block tier
  (tests/test_fastpath_equivalence.py, the ``repro.qa`` oracle, and a
  hypothesis property suite drive all tiers and compare bit-for-bit).
* Every baked-in value is a pure function of the program image and the
  flow's randomization tables.  Both are static between explicit
  invalidations: :meth:`CycleCPU.rewrite_code` and
  :meth:`CycleCPU.invalidate_blocks` flush traces exactly like blocks
  (re-randomization epochs go through ``invalidate_blocks()``), and any
  invalidation also aborts an in-progress recording.
* A trace is only entered when it fits the remaining instruction
  budget whole (and re-checks before every iteration), so a checkpoint
  or slice boundary never falls inside one: the block path cuts the
  block it lands in, exactly where the reference loop stops.
* Block-cache *capacity* flushes do not touch traces: a compiled trace
  holds strong references to its member :class:`Block` objects, whose
  precomputed fields stay valid until an explicit invalidation.
"""

from __future__ import annotations

import hashlib
import marshal
import zlib
from typing import Dict, List, Optional, Tuple

from .blockcache import block_overlaps
from .executor import inline_exec_src, inline_term_src
from .state import ExitProgram

#: Hotness-counter table bound: profiling state, not simulation state.
_COUNTS_CAP = 65536

#: Bound on the compressed bytes of compiled trace code one process
#: keeps (the whole paper suite needs about 1.3 MB); crossing it
#: flushes the whole cache, as the counts table and the block cache do.
_CODE_CACHE_CAP = 4 << 20

#: Source digest -> ``zlib``-compressed ``marshal`` of its compiled
#: module code, for every trace this process compiled.
_code_cache: Dict[bytes, bytes] = {}
_code_cache_bytes = 0


def clear_code_cache() -> None:
    """Forget every compiled trace, so that the next recording of each
    source pays ``compile()`` again, as in a fresh process."""
    global _code_cache_bytes
    _code_cache.clear()
    _code_cache_bytes = 0


def _module_code(src: str, filename: str):
    """The compiled module code of a generated trace source: compiled
    once per process, then rebuilt from the cache, so each trace still
    gets its own code object.  ``filename`` names the anchor, which the
    source bakes in, so it is a function of ``src``.  A ``compile()``
    that raises caches nothing."""
    global _code_cache_bytes
    key = hashlib.blake2b(src.encode(), digest_size=16).digest()
    blob = _code_cache.get(key)
    if blob is not None:
        return marshal.loads(zlib.decompress(blob))
    code = compile(src, filename, "exec")
    blob = zlib.compress(marshal.dumps(code), 1)
    size = len(blob)
    if _code_cache_bytes + size > _CODE_CACHE_CAP:
        clear_code_cache()
    if size <= _CODE_CACHE_CAP:
        _code_cache[key] = blob
        _code_cache_bytes += size
    return code


class TraceCompileError(Exception):
    """A recorded trace cannot be compiled (the anchor is blacklisted
    and execution stays on the block path — never a correctness event)."""


class Trace:
    """One compiled loop superblock.

    ``fn(cycle, icount, budget, last_page, last_line, tracer, out)``
    returns ``(status, next_fetch_pc)`` — status 1 means the program
    finished.  Counter writeback happens through ``out`` (a 4-slot
    list: cycle, icount, last_page, last_line) in a ``finally``, so
    faults propagate with counters settled, exactly like the block
    loop's own ``finally``.
    """

    __slots__ = ("anchor", "fn", "n", "entries", "blocks", "lo", "hi")

    def __init__(self, anchor, fn, n, blocks, lo, hi):
        self.anchor = anchor
        self.fn = fn
        self.n = n
        self.entries = 0
        self.blocks = blocks
        self.lo = lo
        self.hi = hi


class _Writer:
    """Tiny indented-source accumulator."""

    __slots__ = ("lines", "indent")

    def __init__(self, indent: int = 0):
        self.lines: List[str] = []
        self.indent = indent

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def extend(self, lines, extra: int = 0) -> None:
        pad = "    " * (self.indent + extra)
        for text in lines:
            self.lines.append(pad + text)


class TraceCache:
    """Bounded cache of compiled superblocks, plus the edge profiler
    and trace recorder that feed it.

    Constructed against a live :class:`~repro.arch.cpu.CycleCPU`; every
    closed-over binding (state, flow, timing models, latencies, the
    event trait) is fixed for that CPU's lifetime, which is what makes
    compile-time trait specialization sound.  It binds the CPU's parts,
    never the CPU itself, so generated code holds no reference back.
    """

    __slots__ = (
        "hot_threshold", "max_blocks", "max_insts", "capacity",
        "traces", "builds", "flushes", "invalidations", "aborts",
        "rejected", "compile_failures", "_bail", "_steady", "_counts",
        "_failed",
        "_entries_retired", "_rec", "_rec_insts", "_rec_expect",
        "_flow", "_scope", "_il1_latency", "_dl1_latency",
        "_load_use", "_prefetch", "_record_events",
        "_randomized", "_il1", "_dl1", "_itlb", "_dtlb", "_branch",
    )

    def __init__(self, cpu):
        cfg = cpu.config
        self.hot_threshold = max(1, cfg.trace_hot_threshold)
        self.max_blocks = max(1, cfg.trace_max_blocks)
        self.max_insts = max(1, cfg.trace_max_insts)
        self.capacity = max(1, cfg.trace_cache_capacity)
        #: anchor fetch PC -> :class:`Trace` (the fast loop indexes this
        #: dict directly).
        self.traces: Dict[int, Trace] = {}
        self.builds = 0
        self.flushes = 0
        self.invalidations = 0
        #: recordings dropped (budget cut, unexpected successor).
        self.aborts = 0
        #: recordings that did not close on their anchor (not compiled).
        self.rejected = 0
        self.compile_failures = 0
        #: shared guard side-exit counter cell (closed over by every
        #: generated function).
        self._bail = [0]
        #: iterations run with the fetch side settled (every settle
        #: adds to it).
        self._steady = [0]
        self._counts: Dict[int, int] = {}
        #: blacklisted anchors: rejected or failed to compile.
        self._failed = set()
        self._entries_retired = 0
        self._rec: Optional[List[Tuple[object, int]]] = None
        self._rec_insts = 0
        self._rec_expect = 0

        flow = cpu.flow
        state = cpu.state
        self._flow = flow
        self._il1_latency = cfg.il1.latency
        self._dl1_latency = cfg.dl1.latency
        self._load_use = cfg.load_use_stall
        self._prefetch = cfg.prefetch_il1
        self._record_events = bool(getattr(flow, "record_events", False))
        self._randomized = bool(getattr(flow, "randomized", False))
        # The timing models render their own hit paths into generated
        # source (``*_src``) over the bindings their ``inline_scope``
        # returns; those objects keep their identity for the CPU's
        # lifetime (flushes and stat resets work in place), so the
        # closures never go stale.
        self._il1 = cpu.il1
        self._dl1 = cpu.dl1
        self._itlb = cpu.itlb
        self._dtlb = cpu.dtlb
        self._branch = cpu.branch
        # Generated-scope name -> object, unpacked by ``__make``.
        scope = {
            "st": state, "regs": state.regs.regs, "flags": state.flags,
            "syscall": state.syscall, "flow": flow, "events": flow.events,
            "fixup": flow.fixup_load, "note_store": flow.note_store,
            "note_push": flow.note_retaddr_push,
            "call_ret": flow.call_retaddr, "transfer": flow.transfer,
            "sequential": flow.sequential, "drc": cpu.drc.drain,
            "bail": self._bail, "X": ExitProgram,
        }
        scope.update(cpu.mem.inline_scope())
        scope.update(cpu.il1.inline_scope("il1"))
        scope.update(cpu.dl1.inline_scope("dl1"))
        scope.update(cpu.itlb.inline_scope("itlb"))
        scope.update(cpu.dtlb.inline_scope("dtlb"))
        scope.update(cpu.branch.inline_scope())
        self._scope = scope

    def __len__(self) -> int:
        return len(self.traces)

    # -- edge profiling / recording ---------------------------------------

    def on_block(self, block, next_fetch_pc: int) -> None:
        """Fast-loop hook: ``block`` just retired and control continues
        at ``next_fetch_pc``.  Drives hotness counting and, once a
        leader is hot, records the observed block sequence from it
        until the sequence closes; see :meth:`_advance_recording`."""
        rec = self._rec
        if rec is not None:
            if block.leader != self._rec_expect:
                # A budget edge cut a block between recorder steps
                # (a cut block never reaches this hook) or control took
                # an unexpected edge; the recording is not a real
                # superblock.
                self.aborts += 1
                self._rec = None
                return
            rec.append((block, next_fetch_pc))
            self._rec_insts += block.n
            self._advance_recording(next_fetch_pc)
            return
        counts = self._counts
        leader = block.leader
        c = counts.get(leader, 0) + 1
        if c < self.hot_threshold:
            counts[leader] = c
            return
        counts[leader] = 0
        if leader in self.traces or leader in self._failed:
            return
        if len(counts) > _COUNTS_CAP:
            counts.clear()
        self._rec = [(block, next_fetch_pc)]
        self._rec_insts = block.n
        self._advance_recording(next_fetch_pc)

    def _advance_recording(self, next_fetch_pc: int) -> None:
        """Compile the recording when control returns to its anchor;
        reject it (and blacklist the anchor) when it revisits another
        member block or reaches a length cap, since a trace that does
        not loop retires too little to pay for its ``compile()``."""
        rec = self._rec
        anchor = rec[0][0].leader
        if next_fetch_pc == anchor:
            self._compile(rec)
            self._rec = None
            return
        if (len(rec) >= self.max_blocks
                or self._rec_insts >= self.max_insts
                or any(member.leader == next_fetch_pc
                       for member, _ in rec)):
            # An inner cycle (the revisited leader can anchor its own
            # loop) or a path longer than the caps.
            self.rejected += 1
            self._failed.add(anchor)
            self._rec = None
            return
        self._rec_expect = next_fetch_pc

    # -- compilation -------------------------------------------------------

    def _compile(self, rec) -> None:
        anchor = rec[0][0].leader
        self.builds += 1
        try:
            trace = self._generate(rec)
        except Exception:
            # Never fatal: the anchor is blacklisted and the block path
            # keeps executing it, bit-identically — so the repro.qa
            # oracle and tests/test_tracecache.py count every compile
            # failure as a finding of their own.
            self.compile_failures += 1
            self._failed.add(anchor)
            return
        if len(self.traces) >= self.capacity:
            self._entries_retired += sum(
                t.entries for t in self.traces.values()
            )
            self.traces.clear()
            self.flushes += 1
        self.traces[anchor] = trace

    def _generate(self, rec) -> Trace:
        anchor = rec[0][0].leader
        gen = _TraceGen(self, rec)
        src, consts = gen.build()
        namespace: Dict[str, object] = {"__builtins__": {}}
        exec(_module_code(src, "<trace:0x%x>" % anchor), namespace)
        # Popped, so the module namespace does not keep a cycle through
        # ``__make``'s globals.
        fn = namespace.pop("__make")(consts)
        blocks = tuple(b for b, _ in rec)
        return Trace(
            anchor, fn, sum(b.n for b in blocks), blocks,
            min(b.lo for b in blocks), max(b.hi for b in blocks),
        )

    # -- invalidation ------------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop everything: table swap / re-randomization epoch.  The
        blacklist goes too — a new epoch's tables may compile fine, and
        a rejected anchor may loop cleanly the next time it records."""
        if self.traces:
            self.invalidations += 1
            self._entries_retired += sum(
                t.entries for t in self.traces.values()
            )
        self.traces.clear()
        self._failed.clear()
        self._counts.clear()
        if self._rec is not None:
            self.aborts += 1
            self._rec = None

    def invalidate_range(self, start: int, size: int) -> None:
        """Drop traces with a member block overlapping
        ``[start, start + size)`` in fetch space (code rewrite).  Member
        overlap uses the same exact per-instruction spans as
        :meth:`BlockCache.invalidate_range`, so the two tiers always
        agree on what a write invalidated."""
        if size <= 0:
            return
        end = start + size
        stale = [
            pc for pc, trace in self.traces.items()
            if trace.lo < end and trace.hi > start
            and any(block_overlaps(b, start, end) for b in trace.blocks)
        ]
        for pc in stale:
            self._entries_retired += self.traces[pc].entries
            del self.traces[pc]
        if stale:
            self.invalidations += 1
        # Conservatively retry blacklisted anchors after any rewrite.
        self._failed.clear()
        if self._rec is not None:
            self.aborts += 1
            self._rec = None

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Host-side counters (not part of simulated statistics)."""
        live = sum(t.entries for t in self.traces.values())
        return {
            "traces": len(self.traces),
            "builds": self.builds,
            "flushes": self.flushes,
            "invalidations": self.invalidations,
            "aborts": self.aborts,
            "rejected": self.rejected,
            "compile_failures": self.compile_failures,
            "bailouts": self._bail[0],
            "steady": self._steady[0],
            "entries": self._entries_retired + live,
            "live_entries": live,
        }


# -- source generation -----------------------------------------------------

def _indent(lines):
    return ["    " + line for line in lines]


def _fetch_steps(op, page, line):
    """The fetch-side probes of ``op`` after a fetch that left ``page``
    and ``line`` (None: unknown, so probed), in the order of
    ``CycleCPU._fetch_stall``, and the page and line the op leaves.
    A step is ``("page", page, addr, None)``, an ITLB access, or
    ``("line", line, addr, pf)``, an IL1 access with the next-line
    prefetch of ``pf`` when the prefetcher is on.  A fetch group that
    crosses into ``line2`` always probes it: ``line`` is pinned by then
    and differs from it."""
    (_h, _inst, fpc, _arch, _extra, op_page, op_line, pf1, cross, addr2,
     line2, pf2, _seq, _touch, _is_int) = op
    steps = []
    if op_page != page:
        steps.append(("page", op_page, fpc, None))
    if op_line != line:
        steps.append(("line", op_line, fpc, pf1))
    if cross:
        steps.append(("line", line2, addr2, pf2))
        op_line = line2
    return steps, op_page, op_line


class _TraceGen:
    """Generates the ``__make``/``__trace`` source for one recording
    (a loop: the last block's recorded successor is the anchor)."""

    def __init__(self, cache: TraceCache, rec):
        self.cache = cache
        self.rec = rec
        self.anchor = rec[0][0].leader
        self.flow = cache._flow
        self.randomized = cache._randomized
        self.record_events = cache._record_events
        self.prefetch = cache._prefetch
        self.il1_latency = cache._il1_latency
        self.dl1_latency = cache._dl1_latency
        self.load_use = cache._load_use
        self.il1 = cache._il1
        self.dl1 = cache._dl1
        self.itlb = cache._itlb
        self.dtlb = cache._dtlb
        self.branch = cache._branch
        self.identity_transfer = not self.randomized
        self.insts: List[object] = []
        #: statically-tracked fetch page/line ([page, line], None=unknown).
        self.know: List[Optional[int]] = [None, None]
        #: whether the source has the steady path (set by :meth:`build`).
        self.steady = False

    # -- folding helpers ---------------------------------------------------

    def _fold_events(self, fn, *args):
        """Call a pure-between-flushes flow method at compile time and
        capture the DRC events it appended: ``(value, events_delta)``,
        with the event list left exactly as it was.  The delta is empty
        unless the flow records events; emission is a pure function of
        the call's (constant) arguments and the RDR tables, both static
        between flushes, so the delta can be replayed as literal appends
        in the generated code.  ``(None, None)`` when the call raises
        (the generated code must then make the call at run time so the
        fault surfaces at the right instruction)."""
        ev = self.flow.events
        mark = len(ev)
        try:
            value = fn(*args)
        except Exception:
            del ev[mark:]
            return None, None
        delta = tuple(ev[mark:])
        del ev[mark:]
        return value, delta

    def _static_nfp(self, target: int):
        """``(setup_lines, expr, value)`` producing the post-transfer
        fetch PC for a compile-time-constant architectural target.
        ``value`` is the folded result, or None when only run-time
        evaluation is exact (the transfer faults at compile time)."""
        if self.identity_transfer:
            return [], str(target), target
        # Fold the value and replay the DRC events the transfer queues
        # as literal appends, in place.
        value, delta = self._fold_events(self.flow.transfer, target)
        if value is not None:
            setup = ["events.append(%r)" % (e,) for e in delta]
            return setup, str(value), value
        return ["nfp = transfer(%d)" % target], "nfp", None

    # -- emission ----------------------------------------------------------

    def build(self):
        ops = [op for block, _ in self.rec for op in block.ops]
        # The settle finds an exit's op by ``st.pc``, which every op
        # writes first, so it needs the trace's arch pcs to be distinct.
        self.steady = len({op[3] for op in ops}) == len(ops)
        body = _Writer(indent=2)
        body.line("try:")
        body.line("    while 1:")
        body.indent = 4
        body.line("if icount + %d > budget:" % len(ops))
        body.line("    return (0, %d)" % self.anchor)
        if self.steady:
            body.line("ns += steady")

        seq_index = 0
        for block, expected in self.rec:
            *interior, term = block.ops
            for op in interior:
                self._emit_interior(body, op, seq_index)
                seq_index += 1
            self._emit_terminal(body, term, seq_index, expected)
            seq_index += 1

        scope = self.cache._scope
        consts = tuple(scope.values()) + (tuple(self.insts),)
        names = ", ".join(scope) + ", I"
        if self.steady:
            # The back edge: an iteration entered from it that filled
            # nothing on the fetch side leaves the IL1 and ITLB at a
            # fixpoint, so every later one skips its fetch probes.
            body.line("if not steady:")
            body.line("    f_ = il1st.misses + il1st.prefetches"
                      " + itlbst.misses")
            body.line("    steady = f_ == mark")
            body.line("    mark = f_")
            consts += (self._settle(ops),)
            names += ", settle"
        src_lines = ["def __make(C):", "    (%s) = C" % names]
        for n in range(len(self.insts)):
            src_lines.append("    i%d = I[%d]" % (n, n))
        src_lines.append(
            "    def __trace(cycle, icount, budget, last_page, "
            "last_line, tracer, out):"
        )
        if self.steady:
            src_lines.append("        steady = False")
            src_lines.append("        ns = 0")
            src_lines.append("        mark = -1")
        src_lines.extend(body.lines)
        src_lines.append("        finally:")
        if self.steady:
            src_lines.append("            if ns:")
            src_lines.append("                last_page, last_line = "
                             "settle(ns, st.pc)")
        src_lines.append("            out[0] = cycle")
        src_lines.append("            out[1] = icount")
        src_lines.append("            out[2] = last_page")
        src_lines.append("            out[3] = last_line")
        src_lines.append("    return __trace")
        src = "\n".join(src_lines) + "\n"
        return src, consts

    def _settle(self, ops):
        """The steady path's settle, for the trace's ``ops``.

        From the second iteration on the fetch side's probes are
        static: the first op follows the last op's page and line.  So
        ``st.pc`` names how far into an iteration an exit came, and
        the fetch accesses, page and line up to there.  ``settle(ns,
        pc)`` runs in the trace's ``finally`` after ``ns`` iterations
        were started steady, the last of them cut at ``pc`` (a
        loop-head exit cuts none, and ``pc`` is then the last op's):
        it adds the counters of ``ns - 1`` whole iterations, replays
        the cut one's accesses through the model methods (all hits, so
        each reorders its set or entry as the reference loop did) and
        returns the page and line to resume with."""
        il1, itlb = self.il1, self.itlb
        calls: List[Tuple[object, int]] = []
        table = {}
        n_itlb = n_il1 = 0
        _steps, page, line = _fetch_steps(ops[-1], None, None)
        for op in ops:
            steps, page, line = _fetch_steps(op, page, line)
            for kind, _value, addr, pf in steps:
                if kind == "page":
                    n_itlb += 1
                    calls.append((itlb.access, addr))
                    continue
                n_il1 += 1
                calls.append((il1.access, addr))
                if self.prefetch:
                    calls.append((il1.prefetch, pf))
            table[op[3]] = (len(calls), page, line)
        n_prefetch = n_il1 if self.prefetch else 0
        il1st, itlbst = il1.stats, itlb.stats
        counter = self.cache._steady

        def settle(ns, pc):
            k, page, line = table[pc]
            whole = ns - 1
            counter[0] += ns
            il1st.accesses += whole * n_il1
            il1st.prefetch_hits += whole * n_prefetch
            itlbst.accesses += whole * n_itlb
            for fn, addr in calls[:k]:
                fn(addr)
            return page, line

        return settle

    def _register(self, op, n: int) -> None:
        assert len(self.insts) == n
        self.insts.append(op[1])

    # per-op fetch-side lines -----------------------------------------

    def _fetch_lines(self, op):
        """The op's fetch-side probes (:func:`_fetch_steps`) after the
        page and line ``know`` pins; a probe whose need is unknown at
        compile time tests the local.  The ITLB and IL1 hit paths are
        the models' inlined source, skipped on the steady path."""
        page, line = self.know
        steps, self.know[0], self.know[1] = _fetch_steps(op, page, line)
        lines: List[str] = []
        for kind, value, addr, pf in steps:
            if kind == "page":
                body = ["last_page = %d" % value]
                body += self.itlb.access_src("itlb", addr,
                                             ["stall += itlb(%d)" % addr])
                unknown = page is None
            else:
                miss = ["lat = il1(%d, False)" % addr,
                        "stall += lat - %d" % self.il1_latency]
                body = ["last_line = %d" % value]
                body += self.il1.access_src("il1", addr, False, [], miss)
                if self.prefetch:
                    body += self.il1.prefetch_src("il1", pf)
                unknown = line is None
                line = value
            if unknown:
                lines.append("if %d != last_%s:" % (value, kind))
                lines += _indent(body)
            else:
                lines += body
        if lines and self.steady:
            return ["if not steady:"] + _indent(lines)
        return lines

    def _stall_lines(self, loads, stores):
        """Data-side stall lines for the addresses in locals ``loads``
        and ``stores``: the DTLB access (it carries the page-visibility
        fault check) before the DL1 probe, exactly as in the reference
        ``_data_stall``, each with its hit path inlined."""
        lines = []
        load_const = self.load_use - self.dl1_latency
        for var, is_write in ([(v, False) for v in loads]
                              + [(v, True) for v in stores]):
            lines += self.dtlb.access_src("dtlb", var,
                                          ["stall += dtlb(%s)" % var])
            if is_write:
                hit = []
                miss = "stall += dl1(%s, True)" % var
                if self.dl1_latency:
                    miss += " - %d" % self.dl1_latency
            else:
                hit = ["stall += %d" % self.load_use] if self.load_use else []
                miss = "stall += dl1(%s, False)" % var
                if load_const:
                    miss += " + (%d)" % load_const
            lines += self.dl1.access_src("dl1", var, is_write, hit, [miss])
        return lines

    def _tracer_lines(self, n, arch, fpc, taken="False", target="0"):
        return [
            "if tracer is not None:",
            "    tracer.record(i%d, %d, %d, %s, %s)"
            % (n, arch, fpc, taken, target),
        ]

    def _emit_interior(self, w, op, n):
        """One CTRL_NONE instruction (interior, or a cap-split terminal
        whose fall-through the caller has checked), from its shape's
        template.  ``int`` is the only one that can raise ExitProgram:
        on exit the pending fetch stall is discarded (the reference
        loop charges a bare ``cycle += 1``), so the except arm records
        the exiting ``int`` and returns at once with status 1.  The DRC
        queue is drained only after an op that can add to it (a
        fixed-up load): every earlier op drained its own, and a
        syscall queues nothing."""
        (_handler, inst, fpc, arch, extra, _page, _line, _pf1, _cross,
         _addr2, _line2, _pf2, _seq, touch, is_int) = op
        plan = inline_exec_src(inst, n, self.randomized,
                               getattr(self.flow, "derand_map", None))
        if plan is None:
            raise TraceCompileError("no template for %s" % inst.text())
        self._register(op, n)

        fetch = self._fetch_lines(op)
        lines = plan["lines"]
        probes = self._stall_lines(plan["loads"], plan["stores"])
        uses_stall = bool(fetch) or bool(probes) or extra > 0
        w.line("st.pc = %d" % arch)
        if uses_stall:
            w.line("stall = %d" % extra)
        w.extend(fetch)
        w.line("icount += 1")
        if is_int:  # syscalls observe ``st.icount``
            syscall, *lines = lines
            w.line("st.icount = icount")
            w.line("try:")
            w.line("    " + syscall)
            w.line("except X:")
            w.line("    cycle += 1")
            w.extend(self._tracer_lines(n, arch, fpc), extra=1)
            w.line("    return (1, %d)" % fpc)
        if touch:
            w.line("st.last_load_addr = None")
            w.line("st.last_store_addr = None")
        w.extend(lines)
        w.extend(probes)
        if self.record_events and plan["can_event"]:
            w.line("if events:")
            w.line("    drc(events, False, 0)")
        w.extend(self._tracer_lines(n, arch, fpc))
        w.line("cycle += 1 + stall" if uses_stall else "cycle += 1")

    # terminals --------------------------------------------------------

    def _emit_terminal(self, w, op, n, expected):
        (handler, inst, fpc, arch, extra, _page, _line, _pf1, _cross,
         _addr2, _line2, _pf2, seq, touch, is_int) = op
        mnemonic = inst.mnemonic
        if not inst.is_control:
            # Cap-split / decode-boundary terminal: identical to an
            # interior op except the fall-through continues the trace.
            # The reference path's branch query is statically (0, True)
            # and the DRC drain is covered by the interior drain rule.
            seq_val = seq if seq is not None else \
                self._fold_events(self.flow.sequential, inst)[0]
            if seq_val is None or seq_val != expected:
                raise TraceCompileError(
                    "non-constant fall-through at 0x%x" % fpc
                )
            self._emit_interior(w, op, n)
            return

        retaddr = None
        ret_events = ()
        if mnemonic in ("call", "calli"):
            retaddr, delta = self._fold_events(self.flow.call_retaddr, inst)
            ret_events = delta or ()
        plan = inline_term_src(inst, n, self.randomized, retaddr)
        if plan is None:
            raise TraceCompileError("no terminal plan for %s" % mnemonic)
        self._register(op, n)

        fetch = self._fetch_lines(op)
        w.line("st.pc = %d" % arch)
        w.line("stall = %d" % extra)
        w.extend(fetch)
        w.line("icount += 1")
        if touch:
            w.line("st.last_load_addr = None")
            w.line("st.last_store_addr = None")

        drain = self.record_events
        kind = plan["kind"]
        if kind == "jcc":
            self._emit_jcc(w, op, plan, n, expected)
            return

        # Replay the folded retaddr's DRC events where ``call_retaddr``
        # would have queued them (before the push; consumed by the
        # end-of-instruction drain in list order).
        for event in ret_events:
            w.line("events.append(%r)" % (event,))
        w.extend(plan["lines"])
        w.extend(self._stall_lines(plan["loads"], plan["stores"]))

        if plan["target_var"] is None:
            # Direct transfer: deterministic between flushes, no guard.
            setup, nfp_expr, nfp_val = self._static_nfp(inst.target)
            w.extend(setup)
            if nfp_val is not None and nfp_val != expected:
                raise TraceCompileError("static edge mismatch")
            guard = False
            target_expr = str(inst.target)
        else:
            if self.identity_transfer:
                nfp_expr = "tgt"
            else:
                w.line("nfp = transfer(tgt)")
                nfp_expr = "nfp"
            guard = True
            target_expr = plan["target_var"]

        w.extend(self.branch.resolve_src(inst, nfp_expr, target_expr))
        w.line("stall += pen")
        if drain:
            w.line("if events:")
            w.line("    stall += drc(events, not ok, pen)")
        w.extend(self._tracer_lines(n, arch, fpc, "True", target_expr))
        w.line("cycle += 1 + stall")
        if guard:
            self._emit_guard(w, expected, nfp_expr)

    def _emit_jcc(self, w, op, plan, n, expected):
        """Each direction is one arm with the fetch PC it leads to and
        the predictor's correctly-predicted path inlined
        (:meth:`BranchUnit.conditional_src`)."""
        (_handler, inst, fpc, arch, _extra, _page, _line, _pf1, _cross,
         _addr2, _line2, _pf2, seq, _touch, _is_int) = op
        taken_setup, taken_expr, _ = self._static_nfp(inst.target)
        seq_val = seq if seq is not None else \
            self._fold_events(self.flow.sequential, inst)[0]
        if seq_val is not None:
            seq_setup, seq_expr = [], str(seq_val)
        else:
            seq_setup, seq_expr = ["nfp = sequential(i%d)" % n], "nfp"

        arms = ((True, "if %s:" % plan["cond"], taken_setup, taken_expr,
                 str(inst.target)),
                (False, "else:", seq_setup, seq_expr, "0"))
        for taken, head, setup, nfp_expr, target in arms:
            w.line(head)
            w.extend(setup, extra=1)
            if nfp_expr != "nfp":
                w.line("    nfp = %s" % nfp_expr)
            w.extend(self.branch.conditional_src(inst.addr, taken,
                                                 nfp_expr), extra=1)
            w.line("    stall += pen")
            if self.record_events:
                w.line("    if events:")
                w.line("        stall += drc(events, not ok, pen)")
            w.extend(self._tracer_lines(n, arch, fpc, str(taken), target),
                     extra=1)
        w.line("cycle += 1 + stall")
        self._emit_guard(w, expected, "nfp")

    def _emit_guard(self, w, expected, nfp_expr):
        """Side-exit after an op's cycle retire unless control took the
        recorded edge (the last block's edge is the loop's back edge)."""
        w.line("if %s != %d:" % (nfp_expr, expected))
        w.line("    bail[0] += 1")
        w.line("    return (0, %s)" % nfp_expr)
