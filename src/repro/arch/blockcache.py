"""Pre-decoded basic-block cache for the cycle simulator's fast path.

The reference interpreter loop (:meth:`CycleCPU._execute_loop_ref`)
re-derives, for *every* retired instruction, facts that are static for
the whole run: the decoded instruction, its architectural PC, its
fall-through fetch PC, the icache line/iTLB page it occupies and the
next-line prefetch addresses.  This module hoists all of that to
first-execution time: the first time a fetch PC is used as a *leader*,
:meth:`BlockCache.build` decodes the straight-line run up to the next
control transfer (or the ``block_max_insts`` cap) and freezes one op
tuple per instruction.  The fast loop then replays op tuples, touching
the dynamic machinery (caches, TLBs, predictors, DRC, executor handler)
with everything else precomputed.

Correctness contract
--------------------

* Every precomputed field is a pure function of the program image and
  the flow's randomization tables.  Both are static *between explicit
  invalidations*: any code rewrite (:meth:`CycleCPU.rewrite_code`) or
  randomization-table swap (re-randomization epoch) must call
  :meth:`invalidate_range` / :meth:`invalidate_all`, otherwise blocks
  would replay stale fall-through and architectural PCs.
* Blocks never cross a control transfer or a ``halt``; interior
  instructions are therefore guaranteed ``CTRL_NONE``, which is what
  lets the fast loop skip the branch unit for them
  (:meth:`BranchUnit.resolve` is a stat-free ``(0, True)`` for such
  instructions).
* Storage is bounded (``block_cache_capacity`` blocks; the shared
  decode map is bounded by ``capacity * max_insts`` entries) with
  flush-on-overflow, so a pathological workload degrades to rebuild
  cost instead of unbounded host memory — this replaces the old
  unbounded ``CycleCPU._decode_cache``.

Op tuple layout (index: field) — consumed by ``_execute_loop_fast``:

====  =========================================================
 0    executor handler: the instruction's shape handler
      (:func:`shape_handler`); only ``halt`` and ``imul``'s store
      form, which have no template, bind the generic ``DISPATCH``
      handler
 1    decoded :class:`Instruction`
 2    fetch PC
 3    architectural PC (``flow.arch_pc_of(fetch_pc)``)
 4    extra execute-stage cycles (``EXEC_EXTRA``)
 5    iTLB page of the fetch PC
 6    IL1 line of the fetch PC
 7    next-line prefetch address for field 6
 8    True when the instruction straddles into a second line
 9    fetch address of the second line (valid when 8 is True)
10    second line number (valid when 8 is True)
11    next-line prefetch address for the second line
12    fall-through fetch PC (``flow.sequential``), or None when it
      is not statically computable; a None ends the block, so only
      a terminal can hold one (recomputed dynamically if it falls
      through), and a block the budget cuts resumes at this field
      of its last executed op
13    True when the instruction can touch data memory (reads or
      writes) — False lets the fast loop skip the load/store-address
      reset and the data-stall probe entirely
14    True for ``int`` (syscalls observe ``state.icount``, so it must
      be synced before the handler runs)
====  =========================================================
"""

from __future__ import annotations

import functools
import re
from typing import Dict, Optional

from ..isa import opcodes
from ..isa.decoder import DecodeError, decode
from ..isa.instruction import Instruction
from .executor import (
    CTRL_NONE,
    DISPATCH,
    EXEC_EXTRA,
    FIELDS,
    exec_template,
    shape_of,
    term_template,
)
from .memory import WORD_SCOPE

#: Mnemonics whose handlers can return a non-``CTRL_NONE`` kind; any
#: such instruction terminates its block.
_TERMINAL_MNEMONICS = frozenset(
    ["call", "calli", "jmp", "jmp8", "jmpi", "ret", "halt"]
    + ["j" + name for name in opcodes.CC_NAMES]
)


#: Generated-scope names a shape handler binds from its ``(inst, st,
#: flow)`` arguments, each only when its body uses it.
_PROLOGUE = (
    ("regs", "regs = st.regs.regs"),
    ("flags", "flags = st.flags"),
    ("rd", "rd = st.mem.read_u32"),
    ("wr", "wr = st.mem.write_u32"),
    ("pages", "pages = st.mem._pages"),
    ("syscall", "syscall = st.syscall"),
    ("fixup", "fixup = flow.fixup_load"),
    ("note_store", "note_store = flow.note_store"),
    ("note_push", "note_push = flow.note_retaddr_push"),
    ("call_ret", "call_ret = flow.call_retaddr"),
)


class _FieldNames(dict):
    """Renders every template field as its own name, recording it."""

    def __missing__(self, key):
        self[key] = key
        return key


@functools.lru_cache(maxsize=None)
def _compile_shape(shape: tuple):
    """Compile the handler factory of one shape from its template, or
    None for a shape without one.

    The factory takes an instruction of the shape and returns a handler
    ``(inst, state, flow) -> (kind, target)`` with the instruction's
    fields bound, so each call runs the template body straight-line.
    Each shape compiles once per process; shapes range over the opcode
    table times the flow traits, never over program size.
    """
    sequential = "return (%d, 0)" % CTRL_NONE
    if shape[0] in _TERMINAL_MNEMONICS:
        plan = term_template(shape)
        if plan is None:
            return None
        taken = "return (%d, {target})" % plan["ctrl"]
        if plan["cond"] is not None:
            body = ["if %s:" % plan["cond"], "    " + taken, sequential]
        elif plan["target_var"] is None:
            body = plan["lines"] + [taken]
        else:
            body = plan["lines"] + [
                "return (%d, %s)" % (plan["ctrl"], plan["target_var"])]
    else:
        plan = exec_template(shape)
        if plan is None:
            return None
        body = plan["lines"] + [sequential]
    names = _FieldNames(inst="inst")
    body = [line.format_map(names) for line in body]
    text = "\n".join(body)
    # Fields bind as defaults (one tuple per handler, no closure cells).
    fields = "".join(", %s=%s" % (name, FIELDS[name]) for name in names
                     if name != "inst")
    src = ["def make(inst):", "    def handler(inst, st, flow%s):" % fields]
    src += ["        " + bind for name, bind in _PROLOGUE
            if re.search(r"\b%s\b" % name, text)]
    src += ["        " + line for line in body]
    src.append("    return handler")
    namespace: Dict[str, object] = dict(WORD_SCOPE, __builtins__={})
    exec(compile("\n".join(src) + "\n", "<shape:%s>" % shape[0], "exec"),
         namespace)
    return namespace["make"]


def shape_handler(inst: Instruction, randomized: bool, derand_map):
    """The block-tier handler of ``inst``: its shape's factory
    (compiled once per process) instantiated with the instruction's
    fields, or the generic handler for the two shapes without a
    template (``halt``, and ``imul``'s store form, which raises)."""
    make = _compile_shape(shape_of(inst, randomized, derand_map))
    if make is None:
        return DISPATCH[inst.mnemonic]
    return make(inst)


class Block:
    """One pre-decoded straight-line run of instructions.

    ``ops`` holds one op tuple per instruction, in fetch order.  Every
    op but the last is non-control (always ``CTRL_NONE``) and has a
    static fall-through; the last is the block's terminal (control
    transfer, halt, cap hit or decode-ahead boundary).  ``lo``/``hi``
    bound every fetch byte the block's instructions occupy.  ``spans``
    is None when the block is fetch-contiguous (the ``[lo, hi)``
    envelope is then exact); for a scattered fetch space (naive ILR) it
    holds the per-instruction ``(start, end)`` byte ranges so range
    invalidation can be exact about the gaps between instructions.
    """

    __slots__ = ("leader", "ops", "n", "lo", "hi", "spans")

    def __init__(self, leader, ops, lo, hi, spans=None):
        self.leader = leader
        self.ops = ops
        self.n = len(ops)
        self.lo = lo
        self.hi = hi
        self.spans = spans


def block_overlaps(block: Block, start: int, end: int) -> bool:
    """Exact test for ``block`` occupying any byte of ``[start, end)``.

    The envelope check is a prefilter; scattered blocks are then
    checked span-by-span so a write that lands purely in a gap between
    instructions does not invalidate them.  Shared with the trace tier
    (:mod:`repro.arch.tracecache`), so both tiers always agree on what
    a code write invalidated.
    """
    if not (block.lo < end and block.hi > start):
        return False
    spans = block.spans
    if spans is None:
        return True
    return any(lo < end and hi > start for lo, hi in spans)


class BlockCache:
    """Bounded, invalidation-aware block + decode storage."""

    __slots__ = (
        "capacity", "max_insts", "blocks", "decoded",
        "_decoded_capacity", "builds", "flushes", "invalidations",
        "execs",
    )

    def __init__(self, capacity: int = 4096, max_insts: int = 32):
        self.capacity = max(1, capacity)
        self.max_insts = max(1, max_insts)
        #: leader fetch PC -> :class:`Block` (the fast loop indexes this
        #: dict directly).
        self.blocks: Dict[int, Block] = {}
        #: fetch PC -> decoded instruction, shared with the reference
        #: loop's ``_fetch`` so both paths decode each PC once.
        self.decoded: Dict[int, Instruction] = {}
        self._decoded_capacity = self.capacity * self.max_insts
        self.builds = 0
        self.flushes = 0
        self.invalidations = 0
        #: blocks executed to completion by the fast loop (folded in
        #: bulk at loop exit; ``execs - builds`` approximates hits).
        self.execs = 0

    def __len__(self) -> int:
        return len(self.blocks)

    # -- decode ------------------------------------------------------------

    def decode_one(self, fetch_pc: int, mem) -> Instruction:
        """Decode (and cache) the instruction at ``fetch_pc``."""
        decoded = self.decoded
        if len(decoded) >= self._decoded_capacity:
            decoded.clear()
            self.flushes += 1
        inst = decode(mem.read_block(fetch_pc, 8), 0, fetch_pc)
        decoded[fetch_pc] = inst
        return inst

    # -- block construction ------------------------------------------------

    def build(self, leader: int, mem, flow, page_shift: int,
              line_shift: int) -> Block:
        """Decode the block led by ``leader`` and install it.

        A decode failure on the leader propagates (mirroring
        the reference loop, which faults when it reaches that PC); a
        failure on any *later* instruction just ends the block early, so
        the faulting PC becomes a leader itself and faults at exactly
        the same retired-instruction boundary the reference loop would.
        """
        blocks = self.blocks
        if len(blocks) >= self.capacity:
            blocks.clear()
            self.flushes += 1

        ops = []
        spans = []
        contiguous = True
        lo = leader
        hi = leader
        fetch_pc: Optional[int] = leader
        decoded = self.decoded
        max_insts = self.max_insts
        randomized = bool(getattr(flow, "randomized", False))
        derand_map = getattr(flow, "derand_map", None)
        while len(ops) < max_insts and fetch_pc is not None:
            inst = decoded.get(fetch_pc)
            if inst is None:
                if ops:
                    try:
                        inst = self.decode_one(fetch_pc, mem)
                    except DecodeError:
                        break
                else:
                    inst = self.decode_one(fetch_pc, mem)

            seq: Optional[int]
            try:
                seq = flow.sequential(inst)
            except Exception:
                # Not statically computable (e.g. no fall-through map
                # entry past a terminal).  The fast loop recomputes it
                # dynamically if a CTRL_NONE outcome ever needs it.
                seq = None

            length = inst.length
            line = fetch_pc >> line_shift
            end_line = (fetch_pc + length - 1) >> line_shift
            ops.append((
                shape_handler(inst, randomized, derand_map),
                inst,
                fetch_pc,
                flow.arch_pc_of(fetch_pc),
                EXEC_EXTRA.get(inst.mnemonic, 0),
                fetch_pc >> page_shift,
                line,
                (line + 1) << line_shift,
                end_line != line,
                end_line << line_shift,
                end_line,
                (end_line + 1) << line_shift,
                seq,
                inst.reads_memory or inst.writes_memory,
                inst.mnemonic == "int",
            ))
            if spans and fetch_pc != spans[-1][1]:
                contiguous = False
            spans.append((fetch_pc, fetch_pc + length))
            if fetch_pc < lo:
                lo = fetch_pc
            if fetch_pc + length > hi:
                hi = fetch_pc + length
            if inst.mnemonic in _TERMINAL_MNEMONICS:
                break
            fetch_pc = seq

        block = Block(leader, tuple(ops), lo, hi,
                      None if contiguous else tuple(spans))
        blocks[leader] = block
        self.builds += 1
        return block

    # -- invalidation ------------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every block and decoded instruction (table swap /
        re-randomization epoch: every precomputed PC may be stale)."""
        if self.blocks or self.decoded:
            self.invalidations += 1
        self.blocks.clear()
        self.decoded.clear()

    def invalidate_range(self, start: int, size: int) -> None:
        """Drop blocks and decoded instructions overlapping
        ``[start, start + size)`` in fetch space (code rewrite).

        Overlap is exact per instruction (:func:`block_overlaps`): a
        write straddling a block's boundary instruction drops the
        block, while a write landing purely in a gap between a
        scattered block's instructions leaves it cached."""
        if size <= 0:
            return
        end = start + size
        blocks = self.blocks
        stale = [pc for pc, b in blocks.items()
                 if block_overlaps(b, start, end)]
        for pc in stale:
            del blocks[pc]
        decoded = self.decoded
        stale_pcs = [pc for pc, inst in decoded.items()
                     if pc < end and pc + inst.length > start]
        for pc in stale_pcs:
            del decoded[pc]
        if stale or stale_pcs:
            self.invalidations += 1

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Host-side counters (not part of simulated statistics)."""
        return {
            "blocks": len(self.blocks),
            "decoded": len(self.decoded),
            "builds": self.builds,
            "flushes": self.flushes,
            "invalidations": self.invalidations,
            "execs": self.execs,
            "hits": max(0, self.execs - self.builds),
        }
