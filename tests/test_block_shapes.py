"""Per-shape differential test: block-tier handlers vs ``execute()``.

The block tier binds each instruction to a handler compiled from its
shape's source template (:mod:`repro.arch.blockcache`); the generic
``_op_*`` handlers behind :func:`~repro.arch.executor.execute` are the
reference.  Whole-program suites only reach the shapes their programs
emit, so this test drives every shape the decoder can produce through
both, from identical random register, flag, tag and memory states,
under a baseline flow and under a VCFR flow with the immediate both in
and out of the tag-producer map.  It compares everything an instruction
can touch, including the exception when it faults, and holds the software
emulator's per-shape ``memory_op`` classification to what ``execute()``
accessed.
"""

from __future__ import annotations

import functools
import random
import struct

import pytest

from repro.arch import blockcache
from repro.arch.config import default_config
from repro.arch.cpu import CycleCPU
from repro.arch.executor import DISPATCH, execute
from repro.arch.memory import SparseMemory
from repro.arch.state import MachineState
from repro.emu.vm import touches_memory
from repro.ilr import RandomizerConfig, make_flow, randomize
from repro.ilr.flow import BaselineFlow, VCFRFlow
from repro.ilr.rdr import RDRTable
from repro.isa import opcodes
from repro.isa.decoder import decode
from repro.isa.encoder import encode, make
from repro.isa.registers import EAX, EBP, ESP, MASK32
from repro.isa.syscalls import (
    SYS_EMIT,
    SYS_EXIT,
    SYS_ICOUNT,
    SYS_PUTC,
    SYSCALL_VECTOR,
)
from repro.workloads import build_image

RR, RM, MR, RI = (opcodes.MODE_RR, opcodes.MODE_RM, opcodes.MODE_MR,
                  opcodes.MODE_RI)

CODE = 0x00401000
DATA = 0x10000000
STACK = 0x7FFEF000  # one page; stacks grow down from its top
PAGE = 4096
#: randomized code pointers (the VCFR flow's tag producers), each
#: de-randomizing to an original code address.
POINTERS = [0x20000000 + 0x40 * k for k in range(8)]
SEEDS = range(24)

ALU = ("mov", "add", "sub", "cmp", "test", "and", "or", "xor", "imul")
#: Shapes that bind the generic ``DISPATCH`` handler (no template).
GENERIC = {("halt", None)} | {(m, mode) for m in ALU[2:] for mode in (RM, MR)}


def _shapes():
    """(mnemonic, mode, encoding tag) for every decodable shape."""
    shapes = [(m, mode, "") for m in ALU for mode in (RR, RM, MR, RI)]
    shapes += [("lea", RM, ""), ("shl", RR, ""), ("shr", RR, ""),
               ("sar", RR, "")]
    shapes += [(m, None, "") for m in ("push", "pop", "leave", "movi",
                                       "int", "nop", "halt", "jmp",
                                       "jmp8", "call", "ret")]
    for cc in opcodes.CC_NAMES:
        shapes += [("j" + cc, None, "rel32"), ("j" + cc, None, "rel8")]
    shapes += [(m, mode, "") for m in ("calli", "jmpi") for mode in (RR, RM)]
    return shapes


SHAPES = _shapes()


def _shape_id(shape):
    m, mode, tag = shape
    mode_name = {RR: "rr", RM: "rm", MR: "mr", RI: "ri", None: ""}[mode]
    return "-".join(part for part in (m, mode_name, tag) if part)


def _instruction(shape, rng, tagged):
    """A decoder-produced instance of ``shape`` with random fields."""
    m, mode, tag = shape
    if tagged:
        imm = rng.choice(POINTERS)
    else:
        imm = rng.choice([rng.getrandbits(32), rng.randrange(256),
                          0x80000000, MASK32])
    reg, rm = rng.randrange(8), rng.randrange(8)
    if rng.random() < 0.3:  # one register as both operands
        rm = reg
    disp = rng.choice([0, 4, -4, rng.randrange(-64, 64),
                       rng.randrange(PAGE)])
    if m in ("shl", "shr", "sar"):
        imm = rng.randrange(256)
    elif m == "int":
        imm = rng.choice([SYSCALL_VECTOR] * 3 + [0x21])
    elif m.startswith("j") or m == "call":
        imm = rng.randrange(-128, 128)
    if tag == "rel8":  # the 2-byte Jcc form has no encoder entry point
        cc = opcodes.cc_number(m[1:])
        raw = bytes([opcodes.OP_JCC8_BASE + cc, imm & 0xFF])
    else:
        raw = encode(make(m, addr=CODE, mode=mode, reg=reg, rm=rm,
                          disp=disp, imm=imm))
    inst = decode(raw + bytes(8), 0, CODE)
    assert inst.mnemonic == m and inst.mode == mode
    return inst


def _word(rng):
    """A register value: in-page pointers, tag producers, edge cases,
    small counts, negative numbers and wild addresses."""
    kind = rng.randrange(7)
    if kind == 0:
        return DATA + rng.randrange(PAGE - 64)
    if kind == 1:
        return DATA + 4 * rng.randrange(PAGE // 4 - 16)
    if kind == 2:
        return rng.choice(POINTERS)
    if kind == 3:
        return rng.getrandbits(32)
    if kind == 4:
        return rng.choice([0, 1, 0x40000000, 0x7FFFFFFF, 0x80000000,
                           MASK32])
    if kind == 5:
        return 0x80000000 | rng.getrandbits(31)
    return rng.randrange(64)


@functools.lru_cache(maxsize=None)
def _memory(seed):
    """DATA and STACK page contents with a quarter of their words tag
    producers, and the marked slots: half of those, plus an eighth of
    all words."""
    rng = random.Random(-1 - seed)
    words = [base + offset for base in (DATA, STACK)
             for offset in range(0, PAGE, 4)]
    image = {DATA: bytearray(rng.randbytes(PAGE)),
             STACK: bytearray(rng.randbytes(PAGE))}
    pointer_slots = rng.sample(words, len(words) // 4)
    for addr in pointer_slots:
        base = addr & ~(PAGE - 1)
        struct.pack_into("<I", image[base], addr - base,
                         rng.choice(POINTERS))
    marked = frozenset(rng.sample(pointer_slots, len(pointer_slots) // 2)
                       + rng.sample(words, len(words) // 8))
    return {base: bytes(page) for base, page in image.items()}, marked


def _machine(seed, variant, inst):
    """Deterministic start state for one (seed, flow variant)."""
    rng = random.Random(seed * 7919 + 13)
    pages, marked = _memory(seed)
    mem = SparseMemory()
    for base, page in pages.items():
        mem.write_block(base, page)
    mem.strict = True  # any access outside DATA and STACK faults
    state = MachineState(mem=mem, stack_top=STACK + PAGE)
    regs = state.regs.regs
    for index in range(8):
        regs[index] = _word(rng)
    for index in (ESP, EBP):  # mostly a live stack, sometimes wild
        if rng.random() < 0.85:
            regs[index] = STACK + PAGE - 4 * rng.randrange(2, 256)
    if inst.mode in (RM, MR) and rng.random() < 0.8:
        # Memory operands mostly land on a mapped word.
        regs[inst.rm] = (rng.choice((DATA, STACK))
                         + 4 * rng.randrange(PAGE // 4) - inst.disp) & MASK32
    if inst.mnemonic == "int":
        regs[EAX] = rng.choice([SYS_EXIT, SYS_PUTC, SYS_EMIT, SYS_ICOUNT,
                                99])
    flags = state.flags
    flags.zf, flags.sf, flags.cf, flags.of = (
        rng.random() < 0.5 for _ in range(4))
    state.icount = rng.randrange(1000)
    state.last_retaddr = rng.choice([None, rng.getrandbits(32)])

    if variant == "baseline":
        return state, BaselineFlow(CODE)
    rdr = RDRTable()
    for k, pointer in enumerate(POINTERS):
        rdr.add_mapping(CODE + 0x100 + 8 * k, pointer)
    fall = inst.addr + inst.length
    if rng.random() < 0.5:  # call sites whose return is randomized
        rdr.add_mapping(fall, 0x30000000)
        rdr.ret_randomized.add(fall)
    flow = VCFRFlow(rdr, POINTERS[0])
    flow.record_events = True
    flow.tagmask = rng.getrandbits(8)
    flow.marked_slots = set(marked)
    return state, flow


def _outcome(call):
    try:
        return ("ok",) + tuple(call())
    except Exception as exc:  # faults are part of the semantics
        return ("raised", type(exc).__name__, str(exc))


def _observe(state, flow, outcome):
    mem = state.mem
    return {
        "outcome": outcome,
        "regs": list(state.regs.regs),
        "flags": (state.flags.zf, state.flags.sf, state.flags.cf,
                  state.flags.of),
        "memory": (mem.read_block(DATA, PAGE), mem.read_block(STACK, PAGE),
                   mem.mapped_pages()),
        "last": (state.last_load_addr, state.last_store_addr,
                 state.last_retaddr),
        "icount": state.icount,
        "output": (state.out.snapshot(), state.exit_code),
        "tagmask": flow.tagmask,
        "marked": sorted(getattr(flow, "marked_slots", ())),
        "events": list(flow.events),
    }


@pytest.mark.parametrize("variant", ["baseline", "vcfr-tagged",
                                     "vcfr-untagged"])
@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_block_handler_matches_execute(shape, variant):
    tagged = variant == "vcfr-tagged"
    for seed in SEEDS:
        rng = random.Random(seed)
        inst = _instruction(shape, rng, tagged)

        state, flow = _machine(seed, variant, inst)
        handler = blockcache.shape_handler(inst, flow.randomized,
                                           flow.derand_map)
        assert (handler is DISPATCH[inst.mnemonic]) == (
            shape[:2] in GENERIC), "template coverage changed"
        # The fast loop's per-instruction prologue (execute() runs its own).
        state.icount += 1
        state.last_load_addr = None
        state.last_store_addr = None
        block = _observe(state, flow,
                         _outcome(lambda: handler(inst, state, flow)))

        state, flow = _machine(seed, variant, inst)
        reference = _observe(state, flow,
                             _outcome(lambda: execute(inst, state, flow)))
        assert block == reference, "%s (seed %d): %s" % (
            inst.text(), seed,
            {k: (block[k], reference[k]) for k in block
             if block[k] != reference[k]})
        if reference["outcome"][0] == "ok":
            # The emulator decides its memory_op charge per vPC from the
            # shape; a fault ends the run, so only completed ones count.
            load, store, _ret = reference["last"]
            assert touches_memory(inst) == (
                load is not None or store is not None), inst.text()


def test_handler_compilation_is_bounded_by_shapes():
    """Handlers compile once per shape: a second pass over the same
    programs, on fresh CPUs, compiles nothing new."""
    program = randomize(build_image("gcc", scale=0.3),
                        RandomizerConfig(seed=3))

    def run_all():
        for mode in ("baseline", "naive_ilr", "vcfr"):
            cfg = default_config()
            cfg.tracepath = False
            CycleCPU(program.image_for(mode), make_flow(mode, program),
                     cfg).run(max_instructions=20_000)

    run_all()
    compiled = blockcache._compile_shape.cache_info().misses
    assert compiled
    run_all()
    assert blockcache._compile_shape.cache_info().misses == compiled
