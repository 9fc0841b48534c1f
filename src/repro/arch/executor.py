"""Functional executor for decoded RX86 instructions.

The executor implements instruction *semantics* only.  Everything that
depends on the execution mode (baseline / naive hardware ILR / VCFR /
software emulation) is delegated to the mode's flow
(:mod:`repro.ilr.flow`), through four hooks and two tag attributes:

* which value a ``call`` pushes as return address (``call_retaddr``;
  VCFR pushes the *randomized* return address, paper §IV-A),
* the §IV-C auto-de-randomization of loads that hit a stack slot holding
  a randomized return address (``fixup_load``), and the bitmap
  bookkeeping behind it (``note_store``, ``note_retaddr_push``),
* the randomized-value tags: ``derand_map`` (the tag producer set) and
  ``tagmask`` (the per-register tag bits).

All four execution paths in this repo drive this one executor, which is
what makes the cross-mode equivalence invariant testable.

Semantics are written in two forms.  The generic handlers — one
function per mnemonic, dispatched through :data:`DISPATCH` behind the
public :func:`execute` — are the reference: the functional paths and
the cycle simulator's reference loop run them.  The shape templates
(:func:`exec_template`, :func:`term_template`) are the one specialized
copy: source for one instruction shape with its operand fields as
placeholders, which the block tier compiles into per-shape handlers
and the trace tier renders into per-trace functions.  Every shape the
decoder produces has a template except two: ``halt``, and ``imul``'s
store form, which the reference rejects.  Two forms can diverge, so
the differential suites hold the templates to the generic handlers
shape by shape (``tests/test_block_shapes.py``) and program by program
(``repro.qa``, ``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict

from ..isa import opcodes
from ..isa.flags import to_signed32
from ..isa.instruction import Instruction
from ..isa.registers import MASK32
from .memory import read_u32_src, write_u32_src
from .state import MachineState

# Control-flow outcome kinds.
CTRL_NONE = 0  # sequential (includes not-taken conditional branches)
CTRL_JUMP = 1  # taken jump (conditional or not, direct or indirect)
CTRL_CALL = 2
CTRL_RET = 3
CTRL_HALT = 4

#: Extra execute-stage cycles per mnemonic (beyond the 1-cycle issue
#: slot) — consumed by the cycle simulator's timing model.
EXEC_EXTRA: Dict[str, int] = {"imul": 2}


class ExecutionError(Exception):
    """Raised when a decodable instruction has no defined semantics."""


# -- per-mnemonic handlers ---------------------------------------------------
#
# Every handler has the signature ``(inst, state, flow) -> (kind,
# target)`` and assumes the per-instruction prologue (icount bump,
# load/store address reset) already ran — :func:`execute` provides it for
# the functional paths, the block fast path inlines it.

def _op_movi(inst, state, flow):
    value = inst.imm & MASK32
    state.regs.regs[inst.reg] = value
    if value in flow.derand_map:
        flow.tagmask |= 1 << inst.reg
    elif flow.tagmask:
        flow.tagmask &= ~(1 << inst.reg)
    return (CTRL_NONE, 0)


def _op_push(inst, state, flow):
    value = state.regs.regs[inst.reg]
    slot = state.push(value)
    flow.note_store(slot, value, bool(flow.tagmask & (1 << inst.reg)))
    state.last_store_addr = slot
    return (CTRL_NONE, 0)


def _op_pop(inst, state, flow):
    value, slot = state.pop()
    state.regs.regs[inst.reg] = flow.fixup_load(slot, value)
    if flow.tagmask:  # loads auto-de-randomize: result is untagged
        flow.tagmask &= ~(1 << inst.reg)
    state.last_load_addr = slot
    return (CTRL_NONE, 0)


def _op_nop(inst, state, flow):
    return (CTRL_NONE, 0)


def _op_halt(inst, state, flow):
    return (CTRL_HALT, 0)


def _op_int(inst, state, flow):
    state.syscall(inst.imm)
    if flow.tagmask:  # syscalls may write EAX (ICOUNT): plain data
        flow.tagmask &= ~1
    return (CTRL_NONE, 0)


def _op_leave(inst, state, flow):
    # mov esp, ebp ; pop ebp
    regs = state.regs.regs
    regs[4] = regs[5]
    value, slot = state.pop()
    regs[5] = flow.fixup_load(slot, value)
    if flow.tagmask:
        t = flow.tagmask
        t = (t | 0x10) if t & 0x20 else (t & ~0x10)  # esp inherits ebp
        flow.tagmask = t & ~0x20  # popped frame pointer: untagged
    state.last_load_addr = slot
    return (CTRL_NONE, 0)


def _op_jmp(inst, state, flow):
    return (CTRL_JUMP, inst.target)


def _op_jcc(inst, state, flow):
    if state.flags.evaluate(inst.cc):
        return (CTRL_JUMP, inst.target)
    return (CTRL_NONE, 0)


def _op_call(inst, state, flow):
    ret = flow.call_retaddr(inst)
    slot = state.push(ret)
    flow.note_retaddr_push(slot, ret)
    state.last_store_addr = slot
    state.last_retaddr = ret
    return (CTRL_CALL, inst.target)


def _op_calli(inst, state, flow):
    if inst.mode == opcodes.MODE_RR:
        target = state.regs.regs[inst.rm]
    else:
        addr = (state.regs.regs[inst.rm] + inst.disp) & MASK32
        target = state.mem.read_u32(addr)
        state.last_load_addr = addr
    ret = flow.call_retaddr(inst)
    slot = state.push(ret)
    flow.note_retaddr_push(slot, ret)
    state.last_store_addr = slot
    state.last_retaddr = ret
    return (CTRL_CALL, target)


def _op_jmpi(inst, state, flow):
    if inst.mode == opcodes.MODE_RR:
        target = state.regs.regs[inst.rm]
    else:
        addr = (state.regs.regs[inst.rm] + inst.disp) & MASK32
        target = state.mem.read_u32(addr)
        state.last_load_addr = addr
    return (CTRL_JUMP, target)


def _op_ret(inst, state, flow):
    # The popped value is consumed *as a control-flow target*; it is
    # intentionally NOT run through fixup_load — a randomized return
    # address must stay randomized so fetch can translate and police it.
    target, slot = state.pop()
    state.last_load_addr = slot
    return (CTRL_RET, target)


def _op_shift(inst, state, flow):
    m = inst.mnemonic
    regs = state.regs.regs
    count = inst.imm & 31
    value = regs[inst.rm]
    if m == "shl":
        result = (value << count) & MASK32
    elif m == "shr":
        result = (value >> count) & MASK32
    else:
        result = (to_signed32(value) >> count) & MASK32
    regs[inst.rm] = result
    if flow.tagmask:  # arithmetic clears the randomized-value tag
        flow.tagmask &= ~(1 << inst.rm)
    state.flags.set_logic(result)
    return (CTRL_NONE, 0)


def _op_lea(inst, state, flow):
    if inst.mode != opcodes.MODE_RM:
        raise ExecutionError("lea requires the load form")
    regs = state.regs.regs
    regs[inst.reg] = (regs[inst.rm] + inst.disp) & MASK32
    if flow.tagmask:
        flow.tagmask &= ~(1 << inst.reg)
    return (CTRL_NONE, 0)


def _op_alu(inst, state, flow):
    """Two-operand ALU / mov group (mode-driven operand fetch)."""
    m = inst.mnemonic
    regs = state.regs.regs
    mem = state.mem
    mode = inst.mode
    if mode is None:
        raise ExecutionError("no semantics for %s" % m)

    if mode == opcodes.MODE_RR:
        a = regs[inst.reg]
        b = regs[inst.rm]
    elif mode == opcodes.MODE_RM:
        addr = (regs[inst.rm] + inst.disp) & MASK32
        a = regs[inst.reg]
        b = flow.fixup_load(addr, mem.read_u32(addr))
        state.last_load_addr = addr
    elif mode == opcodes.MODE_MR:
        addr = (regs[inst.rm] + inst.disp) & MASK32
        b = regs[inst.reg]
        if m == "mov":
            a = 0  # pure store: no read-modify-write
        else:
            a = flow.fixup_load(addr, mem.read_u32(addr))
            state.last_load_addr = addr
    else:  # MODE_RI
        a = regs[inst.reg]
        b = inst.imm & MASK32

    flags = state.flags
    write_back = True
    if m == "mov":
        result = b
    elif m == "add":
        total = a + b
        result = total & MASK32
        flags.set_add(a, b, total)
    elif m == "sub":
        result = (a - b) & MASK32
        flags.set_sub(a, b)
    elif m == "cmp":
        flags.set_sub(a, b)
        result = a
        write_back = False
    elif m == "test":
        flags.set_logic(a & b)
        result = a
        write_back = False
    elif m == "and":
        result = a & b
        flags.set_logic(result)
    elif m == "or":
        result = a | b
        flags.set_logic(result)
    elif m == "xor":
        result = a ^ b
        flags.set_logic(result)
    elif m == "imul":
        if mode == opcodes.MODE_MR:
            raise ExecutionError("imul has no store form")
        product = to_signed32(a) * to_signed32(b)
        result = product & MASK32
        flags.set_mul(product)
    else:
        raise ExecutionError("no semantics for %s" % m)

    if write_back:
        if mode == opcodes.MODE_MR:
            mem.write_u32(addr, result)
            # Only a pure store forwards the source register's tag; a
            # read-modify-write result is arithmetic, hence untagged.
            flow.note_store(addr, result,
                            m == "mov"
                            and bool(flow.tagmask & (1 << inst.reg)))
            state.last_store_addr = addr
        else:
            regs[inst.reg] = result
            if m == "mov" and mode == opcodes.MODE_RR:
                t = flow.tagmask
                if t:
                    if t & (1 << inst.rm):
                        flow.tagmask = t | (1 << inst.reg)
                    else:
                        flow.tagmask = t & ~(1 << inst.reg)
            elif m == "mov" and mode == opcodes.MODE_RI:
                if result in flow.derand_map:
                    flow.tagmask |= 1 << inst.reg
                elif flow.tagmask:
                    flow.tagmask &= ~(1 << inst.reg)
            elif flow.tagmask:  # loads and arithmetic: untagged
                flow.tagmask &= ~(1 << inst.reg)

    return (CTRL_NONE, 0)


#: Mnemonic -> handler table.  One entry per mnemonic the decoder can
#: produce (the conditional-branch family shares ``_op_jcc``, the
#: two-operand ALU/mov group shares ``_op_alu``).
DISPATCH: Dict[str, object] = {
    "movi": _op_movi,
    "push": _op_push,
    "pop": _op_pop,
    "nop": _op_nop,
    "halt": _op_halt,
    "int": _op_int,
    "leave": _op_leave,
    "jmp": _op_jmp,
    "jmp8": _op_jmp,
    "call": _op_call,
    "calli": _op_calli,
    "jmpi": _op_jmpi,
    "ret": _op_ret,
    "shl": _op_shift,
    "shr": _op_shift,
    "sar": _op_shift,
    "lea": _op_lea,
}
DISPATCH.update(("j" + name, _op_jcc) for name in opcodes.CC_NAMES)
DISPATCH.update(
    (name, _op_alu)
    for name in ("mov", "add", "sub", "cmp", "test", "and", "or", "xor",
                 "imul")
)


# -- specialized semantics: the shape template table -------------------------
#
# The block and trace tiers run RX86 semantics as generated Python, and
# the templates below are their one source.  For one instruction
# *shape* (:func:`shape_of`) a template emits the straight-line source
# implementing exactly the matching ``_op_*`` handler above — same side
# effects, same observable intermediate state on a fault, same flag
# algebra — with the instruction's operand fields as ``{field}``
# placeholders (:data:`FIELDS`).  The trace tier
# (:mod:`repro.arch.tracecache`) renders the fields as literals into one
# function per hot superblock; the block tier
# (:mod:`repro.arch.blockcache`) renders them as parameter names,
# compiles one handler factory per shape and instantiates it per
# instruction.  Two decodable shapes have no template: ``halt`` (the
# block tier binds ``_op_halt``; it ends the run, so no loop trace
# holds one) and ``imul``'s store form (the block tier binds
# ``_op_alu``, which raises before the block completes, so no trace
# records it).  The generic handlers stay the reference: the
# differential suites (tests/test_block_shapes.py,
# tests/test_fastpath_equivalence.py, repro.qa) hold both tiers to them.
#
# Generated-scope name contract (bound by both compilers):
#
# ``st`` (MachineState), ``regs`` (register list), ``flags``, ``rd``/
# ``wr`` (mem.read_u32/write_u32), ``pages``/``u32``/``p32`` (the
# inlined word access of :mod:`repro.arch.memory`), ``syscall``,
# ``flow``, ``fixup`` (flow.fixup_load), ``note_store``, ``note_push``
# (note_retaddr_push), ``call_ret`` (call_retaddr).  Templates may
# define locals ``a``, ``b_``, ``r_``, ``t_``, ``v``, ``ov``, ``addr``,
# ``sp``, ``tgt``, ``ret_``, ``p_``.

_M32 = "4294967295"
_SIGN = "2147483648"

#: Operand fields a template references as ``{name}``: name -> the
#: Python expression of the field's value over an Instruction ``inst``.
#: The trace tier evaluates it into a literal; the block tier inlines
#: it into each shape's handler factory.  The renderers bind two more
#: names: ``{inst}`` (the Instruction object) and ``{ret}`` (a return
#: address the trace tier folded at compile time).
FIELDS = {
    "reg": "inst.reg",
    "rm": "inst.rm",
    "disp": "inst.disp",
    "imm": "inst.imm & " + _M32,
    "count": "inst.imm & 31",
    "vector": "inst.imm",
    "rbit": "1 << inst.reg",
    "rnot": "~(1 << inst.reg)",
    "mbit": "1 << inst.rm",
    "mnot": "~(1 << inst.rm)",
    "target": "inst.target",
}
_FIELD_VALUE = {name: eval("lambda inst: " + expr)
                for name, expr in FIELDS.items()}

#: ``addr = regs[rm] + disp`` (32-bit wrap): every memory operand.
_ADDR = "addr = (regs[{rm}] + {disp}) & " + _M32


def shape_of(inst: Instruction, randomized: bool, derand_map) -> tuple:
    """The template key of ``inst`` under a flow.

    ``(mnemonic, mode, cc, randomized, tagged)``.  ``tagged`` is the
    ``value in derand_map`` outcome of an immediate materialization
    (``movi``/``mov ri``) under a randomized flow, folded at compile
    time: the producer map only changes on a re-randomization epoch,
    which flushes every compiled block and trace (the same contract
    that lets the block cache freeze per-op ``arch_pc``).
    """
    m = inst.mnemonic
    mode = inst.mode
    tagged = (randomized
              and (m == "movi" or (m == "mov" and mode == opcodes.MODE_RI))
              and (inst.imm & MASK32) in derand_map)
    return (m, mode, inst.cc, randomized, tagged)


def _src_flags_logic(result: str):
    """Inline ``Flags.set_logic`` (CF=OF=0)."""
    return [
        "flags.zf = %s == 0" % result,
        "flags.sf = (%s & %s) != 0" % (result, _SIGN),
        "flags.cf = False",
        "flags.of = False",
    ]


def _src_flags_add(a: str, b: str, total: str, result: str):
    """Inline ``Flags.set_add``."""
    return [
        "flags.zf = %s == 0" % result,
        "flags.sf = (%s & %s) != 0" % (result, _SIGN),
        "flags.cf = %s > %s" % (total, _M32),
        "flags.of = ((~(%s ^ %s)) & (%s ^ %s) & %s) != 0"
        % (a, b, a, result, _SIGN),
    ]


def _src_flags_sub(a: str, b: str, result: str):
    """Inline ``Flags.set_sub`` (``result`` holds ``(a - b) & MASK32``)."""
    return [
        "flags.zf = %s == 0" % result,
        "flags.sf = (%s & %s) != 0" % (result, _SIGN),
        "flags.cf = %s > %s" % (b, a),
        "flags.of = ((%s ^ %s) & (%s ^ %s) & %s) != 0"
        % (a, b, a, result, _SIGN),
    ]


def _src_tag_clear(keep: str):
    """Inline the handlers' ``if tagmask: tagmask &= ~bit`` maintenance
    (``keep`` renders ``~bit``)."""
    return [
        "if flow.tagmask:",
        "    flow.tagmask &= %s" % keep,
    ]


def _src_result(randomized: bool, dest: str = "{reg}",
                keep: str = "{rnot}"):
    """Write ``r_`` back to ``regs[dest]``: an arithmetic result, hence
    untagged."""
    lines = ["regs[%s] = r_" % dest]
    if randomized:
        lines += _src_tag_clear(keep)
    return lines


#: Python operator of each logic mnemonic (``test`` is a flags-only and).
_LOGIC_OPS = {"test": "&", "and": "&", "or": "|", "xor": "^"}

#: Condition-code expressions, mirroring ``Flags.evaluate``.
_CC_SRC = {
    opcodes.CC_Z: "flags.zf",
    opcodes.CC_NZ: "not flags.zf",
    opcodes.CC_L: "flags.sf != flags.of",
    opcodes.CC_GE: "flags.sf == flags.of",
    opcodes.CC_LE: "flags.zf or flags.sf != flags.of",
    opcodes.CC_G: "not flags.zf and flags.sf == flags.of",
    opcodes.CC_B: "flags.cf",
    opcodes.CC_AE: "not flags.cf",
}


def _read_src(dest: str, addr: str):
    """A raw 32-bit load into ``dest``."""
    setup, word = read_u32_src(addr)
    return [setup, "%s = %s" % (dest, word)]


def _load_src(randomized: bool, dest: str, addr: str):
    """A fixed-up 32-bit load into ``dest`` (baseline fixup is identity)."""
    if not randomized:
        return _read_src(dest, addr)
    setup, word = read_u32_src(addr)
    return [setup, "%s = fixup(%s, %s)" % (dest, addr, word)]


def exec_template(shape: tuple):
    """Execute-stage template for a CTRL_NONE shape.

    Returns ``{"lines", "loads", "stores", "can_event"}`` — ``loads``/
    ``stores`` name locals holding data addresses (in the order the fast
    loop probes them), ``can_event`` says whether the op can append flow
    events (loads through ``fixup``) — or None for the one decodable
    CTRL_NONE shape without a template, ``imul``'s store form, which
    the reference rejects (the block tier binds the generic handler, so
    the fault is the reference's own).  The two-operand ALU group
    shares one template over its four modes.  For ``int`` the
    syscall is the first line: the trace tier wraps it in its own
    ExitProgram unwind.
    """
    m, mode, _cc, randomized, tagged = shape
    RR, RI = opcodes.MODE_RR, opcodes.MODE_RI
    RM, MR = opcodes.MODE_RM, opcodes.MODE_MR

    def out(lines, loads=(), stores=()):
        return {
            "lines": lines,
            "loads": list(loads),
            "stores": list(stores),
            "can_event": randomized and bool(loads),
        }

    if m == "nop":
        return out([])

    if m == "int":
        lines = ["syscall({vector})"]
        if randomized:  # syscalls may write EAX (ICOUNT): plain data
            lines += _src_tag_clear("-2")
        return out(lines)

    if m == "movi" or (m == "mov" and mode == RI):
        lines = ["regs[{reg}] = {imm}"]
        if randomized:
            lines += (["flow.tagmask |= {rbit}"] if tagged
                      else _src_tag_clear("{rnot}"))
        return out(lines)

    if m == "mov":
        if mode == RR:
            lines = ["regs[{reg}] = regs[{rm}]"]
            if randomized:  # register moves propagate the tag bit
                lines += [
                    "t_ = flow.tagmask",
                    "if t_:",
                    "    flow.tagmask = (t_ | {rbit}) if t_ & {mbit}"
                    " else (t_ & {rnot})",
                ]
            return out(lines)
        if mode == RM:
            lines = [_ADDR] + _load_src(randomized, "regs[{reg}]", "addr")
            if randomized:
                lines += _src_tag_clear("{rnot}")
            lines.append("st.last_load_addr = addr")
            return out(lines, loads=["addr"])
        if mode == MR:
            lines = [_ADDR, "v = regs[{reg}]"] + write_u32_src("addr", "v")
            if randomized:
                lines.append("note_store(addr, v, flow.tagmask & {rbit} != 0)")
            lines.append("st.last_store_addr = addr")
            return out(lines, stores=["addr"])
        return None

    if m in ("add", "sub", "cmp", "test", "and", "or", "xor", "imul"):
        # ``_op_alu``'s order: fetch the operands, compute the result
        # and the flags, write back.  The flags read the operands before
        # the write-back, so ``add r, r`` needs no copy of its source.
        if m == "imul" and mode == MR:
            return None  # the reference rejects imul's store form
        a = "a" if mode == MR else "regs[{reg}]"
        b = {RR: "regs[{rm}]", RI: "{imm}", RM: "b_", MR: "regs[{reg}]"}[mode]
        lines, loads = [], []
        if mode == RM or mode == MR:  # the memory operand, fixed up
            lines = [_ADDR] + _load_src(randomized, "b_" if mode == RM
                                        else "a", "addr")
            lines.append("st.last_load_addr = addr")
            loads = ["addr"]
        if m in _LOGIC_OPS:
            lines.append("r_ = %s %s %s" % (a, _LOGIC_OPS[m], b))
            lines += _src_flags_logic("r_")
        else:
            if a != "a":
                lines.append("a = " + a)
            if m == "add":
                lines += ["t_ = a + %s" % b, "r_ = t_ & " + _M32]
                lines += _src_flags_add("a", b, "t_", "r_")
            elif m != "imul":
                lines.append("r_ = (a - %s) & %s" % (b, _M32))
                lines += _src_flags_sub("a", b, "r_")
            else:  # the exact signed product, for the CF/OF rule
                if b != "b_":
                    lines.append("b_ = " + b)
                lines += [
                    "a = a - 4294967296 if a & %s else a" % _SIGN,
                    "b_ = b_ - 4294967296 if b_ & %s else b_" % _SIGN,
                    "t_ = a * b_",
                    "r_ = t_ & %s" % _M32,
                    "v = r_ - 4294967296 if r_ & %s else r_" % _SIGN,
                    "ov = v != t_",
                    "flags.zf = r_ == 0",
                    "flags.sf = (r_ & %s) != 0" % _SIGN,
                    "flags.cf = ov",
                    "flags.of = ov",
                ]
        if m in ("cmp", "test"):
            return out(lines, loads)
        if mode != MR:
            return out(lines + _src_result(randomized), loads)
        lines += write_u32_src("addr", "r_")
        if randomized:  # a read-modify-write result is untagged
            lines.append("note_store(addr, r_)")
        lines.append("st.last_store_addr = addr")
        return out(lines, loads, stores=["addr"])

    if m in ("shl", "shr", "sar"):
        if m == "shl":
            lines = ["r_ = (regs[{rm}] << {count}) & " + _M32]
        elif m == "shr":
            lines = ["r_ = regs[{rm}] >> {count}"]
        else:
            lines = [
                "v = regs[{rm}]",
                "v = v - 4294967296 if v & %s else v" % _SIGN,
                "r_ = (v >> {count}) & " + _M32,
            ]
        lines += _src_result(randomized, "{rm}", "{mnot}")
        return out(lines + _src_flags_logic("r_"))

    if m == "lea" and mode == RM:
        lines = ["regs[{reg}] = (regs[{rm}] + {disp}) & " + _M32]
        if randomized:
            lines += _src_tag_clear("{rnot}")
        return out(lines)

    if m == "push":
        lines = [
            "v = regs[{reg}]",
            "sp = (regs[4] - 4) & %s" % _M32,
            "regs[4] = sp",
        ]
        lines += write_u32_src("sp", "v")
        if randomized:
            lines.append("note_store(sp, v, flow.tagmask & {rbit} != 0)")
        lines.append("st.last_store_addr = sp")
        return out(lines, stores=["sp"])

    if m == "pop":
        lines = ["sp = regs[4]"] + _read_src("v", "sp")
        lines.append("regs[4] = (sp + 4) & %s" % _M32)
        if randomized:
            lines.append("regs[{reg}] = fixup(sp, v)")
            lines += _src_tag_clear("{rnot}")
        else:
            lines.append("regs[{reg}] = v")
        lines.append("st.last_load_addr = sp")
        return out(lines, loads=["sp"])

    if m == "leave":
        lines = ["regs[4] = regs[5]", "sp = regs[4]"] + _read_src("v", "sp")
        lines.append("regs[4] = (sp + 4) & %s" % _M32)
        if randomized:
            lines += [
                "regs[5] = fixup(sp, v)",
                "t_ = flow.tagmask",
                "if t_:",
                "    flow.tagmask = ((t_ | 16) if t_ & 32 else (t_ & -17))"
                " & -33",
            ]
        else:
            lines.append("regs[5] = v")
        lines.append("st.last_load_addr = sp")
        return out(lines, loads=["sp"])

    return None


def term_template(shape: tuple, fold_ret: bool = False):
    """Control-flow template for a block-terminal shape.

    Returns a dict with ``kind`` ('jcc'/'jump'/'call'/'ret'/'calli'/
    'jmpi'), side-effect ``lines`` (run before the data-stall probes),
    ``loads``/``stores``, the control kind ``ctrl``, the condition
    expression ``cond`` (jcc only), and ``target_var``: the local
    holding a dynamic target, or None for a direct transfer to
    ``{target}`` — or None when the shape has no template (``halt``).
    With ``fold_ret`` a call pushes the ``{ret}`` literal instead of
    calling ``call_ret`` at run time; the trace tier folds it whenever
    the call does not fault at compile time, and replays the 'rand'
    lookup it queues (when the flow records events) as a literal
    append.
    """
    m, mode, cc, randomized, _tagged = shape

    def plan(kind, ctrl, lines=(), loads=(), stores=(), cond=None,
             target_var=None):
        return {
            "kind": kind, "ctrl": ctrl, "cond": cond, "lines": list(lines),
            "loads": list(loads), "stores": list(stores),
            "target_var": target_var,
        }

    if cc is not None:
        return plan("jcc", CTRL_JUMP, cond=_CC_SRC[cc])
    if m in ("jmp", "jmp8"):
        return plan("jump", CTRL_JUMP)

    def push_ret():
        if fold_ret:
            lines = []
            ret = "{ret}"
        else:
            lines = ["ret_ = call_ret({inst})"]
            ret = "ret_"
        lines += [
            "sp = (regs[4] - 4) & %s" % _M32,
            "regs[4] = sp",
        ]
        lines += write_u32_src("sp", ret)
        if randomized:
            lines.append("note_push(sp, %s)" % ret)
        lines += [
            "st.last_store_addr = sp",
            "st.last_retaddr = %s" % ret,
        ]
        return lines

    if m == "call":
        return plan("call", CTRL_CALL, push_ret(), stores=["sp"])
    if m == "ret":
        # The popped value is a control target: NOT run through fixup.
        lines = ["sp = regs[4]"] + _read_src("tgt", "sp") + [
            "regs[4] = (sp + 4) & %s" % _M32,
            "st.last_load_addr = sp",
        ]
        return plan("ret", CTRL_RET, lines, loads=["sp"], target_var="tgt")
    if m in ("calli", "jmpi"):
        if mode == opcodes.MODE_RR:
            lines = ["tgt = regs[{rm}]"]
            loads = []
        else:
            lines = [_ADDR] + _read_src("tgt", "addr")
            lines.append("st.last_load_addr = addr")
            loads = ["addr"]
        if m == "calli":
            return plan("calli", CTRL_CALL, lines + push_ret(), loads,
                        stores=["sp"], target_var="tgt")
        return plan("jmpi", CTRL_JUMP, lines, loads, target_var="tgt")
    return None


class _Literals(dict):
    """One instruction's template fields as source literals, computed
    on first use (fields a shape does not have are never read)."""

    def __init__(self, decoded: Instruction, **bound):
        super().__init__(bound)
        self.decoded = decoded

    def __missing__(self, key):
        return _FIELD_VALUE[key](self.decoded)


def _render(plan, inst: Instruction, n: int, ret=None):
    """``plan`` with ``inst``'s fields rendered as literals and
    ``{inst}`` as the trace-scope name ``i{n}`` (None passes through)."""
    if plan is not None:
        fields = _Literals(inst, inst="i%d" % n, ret=ret)
        plan["lines"] = [line.format_map(fields) for line in plan["lines"]]
    return plan


def inline_exec_src(inst: Instruction, n: int, randomized: bool,
                    derand_map=None):
    """:func:`exec_template` of ``inst``, rendered for the trace tier."""
    return _render(exec_template(shape_of(inst, randomized,
                                          derand_map or {})), inst, n)


def inline_term_src(inst: Instruction, n: int, randomized: bool,
                    retaddr=None):
    """:func:`term_template` of ``inst``, rendered for the trace tier;
    ``retaddr`` is a return address folded at compile time (see
    ``fold_ret``)."""
    plan = term_template(shape_of(inst, randomized, {}),
                         fold_ret=retaddr is not None)
    return _render(plan, inst, n, retaddr)


def execute(inst: Instruction, state: MachineState, flow):
    """Execute one instruction under ``flow`` (any flow of
    :mod:`repro.ilr.flow`); returns ``(kind, target)``.

    ``target`` is the architectural branch target for JUMP/CALL/RET, else 0.
    The caller is responsible for updating ``state.pc`` (so that the cycle
    simulator can interleave translation and security checks) — except for
    register/flag/memory side effects, which happen here.

    May raise :class:`~repro.arch.state.ExitProgram` (EXIT syscall) or
    :class:`ExecutionError`.
    """
    state.icount += 1
    state.last_load_addr = None
    state.last_store_addr = None
    handler = DISPATCH.get(inst.mnemonic)
    if handler is None:
        raise ExecutionError("no semantics for %s" % inst.mnemonic)
    return handler(inst, state, flow)
