"""Decoded instruction model for RX86.

A :class:`Instruction` is the normal-form representation produced by the
decoder and consumed by the executor, the static analyses, the randomizer
and the gadget scanner.  It is deliberately flat (plain integer fields,
``__slots__`` storage) so the cycle simulator can interrogate it cheaply
in its hot loop: the slot layout keeps every field access monomorphic —
no per-instance ``__dict__`` probe — which matters when the block fast
path replays millions of pre-decoded instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import opcodes
from .registers import reg_name


@dataclass(slots=True)
class Instruction:
    """One decoded RX86 instruction.

    Attributes
    ----------
    mnemonic:
        Canonical lowercase mnemonic (``add``, ``jz``, ``calli`` …).
    addr:
        Address the instruction was decoded at (original address space).
    length:
        Encoded length in bytes.
    mode:
        ModRM addressing mode (``MODE_RR``/``RM``/``MR``/``RI``) or None.
    reg / rm:
        ModRM register fields (register numbers, or sub-opcode for groups).
    disp:
        Signed 32-bit displacement for memory operands.
    imm:
        Immediate value: imm32/imm8, or the *relative* branch displacement
        for rel8/rel32 forms (signed).
    cc:
        Condition code for conditional branches, else None.
    """

    mnemonic: str
    addr: int
    length: int
    mode: Optional[int] = None
    reg: Optional[int] = None
    rm: Optional[int] = None
    disp: int = 0
    imm: int = 0
    cc: Optional[int] = None

    # -- classification ----------------------------------------------------

    @property
    def is_control(self) -> bool:
        """True for every control transfer (branch, jump, call, ret)."""
        return self.mnemonic in _CONTROL

    @property
    def is_direct_branch(self) -> bool:
        """True for PC-relative transfers whose target is encoded inline."""
        return self.mnemonic in _DIRECT

    @property
    def is_indirect_branch(self) -> bool:
        """True for register/memory-indirect transfers and ``ret``."""
        return self.mnemonic in _INDIRECT

    @property
    def is_call(self) -> bool:
        return self.mnemonic in ("call", "calli")

    @property
    def is_return(self) -> bool:
        return self.mnemonic == "ret"

    @property
    def is_halt(self) -> bool:
        return self.mnemonic == "halt"

    @property
    def next_addr(self) -> int:
        """Fall-through address (original address space)."""
        return self.addr + self.length

    @property
    def target(self) -> Optional[int]:
        """Static target of a direct branch, else None."""
        if self.mnemonic in _DIRECT:
            return (self.addr + self.length + self.imm) & 0xFFFFFFFF
        return None

    @property
    def reads_memory(self) -> bool:
        if self.mnemonic == "lea":
            return False
        if self.mode == opcodes.MODE_RM:
            return True
        if self.mnemonic == "jmpi" or self.mnemonic == "calli":
            return self.mode == opcodes.MODE_RM
        return self.mnemonic in ("pop", "ret", "leave")

    @property
    def writes_memory(self) -> bool:
        if self.mode == opcodes.MODE_MR:
            return True
        return self.mnemonic in ("push", "call", "calli")

    # -- pretty printing ----------------------------------------------------

    def __str__(self) -> str:
        return "%08x: %s" % (self.addr, self.text())

    def text(self) -> str:
        """Render assembler-compatible text for this instruction."""
        m = self.mnemonic
        if m in ("nop", "halt", "ret", "leave"):
            return m
        if m in ("push", "pop"):
            return "%s %s" % (m, reg_name(self.reg))
        if m == "movi":
            return "movi %s, %d" % (reg_name(self.reg), self.imm)
        if m == "int":
            return "int %d" % self.imm
        if m in ("call", "jmp", "jmp8") or (self.cc is not None):
            base = "jmp" if m == "jmp8" else m
            return "%s 0x%x" % (base, self.target)
        if m in ("shl", "shr", "sar"):
            return "%s %s, %d" % (m, reg_name(self.rm), self.imm)
        if m in ("calli", "jmpi"):
            if self.mode == opcodes.MODE_RR:
                return "%s %s" % (m, reg_name(self.rm))
            return "%s [%s%+d]" % (m, reg_name(self.rm), self.disp)
        # Two-operand ALU / mov / lea forms.
        if self.mode == opcodes.MODE_RR:
            return "%s %s, %s" % (m, reg_name(self.reg), reg_name(self.rm))
        if self.mode == opcodes.MODE_RM:
            return "%s %s, [%s%+d]" % (m, reg_name(self.reg), reg_name(self.rm), self.disp)
        if self.mode == opcodes.MODE_MR:
            return "%s [%s%+d], %s" % (m, reg_name(self.rm), self.disp, reg_name(self.reg))
        return "%s %s, %d" % (m, reg_name(self.reg), self.imm)


_DIRECT = frozenset(
    ["call", "jmp", "jmp8"] + ["j" + name for name in opcodes.CC_NAMES]
)
_INDIRECT = frozenset(["calli", "jmpi", "ret"])
_CONTROL = _DIRECT | _INDIRECT
