"""Architectural machine state and program-exit signalling."""

from __future__ import annotations

from typing import Optional

from ..isa.flags import Flags
from ..isa.registers import ESP, MASK32, RegisterFile
from ..isa.syscalls import (
    SYS_EMIT,
    SYS_EXIT,
    SYS_ICOUNT,
    SYS_PUTC,
    SYSCALL_VECTOR,
    OutputStream,
    SyscallError,
)
from ..isa.registers import EAX, EBX
from .memory import SparseMemory


class ExitProgram(Exception):
    """Raised by the EXIT syscall to unwind out of the execution loop."""

    def __init__(self, code: int):
        super().__init__("program exited with code %d" % code)
        self.code = code


class MachineState:
    """Registers + flags + memory + output of one executing program.

    ``pc`` is the *architectural* program counter — in randomized space
    when executing a randomized binary (naive ILR / VCFR), in the original
    space otherwise.  The mode adapters own the interpretation.
    """

    __slots__ = (
        "regs", "flags", "mem", "out", "pc", "icount", "exit_code",
        "last_load_addr", "last_store_addr", "last_retaddr",
    )

    def __init__(self, mem: Optional[SparseMemory] = None, stack_top: int = 0):
        self.regs = RegisterFile(stack_pointer=stack_top)
        self.flags = Flags()
        self.mem = mem if mem is not None else SparseMemory()
        self.out = OutputStream()
        self.pc = 0
        self.icount = 0
        self.exit_code: Optional[int] = None
        #: Address of the most recent data load / store (None if the last
        #: instruction had no data access) — consumed by the timing model.
        self.last_load_addr: Optional[int] = None
        self.last_store_addr: Optional[int] = None
        #: Return address pushed by the most recent call (architectural
        #: value) — consumed by the RAS model in the cycle simulator.
        self.last_retaddr: Optional[int] = None

    # -- stack helpers -----------------------------------------------------------

    def push(self, value: int) -> int:
        """Push a 32-bit value; returns the slot address."""
        sp = (self.regs.regs[ESP] - 4) & MASK32
        self.regs.regs[ESP] = sp
        self.mem.write_u32(sp, value)
        return sp

    def pop(self) -> tuple:
        """Pop a 32-bit value; returns ``(value, slot_address)``."""
        sp = self.regs.regs[ESP]
        value = self.mem.read_u32(sp)
        self.regs.regs[ESP] = (sp + 4) & MASK32
        return value, sp

    # -- syscalls ----------------------------------------------------------------

    def syscall(self, vector: int) -> None:
        """Handle ``int vector``; only ``SYSCALL_VECTOR`` (0x80) is defined."""
        if vector != SYSCALL_VECTOR:
            raise SyscallError("unknown interrupt vector 0x%x" % vector)
        num = self.regs.regs[EAX]
        arg = self.regs.regs[EBX]
        if num == SYS_EXIT:
            self.exit_code = arg
            raise ExitProgram(arg)
        if num == SYS_PUTC:
            self.out.putc(arg)
        elif num == SYS_EMIT:
            self.out.emit(arg)
        elif num == SYS_ICOUNT:
            self.regs.regs[EAX] = self.icount & MASK32
        else:
            raise SyscallError("unknown syscall %d" % num)
