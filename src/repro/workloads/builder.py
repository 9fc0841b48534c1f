"""Program-construction DSL over the RX86 assembler.

The benchmark programs of :mod:`repro.workloads.programs` are real
programs — they compute checksums over real data structures and verify
them — but they are *generated*, so each one can be parameterized by a
scale factor and can be given the code-footprint / branch-mix / data-set
shape of the SPEC CPU2006 application it stands in for.

The builder collects assembly lines for the code and data sections,
hands out unique labels, and provides the common idioms (function
prologue/epilogue, bounded loops, LCG random numbers, EMIT/EXIT).
"""

from __future__ import annotations

from typing import List

from ..binary import BinaryImage
from ..isa import assemble


class ProgramBuilder:
    """Accumulates an RX86 assembly program."""

    def __init__(self, name: str, code_base: int = 0x400000,
                 data_base: int = 0x8000000):
        self.name = name
        self._code: List[str] = [".code 0x%x" % code_base]
        self._data: List[str] = [".data 0x%x" % data_base]
        self._counter = 0

    # -- raw emission --------------------------------------------------------

    def emit(self, line: str) -> None:
        """Append one line of code-section assembly."""
        self._code.append("    " + line if not line.endswith(":") else line)

    def emits(self, *lines: str) -> None:
        for line in lines:
            self.emit(line)

    def label(self, name: str) -> None:
        self._code.append(name + ":")

    def data(self, line: str) -> None:
        self._data.append("    " + line if not line.endswith(":") else line)

    def data_label(self, name: str) -> None:
        self._data.append(name + ":")

    def unique(self, prefix: str = "L") -> str:
        """A fresh local label (dot-prefixed: not a function symbol)."""
        self._counter += 1
        return ".%s_%s_%d" % (prefix, self.name, self._counter)

    # -- common idioms ------------------------------------------------------------

    def func(self, name: str) -> None:
        """Open a function with the standard prologue."""
        self.label(name)
        self.emits("push ebp", "mov ebp, esp")

    def endfunc(self) -> None:
        """Standard epilogue + return."""
        self.emits("mov esp, ebp", "pop ebp", "ret")

    def loop(self, counter_reg: str, bound: int, body) -> None:
        """``for (reg = 0; reg < bound; reg++) body()`` — clobbers the reg."""
        top = self.unique("loop")
        self.emit("movi %s, 0" % counter_reg)
        self.label(top)
        body()
        self.emit("add %s, 1" % counter_reg)
        self.emit("cmp %s, %d" % (counter_reg, bound))
        self.emit("jl %s" % top)

    def lcg_step(self, reg: str, tmp: str = "edx") -> None:
        """Advance a linear congruential PRNG held in ``reg``.

        x = x * 1103515245 + 12345 (mod 2^32); clobbers ``tmp``.
        """
        self.emits(
            "movi %s, 1103515245" % tmp,
            "imul %s, %s" % (reg, tmp),
            "add %s, 12345" % reg,
        )

    def emit_word(self, reg: str) -> None:
        """EMIT the 32-bit value of ``reg`` to the output stream."""
        if reg != "ebx":
            self.emit("mov ebx, %s" % reg)
        self.emits("movi eax, 5", "int 0x80")

    def exit(self, code: int = 0) -> None:
        self.emits("movi eax, 1", "movi ebx, %d" % code, "int 0x80")

    # -- finalization -------------------------------------------------------------------

    def source(self) -> str:
        return "\n".join(self._code) + "\n" + "\n".join(self._data) + "\n"

    def image(self) -> BinaryImage:
        """Assemble the accumulated program."""
        return assemble(self.source())


def jump_table(builder: ProgramBuilder, name: str, targets: List[str]) -> str:
    """Emit a data-section jump table; returns its label."""
    builder.data_label(name)
    builder.data(".word " + ", ".join(targets))
    return name


def dispatch_indexed(
    builder: ProgramBuilder,
    table: str,
    index_reg: str,
    size: int,
    scratch: str = "edx",
    call: bool = False,
) -> None:
    """Indirect dispatch through ``table[index_reg % size]``.

    ``size`` must be a power of two.  Clobbers ``scratch`` and the index.
    """
    assert size & (size - 1) == 0, "dispatch table size must be a power of two"
    builder.emits(
        "and %s, %d" % (index_reg, size - 1),
        "shl %s, 2" % index_reg,
        "movi %s, %s" % (scratch, table),
        "add %s, %s" % (scratch, index_reg),
        ("calli [%s+0]" if call else "jmpi [%s+0]") % scratch,
    )
