"""Seed-deterministic, coverage-guided random RX86 program generator.

The qa subsystem's front half: produce *valid, always-terminating*
RX86 programs that exercise as much of the ISA surface and as many of
the randomizer-sensitive idioms as possible — variable-length
encodings, direct and indirect control flow, jump tables, in-code code
pointers, bounded loops, stack traffic, and syscall output — so the
differential oracle (:mod:`repro.qa.oracle`) has interesting inputs to
cross-check across every engine.

Design rules that make every generated program a *legal* oracle input:

* **Termination** — the call graph is a DAG (function ``i`` may only
  call functions ``j > i``) and every loop is a bounded counted loop
  whose counter register is reserved while the loop body is generated.
* **Mode-invariant observables** — code-pointer *values* differ across
  randomization modes (exactly as under ASLR), so registers that ever
  held a code pointer are zeroed before they can flow into output, and
  data slots that hold code pointers are never EMITted.
* **Deterministic data flow** — all memory traffic lands in generated
  data arrays or the stack; output is produced only through the
  PUTC/EMIT/ICOUNT syscall ABI, which is identical in every engine.

Coverage guidance is deliberately simple: every emitted idiom and
instruction form is a *feature* recorded in a shared
:class:`Coverage` map, and random choices are biased toward the
least-covered candidates, so a session's programs collectively sweep
the feature space instead of resampling the easy middle.  Each choice
is noted under the candidate it picked, so the counts the bias reads
are the picks themselves.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..binary import BinaryImage
from ..isa import assemble

__all__ = [
    "Coverage",
    "GeneratorConfig",
    "GeneratedProgram",
    "ProgramGenerator",
]

#: Scratch registers the generator may clobber freely.  ``esp``/``ebp``
#: keep their frame roles so prologue/epilogue idioms stay honest.
SCRATCH_REGS = ("eax", "ecx", "edx", "ebx", "esi", "edi")

#: Condition-code suffixes of the Jcc family.
CC_SUFFIXES = ("z", "nz", "l", "ge", "le", "g", "b", "ae")

#: The kinds of straight-line op :meth:`_FunctionEmitter.one_op` picks
#: from.
OP_KINDS = (
    "alu:rr", "alu:ri", "movi", "mov:rr", "load", "store", "shift",
    "imul", "lea", "pushpop", "nop", "test:rr", "alu:rm", "alu:mr",
)

#: ALU ops with a load form (``op r, [m]``) and with a store form
#: (``op [m], r``, which ``imul`` lacks).
ALU_LOAD_OPS = ("add", "sub", "cmp", "test", "and", "or", "xor", "imul")
ALU_STORE_OPS = ALU_LOAD_OPS[:-1]


class Coverage:
    """Feature-hit counts shared across one fuzzing session.

    A *feature* is a short string key — an instruction form
    (``"add:rr"``), an idiom (``"idiom:switch"``), or a syscall
    (``"sys:putc"``).  :meth:`choose` biases selection toward the
    least-covered candidates while staying fully deterministic for a
    given RNG stream.
    """

    def __init__(self):
        self.counts: Counter = Counter()

    def note(self, feature: str) -> None:
        self.counts[feature] += 1

    def choose(self, rng: random.Random, candidates: Sequence[str]) -> str:
        """Pick one candidate, favouring the least-covered ones.

        Half the time choose uniformly (keeps hot idioms exercised in
        *combination* with everything else); otherwise choose among the
        candidates with the current minimum hit count.
        """
        if not candidates:
            raise ValueError("no candidates")
        if rng.random() < 0.5:
            return rng.choice(list(candidates))
        low = min(self.counts[c] for c in candidates)
        floor = [c for c in candidates if self.counts[c] == low]
        return rng.choice(floor)

    def covered(self) -> int:
        """Number of distinct features seen so far."""
        return len(self.counts)


@dataclass
class GeneratorConfig:
    """Shape knobs of generated programs.

    Defaults target small programs (a few hundred retired
    instructions) so the quick deterministic tier can push hundreds of
    programs through the full engine matrix in well under a minute.
    """

    min_functions: int = 2
    max_functions: int = 5
    #: straight-line ops per generated segment.
    min_ops: int = 2
    max_ops: int = 6
    #: bounded-loop iteration cap.
    max_loop_bound: int = 5
    #: words per data array.
    array_words: int = 32
    #: probability of ending the program with ``halt`` instead of EXIT.
    halt_probability: float = 0.05


@dataclass
class GeneratedProgram:
    """One generated program plus its provenance."""

    source: str
    seed: int
    index: int
    #: feature keys this program exercised (subset of the session
    #: coverage map).
    features: List[str] = field(default_factory=list)

    def image(self) -> BinaryImage:
        """Assemble the program (generated programs always assemble)."""
        return assemble(self.source)

    def label(self) -> str:
        return "fuzz-%d-%d" % (self.seed, self.index)


class _FunctionEmitter:
    """Emits the body of one generated function."""

    def __init__(self, gen: "ProgramGenerator", index: int,
                 num_functions: int):
        self.gen = gen
        self.rng = gen.rng
        self.index = index
        self.num_functions = num_functions
        self.lines: List[str] = []
        #: registers currently reserved (loop counters, table bases).
        self.reserved: set = set()
        self._label_counter = 0

    # -- plumbing ----------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def emit_label(self, name: str) -> None:
        self.lines.append(name + ":")

    def local_label(self, tag: str) -> str:
        self._label_counter += 1
        return ".L%d_%s_%d" % (self.index, tag, self._label_counter)

    def free_regs(self) -> List[str]:
        return [r for r in SCRATCH_REGS if r not in self.reserved]

    def pick_reg(self) -> str:
        return self.rng.choice(self.free_regs())

    def note(self, feature: str) -> str:
        self.gen.coverage.note(feature)
        self.gen.features.append(feature)
        return feature

    def choose(self, candidates: Sequence[str]) -> str:
        """Pick one of ``candidates`` by coverage and note the pick, so
        the counts :meth:`Coverage.choose` favours by are its picks."""
        return self.note(self.gen.coverage.choose(self.rng, candidates))

    # -- straight-line ops -------------------------------------------------

    def random_ops(self, count: int) -> None:
        for _ in range(count):
            self.one_op()

    def array_operand(self, regs: List[str]):
        """Point a register at a random data-array word; returns the
        ``[base+disp]`` operand and a register of ``regs`` other than
        ``base`` (``base`` itself when there is none)."""
        rng = self.rng
        base = self.pick_reg()
        array = rng.choice(self.gen.arrays)
        disp = 4 * rng.randrange(self.gen.config.array_words)
        self.emit("movi %s, %s" % (base, array))
        other = rng.choice([r for r in regs if r != base] or [base])
        return "[%s+%d]" % (base, disp), other

    def one_op(self) -> None:
        rng = self.rng
        kind = self.choose(OP_KINDS)
        regs = self.free_regs()
        r1, r2 = rng.choice(regs), rng.choice(regs)
        if kind == "alu:rr":
            op = rng.choice(("add", "sub", "xor", "or", "and"))
            self.emit("%s %s, %s" % (op, r1, r2))
            self.note("%s:rr" % op)
        elif kind == "alu:ri":
            op = rng.choice(("add", "sub", "xor", "or", "and", "cmp"))
            self.emit("%s %s, %d" % (op, r1, rng.randrange(1 << 16)))
            self.note("%s:ri" % op)
        elif kind == "movi":
            self.emit("movi %s, %d" % (r1, rng.randrange(1 << 24)))
        elif kind == "mov:rr":
            self.emit("mov %s, %s" % (r1, r2))
        elif kind == "load":
            mem, dst = self.array_operand(regs)
            self.emit("mov %s, %s" % (dst, mem))
            self.note("mov:rm")
        elif kind == "store":
            mem, src = self.array_operand(regs)
            self.emit("mov %s, %s" % (mem, src))
            self.note("mov:mr")
        elif kind == "alu:rm":
            op = rng.choice(ALU_LOAD_OPS)
            mem, dst = self.array_operand(regs)
            self.emit("%s %s, %s" % (op, dst, mem))
            self.note("%s:rm" % op)
        elif kind == "alu:mr":
            op = rng.choice(ALU_STORE_OPS)
            mem, src = self.array_operand(regs)
            self.emit("%s %s, %s" % (op, mem, src))
            self.note("%s:mr" % op)
        elif kind == "shift":
            op = rng.choice(("shl", "shr", "sar"))
            self.emit("%s %s, %d" % (op, r1, rng.randrange(1, 9)))
            self.note(op)
        elif kind == "imul":
            self.emit("imul %s, %s" % (r1, r2))
            self.note("imul:rr")
        elif kind == "lea":
            self.emit("lea %s, [%s+%d]" % (r1, r2, rng.randrange(256)))
            self.note("lea:rm")
        elif kind == "pushpop":
            # Balanced stack traffic; the pop target may differ from the
            # pushed register (a plain data move through the stack).
            self.emit("push %s" % r1)
            self.one_op()
            self.emit("pop %s" % r2)
        elif kind == "nop":
            self.emit("nop")
        else:  # test:rr
            self.emit("test %s, %s" % (r1, r2))

    # -- structured idioms -------------------------------------------------

    def loop(self) -> None:
        rng = self.rng
        counter = self.pick_reg()
        self.reserved.add(counter)
        bound = rng.randint(1, self.gen.config.max_loop_bound)
        top = self.local_label("loop")
        self.emit("movi %s, 0" % counter)
        self.emit_label(top)
        self.random_ops(rng.randint(1, 3))
        self.emit("add %s, 1" % counter)
        self.emit("cmp %s, %d" % (counter, bound))
        self.emit("jl %s" % top)
        self.reserved.discard(counter)

    def diamond(self) -> None:
        """``if/else`` over a data-dependent comparison."""
        rng = self.rng
        reg = self.pick_reg()
        cc = self.choose(["j%s" % suffix for suffix in CC_SUFFIXES])
        other = self.local_label("else")
        join = self.local_label("join")
        self.emit("cmp %s, %d" % (reg, rng.randrange(1 << 12)))
        self.emit("%s %s" % (cc, other))
        self.random_ops(rng.randint(1, 2))
        self.emit("jmp %s" % join)
        self.emit_label(other)
        self.random_ops(rng.randint(1, 2))
        self.emit_label(join)

    def short_skip(self) -> None:
        """A ``jmp8`` hop — the rel8 encoding the randomizer cannot
        retarget in place, forcing the failover-redirect path."""
        target = self.local_label("skip")
        self.emit("jmp8 %s" % target)
        self.random_ops(1)
        self.emit_label(target)
        self.note("jmp8")

    def switch(self) -> None:
        """Indirect ``jmpi`` dispatch through a data-section label table."""
        rng = self.rng
        size = rng.choice((2, 4))
        cases = [self.local_label("case") for _ in range(size)]
        join = self.local_label("swjoin")
        table = "jt%d_%d" % (self.index, self._label_counter)
        self.gen.data.append(table + ":")
        self.gen.data.append("    .word " + ", ".join(cases))

        index_reg = self.pick_reg()
        self.reserved.add(index_reg)
        scratch = self.pick_reg()
        self.reserved.discard(index_reg)
        self.emit("and %s, %d" % (index_reg, size - 1))
        self.emit("shl %s, 2" % index_reg)
        self.emit("movi %s, %s" % (scratch, table))
        self.emit("add %s, %s" % (scratch, index_reg))
        self.emit("jmpi [%s+0]" % scratch)
        for case in cases:
            self.emit_label(case)
            self.random_ops(rng.randint(1, 2))
            self.emit("jmp %s" % join)
        self.emit_label(join)
        self.note("jmpi:table")

    def call_table(self, callees: List[str]) -> None:
        """Indirect call through a function-pointer table."""
        rng = self.rng
        table = "ft%d_%d" % (self.index, self._label_counter)
        self._label_counter += 1
        self.gen.data.append(table + ":")
        self.gen.data.append("    .word " + ", ".join(callees))
        index_reg = self.pick_reg()
        self.reserved.add(index_reg)
        scratch = self.pick_reg()
        self.reserved.discard(index_reg)
        self.emit("movi %s, %d" % (index_reg, rng.randrange(len(callees))))
        self.emit("shl %s, 2" % index_reg)
        self.emit("movi %s, %s" % (scratch, table))
        self.emit("add %s, %s" % (scratch, index_reg))
        self.emit("calli [%s+0]" % scratch)
        self.note("idiom:funcptr_call")

    def call_stored_pointer(self, callee: str) -> None:
        """``movi reg, fn`` → store → ``calli`` — the in-code pointer
        immediate the randomizer must rewrite in both images.  The
        pointer register is zeroed afterwards: code-pointer values are
        architecturally mode-dependent and must never reach output."""
        reg = self.pick_reg()
        self.reserved.add(reg)
        base = self.pick_reg()
        self.reserved.discard(reg)
        slot = 4 * self.gen.config.array_words - 4
        array = self.gen.arrays[0]
        self.emit("movi %s, %s" % (reg, callee))
        self.emit("movi %s, %s" % (base, array))
        self.emit("mov [%s+%d], %s" % (base, slot, reg))
        self.emit("movi %s, 0" % reg)
        self.emit("calli [%s+%d]" % (base, slot))
        self.emit("movi %s, %s" % (base, array))
        self.emit("movi %s, 0" % base)
        self.note("idiom:code_pointer_store")

    def emit_output(self) -> None:
        """Fold a register into the global accumulator and EMIT it."""
        rng = self.rng
        kind = self.choose(["sys:emit", "sys:putc", "sys:icount"])
        reg = rng.choice([r for r in self.free_regs()
                          if r not in ("eax", "ebx")] or ["edx"])
        if kind == "sys:icount":
            # ICOUNT is architecturally identical in every mode, so its
            # value is a *strong* cross-engine invariant when emitted.
            self.emit("movi eax, 7")
            self.emit("int 0x80")
            self.emit("mov %s, eax" % reg)
        self.emit("movi esi, g_acc")
        self.emit("mov edx, [esi+0]")
        self.emit("add edx, %s" % reg)
        self.emit("mov [esi+0], edx")
        if kind == "sys:putc":
            self.emit("mov ebx, edx")
            self.emit("and ebx, 127")
            self.emit("movi eax, 4")
            self.emit("int 0x80")
        else:
            self.emit("mov ebx, edx")
            self.emit("movi eax, 5")
            self.emit("int 0x80")


class ProgramGenerator:
    """Generates a deterministic stream of oracle-ready programs.

    ``generate(index)`` is a pure function of ``(seed, index,
    coverage-so-far)``: replaying the same seed over the same index
    order reproduces the identical program sequence, which is what lets
    ``repro.tools.fuzz`` findings be replayed from just a seed and an
    index.
    """

    def __init__(self, seed: int, config: Optional[GeneratorConfig] = None,
                 coverage: Optional[Coverage] = None):
        self.seed = seed
        self.config = config or GeneratorConfig()
        self.coverage = coverage if coverage is not None else Coverage()
        self.rng = random.Random()
        # Per-program state (reset by generate()).
        self.data: List[str] = []
        self.arrays: List[str] = []
        self.features: List[str] = []

    def generate(self, index: int) -> GeneratedProgram:
        """Generate program ``index`` of this seed's stream."""
        self.rng.seed("repro.qa:%d:%d" % (self.seed, index))
        rng = self.rng
        cfg = self.config
        self.features = []
        self.arrays = ["arr0", "arr1"]
        self.data = [".data 0x8000000", "g_acc:", "    .word 0"]
        for name in self.arrays:
            self.data.append(name + ":")
            if rng.random() < 0.3:
                # Byte-granular initial data (word loads still apply).
                self.data.append(
                    "    .byte " + ", ".join(
                        str(rng.randrange(256))
                        for _ in range(4 * cfg.array_words)
                    )
                )
                self.coverage.note("idiom:byte_data")
                self.features.append("idiom:byte_data")
            else:
                self.data.append("    .space %d" % (4 * cfg.array_words))

        num_funcs = rng.randint(cfg.min_functions, cfg.max_functions)
        lines = [".code 0x400000"]

        for idx in range(num_funcs):
            emitter = _FunctionEmitter(self, idx, num_funcs)
            self._emit_function(emitter, idx, num_funcs)
            lines += ["fn%d:" % idx] + emitter.lines
            if rng.random() < 0.3:
                lines.append(".align 4")
                self.coverage.note("idiom:align")
                self.features.append("idiom:align")

        lines += self._emit_main(num_funcs)
        source = "\n".join(lines) + "\n" + "\n".join(self.data) + "\n"
        return GeneratedProgram(
            source=source, seed=self.seed, index=index,
            features=list(dict.fromkeys(self.features)),
        )

    # -- structure ---------------------------------------------------------

    def _emit_function(self, fe: _FunctionEmitter, idx: int,
                       num_funcs: int) -> None:
        rng = self.rng
        cfg = self.config
        fe.emit("push ebp")
        fe.emit("mov ebp, esp")

        segments = rng.randint(1, 3)
        for _ in range(segments):
            fe.random_ops(rng.randint(cfg.min_ops, cfg.max_ops))
            idiom = fe.choose([
                "idiom:loop", "idiom:diamond", "idiom:switch",
                "idiom:short_skip", "idiom:none",
            ])
            if idiom == "idiom:loop":
                fe.loop()
            elif idiom == "idiom:diamond":
                fe.diamond()
            elif idiom == "idiom:switch":
                fe.switch()
            elif idiom == "idiom:short_skip":
                fe.short_skip()

        # Calls: only to strictly-later functions (termination DAG).
        callees = ["fn%d" % j for j in range(idx + 1, num_funcs)]
        rng.shuffle(callees)
        for callee in callees[: rng.randint(0, 2)]:
            how = fe.choose(["call", "calli:table", "calli:stored"])
            if how == "call":
                fe.emit("call %s" % callee)
            elif how == "calli:table":
                pool = callees[: rng.randint(1, len(callees))]
                fe.call_table(pool if callee in pool else pool + [callee])
            else:
                fe.call_stored_pointer(callee)

        if rng.random() < 0.5:
            fe.emit_output()

        if rng.random() < 0.5:
            fe.emit("leave")
            fe.note("leave")
        else:
            fe.emit("mov esp, ebp")
            fe.emit("pop ebp")
        fe.emit("ret")
        fe.note("ret")

    def _emit_main(self, num_funcs: int) -> List[str]:
        rng = self.rng
        lines = ["main:"]
        roots = list(range(min(3, num_funcs)))
        for root in roots:
            lines.append("    call fn%d" % root)
        # Final checksum: the accumulator plus every register folded in.
        lines.append("    movi esi, g_acc")
        lines.append("    mov eax, [esi+0]")
        for reg in ("ebx", "ecx", "edx", "edi"):
            lines.append("    add eax, %s" % reg)
        lines.append("    mov ebx, eax")
        lines.append("    movi eax, 5")
        lines.append("    int 0x80")
        if rng.random() < self.config.halt_probability:
            self.coverage.note("idiom:halt_exit")
            self.features.append("idiom:halt_exit")
            lines.append("    halt")
        else:
            lines.append("    and ebx, 63")
            lines.append("    movi eax, 1")
            lines.append("    int 0x80")
        return lines
