"""Kernel library: reusable generated code patterns.

Each generator emits one complete function into a
:class:`~repro.workloads.builder.ProgramBuilder`.  By convention every
kernel function

* is called with no live registers (drivers keep state in globals),
* accumulates its contribution into the program's ``g_sum`` global,
* follows the standard prologue/epilogue, so the call/return analysis
  sees conventional functions.

The kernels are the behavioural vocabulary the SPEC-like programs are
composed from: streaming, stencils, pointer chasing, dynamic programming,
bit manipulation, block transforms, recursion, run-length compression,
table-driven interpretation and dense arithmetic.
"""

from __future__ import annotations

import random
from typing import Callable, List

from .builder import ProgramBuilder, dispatch_indexed, jump_table


def declare_globals(b: ProgramBuilder) -> None:
    """The globals every generated program shares."""
    b.data_label("g_sum")
    b.data(".word 0")
    b.data_label("g_iter")
    b.data(".word 0")
    b.data_label("g_seed")
    b.data(".word 12345")


def add_to_sum(b: ProgramBuilder, reg: str) -> None:
    """g_sum += reg (clobbers esi)."""
    b.emits(
        "movi esi, g_sum",
        "mov edx, [esi+0]",
        "add edx, %s" % reg,
        "mov [esi+0], edx",
    )


def alloc_array(b: ProgramBuilder, label: str, words: int) -> None:
    """Reserve a zero array of ``words`` 32-bit elements."""
    b.data_label(label)
    b.data(".space %d" % (4 * words))


def init_array_fn(b: ProgramBuilder, fname: str, label: str, words: int,
                  mult: int = 2654435761) -> None:
    """Function filling ``label`` with a cheap hash of the index."""
    b.func(fname)
    top = b.unique("init")
    b.emits("movi esi, %s" % label, "movi ecx, 0")
    b.label(top)
    b.emits(
        "mov eax, ecx",
        "movi edx, %d" % (mult & 0x7FFFFFFF),
        "imul eax, edx",
        "add eax, 17",
        "mov [esi+0], eax",
        "add esi, 4",
        "add ecx, 1",
        "cmp ecx, %d" % words,
        "jl %s" % top,
    )
    b.endfunc()


def gen_stream_sum(b: ProgramBuilder, fname: str, array: str, words: int,
                   stride_words: int = 1) -> None:
    """Streaming reduction: sum every ``stride``-th element of ``array``."""
    b.func(fname)
    top = b.unique("ss")
    b.emits("movi esi, %s" % array, "movi ecx, 0", "movi eax, 0")
    b.label(top)
    b.emits(
        "mov edx, [esi+0]",
        "add eax, edx",
        "add esi, %d" % (4 * stride_words),
        "add ecx, 1",
        "cmp ecx, %d" % (words // stride_words),
        "jl %s" % top,
    )
    add_to_sum(b, "eax")
    b.endfunc()


def gen_stencil(b: ProgramBuilder, fname: str, src: str, dst: str,
                words: int) -> None:
    """1-D 3-point stencil: dst[i] = src[i-1] + 2*src[i] + src[i+1]."""
    b.func(fname)
    top = b.unique("st")
    b.emits(
        "movi esi, %s" % src,
        "movi edi, %s" % dst,
        "add esi, 4",
        "add edi, 4",
        "movi ecx, 1",
        "movi ebx, 0",
    )
    b.label(top)
    b.emits(
        "mov eax, [esi+0]",
        "add eax, eax",
        "add eax, [esi-4]",
        "add eax, [esi+4]",
        "mov [edi+0], eax",
        "add ebx, eax",
        "add esi, 4",
        "add edi, 4",
        "add ecx, 1",
        "cmp ecx, %d" % (words - 1),
        "jl %s" % top,
    )
    add_to_sum(b, "ebx")
    b.endfunc()


def build_linked_list(b: ProgramBuilder, label: str, nodes: int,
                      rng: random.Random) -> None:
    """A shuffled singly linked list: node i = [next_index, value].

    The permutation makes traversal pointer-chase through memory in a
    cache-hostile order, the mcf signature.
    """
    order = list(range(1, nodes))
    rng.shuffle(order)
    order.append(0)  # close the cycle
    nxt = [0] * nodes
    cur = 0
    for node in order:
        nxt[cur] = node
        cur = node
    b.data_label(label)
    for i in range(nodes):
        b.data(".word %d, %d" % (nxt[i] * 8, (i * 2654435761 + 99) & 0x7FFFFFFF))


def gen_pointer_chase(b: ProgramBuilder, fname: str, list_label: str,
                      steps: int) -> None:
    """Follow ``steps`` next-pointers, accumulating node values."""
    b.func(fname)
    top = b.unique("pc")
    b.emits(
        "movi esi, %s" % list_label,
        "movi ebx, 0",  # byte offset of current node
        "movi eax, 0",
        "movi ecx, 0",
    )
    b.label(top)
    b.emits(
        "mov edx, esi",
        "add edx, ebx",
        "mov edi, [edx+4]",  # value
        "add eax, edi",
        "mov ebx, [edx+0]",  # next offset
        "add ecx, 1",
        "cmp ecx, %d" % steps,
        "jl %s" % top,
    )
    add_to_sum(b, "eax")
    b.endfunc()


def gen_dp_pass(b: ProgramBuilder, fname: str, row: str, score: str,
                cols: int) -> None:
    """One dynamic-programming row sweep (hmmer-style inner loop).

    row[j] = max(row[j] + score[j], row[j-1] + 3) with a branch per cell.
    """
    b.func(fname)
    top = b.unique("dp")
    other = b.unique("dpo")
    done = b.unique("dpd")
    b.emits(
        "movi esi, %s" % row,
        "movi edi, %s" % score,
        "add esi, 4",
        "add edi, 4",
        "movi ecx, 1",
        "movi ebx, 0",
    )
    b.label(top)
    b.emits(
        "mov eax, [esi+0]",
        "add eax, [edi+0]",    # candidate 1: row[j] + score[j]
        "mov edx, [esi-4]",
        "add edx, 3",          # candidate 2: row[j-1] + 3
        "cmp eax, edx",
        "jge %s" % other,
    )
    b.emit("mov eax, edx")
    b.label(other)
    b.emits(
        "and eax, 1073741823",  # keep bounded
        "mov [esi+0], eax",
        "add ebx, eax",
        "add esi, 4",
        "add edi, 4",
        "add ecx, 1",
        "cmp ecx, %d" % cols,
        "jl %s" % top,
    )
    b.label(done)
    add_to_sum(b, "ebx")
    b.endfunc()


def gen_bit_kernel(b: ProgramBuilder, fname: str, array: str, words: int,
                   gate_mask: int = 0x55555555) -> None:
    """libquantum-style gate application: toggle/shift bits across an array."""
    b.func(fname)
    top = b.unique("bk")
    b.emits("movi esi, %s" % array, "movi ecx, 0", "movi ebx, 0")
    b.label(top)
    b.emits(
        "mov eax, [esi+0]",
        "xor eax, %d" % gate_mask,
        "mov edx, eax",
        "shl edx, 3",
        "xor eax, edx",
        "mov edx, eax",
        "shr edx, 7",
        "xor eax, edx",
        "mov [esi+0], eax",
        "add ebx, eax",
        "add esi, 4",
        "add ecx, 1",
        "cmp ecx, %d" % words,
        "jl %s" % top,
    )
    add_to_sum(b, "ebx")
    b.endfunc()


def gen_block_transform(b: ProgramBuilder, fname: str, array: str,
                        block_offset_words: int, rounds: int = 1) -> None:
    """h264-style 4x4 integer butterfly, fully unrolled over 16 elements."""
    base = 4 * block_offset_words
    b.func(fname)
    b.emit("movi esi, %s" % array)
    if base:
        b.emit("add esi, %d" % base)
    b.emit("movi ebx, 0")
    for _ in range(rounds):
        for row in range(4):
            o = 16 * row
            b.emits(
                "mov eax, [esi+%d]" % o,
                "mov ecx, [esi+%d]" % (o + 4),
                "mov edx, [esi+%d]" % (o + 8),
                "mov edi, [esi+%d]" % (o + 12),
                "add eax, edi",     # a' = a + d
                "add ecx, edx",     # b' = b + c
                "mov [esi+%d]" % o + ", eax",
                "sub eax, ecx",     # e = a' - b'
                "mov [esi+%d]" % (o + 4) + ", ecx",
                "mov [esi+%d]" % (o + 8) + ", eax",
                "xor edi, edx",
                "mov [esi+%d]" % (o + 12) + ", edi",
                "add ebx, eax",
            )
    add_to_sum(b, "ebx")
    b.endfunc()


def gen_recursive_eval(b: ProgramBuilder, fname: str, depth: int,
                       fanout_label_seed: int = 0) -> None:
    """sjeng-style recursive game-tree walk.

    eval(d): if d == 0 return leaf score; else combine eval(d-1) twice
    with a branchy scoring step.  Argument in eax, result in eax.
    """
    leaf = b.unique("leaf")
    skip = b.unique("skip")
    b.func(fname)
    b.emits(
        "cmp eax, 0",
        "jz %s" % leaf,
        "push eax",           # save depth
        "sub eax, 1",
        "call %s" % fname,    # left child
        "mov ecx, eax",
        "mov eax, [esp+0]",   # reload depth (still saved)
        "sub eax, 1",
        "push ecx",
        "call %s" % fname,    # right child
        "pop ecx",
        "add eax, ecx",
        "pop ecx",            # depth
        "mov edx, eax",
        "and edx, 3",
        "cmp edx, 2",
        "jl %s" % skip,
        "add eax, 7",
    )
    b.label(skip)
    b.endfunc()
    b.label(leaf)
    b.emits(
        "movi eax, %d" % (31 + fanout_label_seed),
        "mov esp, ebp",
        "pop ebp",
        "ret",
    )


def gen_rle_compress(b: ProgramBuilder, fname: str, src: str, dst: str,
                     words: int) -> None:
    """bzip2-style run-length pass over words (quantized to 4 buckets)."""
    b.func(fname)
    top = b.unique("rle")
    flush = b.unique("rlf")
    cont = b.unique("rlc")
    b.emits(
        "movi esi, %s" % src,
        "movi edi, %s" % dst,
        "movi ecx, 0",     # index
        "movi ebx, 0",     # current run symbol
        "movi edx, 0",     # run length
    )
    b.label(top)
    b.emits(
        "mov eax, [esi+0]",
        "and eax, 3",       # quantize to symbol
        "cmp eax, ebx",
        "jnz %s" % flush,
        "add edx, 1",
        "jmp %s" % cont,
    )
    b.label(flush)
    # write (symbol<<16 | runlen), start a new run
    b.emits(
        "push eax",
        "mov eax, ebx",
        "shl eax, 16",
        "add eax, edx",
        "mov [edi+0], eax",
        "add edi, 4",
        "pop eax",
        "mov ebx, eax",
        "movi edx, 1",
    )
    b.label(cont)
    b.emits(
        "add esi, 4",
        "add ecx, 1",
        "cmp ecx, %d" % words,
        "jl %s" % top,
    )
    add_to_sum(b, "edx")
    add_to_sum(b, "ebx")
    b.endfunc()


def gen_arith_block(b: ProgramBuilder, fname: str, unroll: int,
                    variant: int) -> None:
    """namd/soplex-style dense fixed-point arithmetic, unrolled."""
    b.func(fname)
    b.emits(
        "movi eax, %d" % (1000 + variant),
        "movi ecx, %d" % (3 + (variant & 7)),
        "movi ebx, 0",
    )
    for i in range(unroll):
        step = (variant + i) % 4
        if step == 0:
            b.emits("imul eax, ecx", "add eax, %d" % (17 + i))
        elif step == 1:
            b.emits("mov edx, eax", "shr edx, 5", "xor eax, edx")
        elif step == 2:
            b.emits("add ebx, eax", "sub eax, ecx")
        else:
            b.emits("mov edx, eax", "imul edx, eax", "add ebx, edx")
        b.emit("and eax, 1073741823")
    add_to_sum(b, "ebx")
    b.endfunc()


def gen_interpreter(b: ProgramBuilder, fname: str, tag: str,
                    bytecode: List[int], handlers: int,
                    handler_extra: Callable[[ProgramBuilder, int], None] = None
                    ) -> None:
    """A bytecode interpreter (python/gcc/xalan signature).

    Fetch a word of bytecode, dispatch through a jump table (an indirect
    jump per operation), run a small handler, loop.  ``bytecode`` values
    must be < ``handlers`` (a power of two).

    Register convention: ``ecx`` (op counter), ``edi`` (bytecode pointer)
    and ``ebx`` (accumulator) are live across handlers — ``handler_extra``
    code and anything it calls must preserve them (``eax``/``edx``/``esi``
    are free).
    """
    assert handlers & (handlers - 1) == 0
    prog_label = "%s_bc" % tag
    table_label = "%s_tab" % tag
    b.data_label(prog_label)
    b.data(".word " + ", ".join(str(v) for v in bytecode))

    handler_labels = []
    dispatch = b.unique("disp")
    done = b.unique("done")

    b.func(fname)
    b.emits("movi edi, %s" % prog_label, "movi ecx, 0", "movi ebx, 0")
    b.label(dispatch)
    b.emits(
        "cmp ecx, %d" % len(bytecode),
        "jge %s" % done,
        "mov eax, [edi+0]",
        "add edi, 4",
        "add ecx, 1",
    )
    dispatch_indexed(b, table_label, "eax", handlers, scratch="edx")
    for h in range(handlers):
        label = "%s_h%d" % (tag, h)
        handler_labels.append(label)
        b.label(label)
        # Default handler body: mix the accumulator per opcode.
        b.emits(
            "add ebx, %d" % (h * 2 + 1),
            "mov edx, ebx",
            "shl edx, %d" % (1 + h % 5),
            "xor ebx, edx",
        )
        if handler_extra is not None:
            handler_extra(b, h)
        b.emit("jmp %s" % dispatch)
    b.label(done)
    add_to_sum(b, "ebx")
    b.endfunc()
    jump_table(b, table_label, handler_labels)


def gen_memcpy_fn(b: ProgramBuilder, fname: str, src: str, dst: str,
                  words: int) -> None:
    """Word-granular memcpy."""
    b.func(fname)
    top = b.unique("mc")
    b.emits(
        "movi esi, %s" % src,
        "movi edi, %s" % dst,
        "movi ecx, 0",
    )
    b.label(top)
    b.emits(
        "mov eax, [esi+0]",
        "mov [edi+0], eax",
        "add esi, 4",
        "add edi, 4",
        "add ecx, 1",
        "cmp ecx, %d" % words,
        "jl %s" % top,
    )
    add_to_sum(b, "eax")
    b.endfunc()


def gen_hot_loop(b: ProgramBuilder, fname: str, iterations: int,
                 variant: int = 0) -> None:
    """A compact, heavily-reused loop (~30 instructions of hot code).

    Real applications spend most of their time in small kernels and only
    periodically sweep large cold code; this generator provides the hot
    half of that mix.  Its code footprint fits the IL1 even after
    randomization, and its few branch targets are highly DRC-resident.
    """
    b.func(fname)
    top = b.unique("hl")
    skip = b.unique("hs")
    b.emits(
        "movi eax, %d" % (77 + variant),
        "movi ecx, 0",
        "movi ebx, 0",
    )
    b.label(top)
    b.emits(
        "movi edx, %d" % (2654435761 & 0x7FFFFFFF),
        "imul eax, edx",
        "add eax, %d" % (12345 + variant),
        "mov edx, eax",
        "shr edx, 13",
        "xor eax, edx",
        "test eax, 4",
        "jz %s" % skip,
        "add ebx, 3",
    )
    b.label(skip)
    b.emits(
        "add ebx, eax",
        "and ebx, 1073741823",
        "add ecx, 1",
        "cmp ecx, %d" % iterations,
        "jl %s" % top,
    )
    add_to_sum(b, "ebx")
    b.endfunc()


def gen_clones(b: ProgramBuilder, prefix: str, count: int,
               body: Callable[[ProgramBuilder, int], None]) -> List[str]:
    """Generate ``count`` distinct function clones; returns their names.

    Clones are how the gcc/xalan stand-ins get their large code
    footprints: many small, genuinely different functions.
    """
    names = []
    for idx in range(count):
        name = "%s_%d" % (prefix, idx)
        names.append(name)
        b.func(name)
        body(b, idx)
        b.endfunc()
    return names
