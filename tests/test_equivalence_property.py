"""The core correctness property: randomization preserves semantics.

Generates random (but always-terminating) RX86 programs, randomizes them,
and requires identical observable behaviour across baseline, naive
hardware ILR, VCFR, the software-ILR emulator and the cycle simulator.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cpu import simulate
from repro.emu import ILREmulator
from repro.ilr import RandomizerConfig, make_flow, randomize, verify_equivalence
from repro.isa import assemble

# ecx is reserved as the loop counter; random ops must not clobber it.
REGS = ("eax", "edx", "ebx", "esi", "edi")


def generate_program(seed: int) -> str:
    """A random terminating program: DAG of functions, loops, dispatch."""
    rng = random.Random(seed)
    num_funcs = rng.randint(1, 5)
    lines = [".code 0x400000"]
    data = [".data 0x8000000", "scratch:", "    .space 1024"]

    def random_ops(fn, count):
        ops = []
        for _ in range(count):
            kind = rng.randrange(8)
            r1, r2 = rng.choice(REGS), rng.choice(REGS)
            if kind == 0:
                ops.append("movi %s, %d" % (r1, rng.randrange(1 << 20)))
            elif kind == 1:
                ops.append("add %s, %s" % (r1, r2))
            elif kind == 2:
                ops.append("xor %s, %s" % (r1, r2))
            elif kind == 3:
                ops.append("imul %s, %s" % (r1, r2))
            elif kind == 4:
                ops.append("%s %s, %d" % (rng.choice(("shl", "shr", "sar")),
                                          r1, rng.randrange(1, 8)))
            elif kind == 5:
                ops.append("movi esi, scratch")
                ops.append("mov [esi+%d], %s" % (rng.randrange(0, 64) * 4, r1))
            elif kind == 6:
                ops.append("movi esi, scratch")
                ops.append("mov %s, [esi+%d]" % (r1, rng.randrange(0, 64) * 4))
            else:
                ops.append("sub %s, %s" % (r1, r2))
        return ops

    for idx in range(num_funcs):
        name = "fn%d" % idx
        lines.append("%s:" % name)
        lines.append("    push ebp")
        lines.append("    mov ebp, esp")
        lines += ["    " + op for op in random_ops(name, rng.randint(2, 6))]
        # Optional bounded loop.
        if rng.random() < 0.6:
            loop = ".loop_%s" % name
            bound = rng.randint(1, 6)
            lines.append("    movi ecx, 0")
            lines.append("%s:" % loop)
            lines += ["    " + op for op in random_ops(name, rng.randint(1, 3))
                      if not op.startswith("movi ecx")]
            lines.append("    add ecx, 1")
            lines.append("    cmp ecx, %d" % bound)
            lines.append("    jl %s" % loop)
        # Optional conditional skip.
        if rng.random() < 0.5:
            skip = ".skip_%s" % name
            lines.append("    cmp eax, %d" % rng.randrange(1 << 10))
            lines.append("    %s %s" % (rng.choice(("jz", "jnz", "jl", "jge")),
                                        skip))
            lines += ["    " + op for op in random_ops(name, 1)]
            lines.append("%s:" % skip)
        # Calls only to strictly later functions: guarantees termination.
        callees = list(range(idx + 1, num_funcs))
        rng.shuffle(callees)
        for callee in callees[: rng.randint(0, 2)]:
            if rng.random() < 0.3:
                # Indirect call through a function-pointer slot.  The
                # pointer register is zeroed before the call: code-pointer
                # *values* are architecturally different under
                # randomization (as under ASLR), so a correct program must
                # not let them flow into its observable output.
                lines.append("    movi edx, fn%d" % callee)
                lines.append("    movi esi, scratch")
                lines.append("    mov [esi+1020], edx")
                lines.append("    movi edx, 0")
                lines.append("    calli [esi+1020]")
            else:
                lines.append("    call fn%d" % callee)
        lines.append("    mov esp, ebp")
        lines.append("    pop ebp")
        lines.append("    ret")

    lines.append("main:")
    for callee in range(min(2, num_funcs)):
        lines.append("    call fn%d" % callee)
    # Emit a checksum built from every register.
    lines.append("    add eax, ebx")
    lines.append("    add eax, ecx")
    lines.append("    add eax, edx")
    lines.append("    add eax, esi")
    lines.append("    add eax, edi")
    lines.append("    mov ebx, eax")
    lines.append("    movi eax, 5")
    lines.append("    int 0x80")
    lines.append("    movi eax, 1")
    lines.append("    movi ebx, 0")
    lines.append("    int 0x80")
    return "\n".join(lines) + "\n" + "\n".join(data) + "\n"


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=25, deadline=None)
def test_modes_equivalent_on_random_programs(seed):
    image = assemble(generate_program(seed))
    program = randomize(image, RandomizerConfig(seed=seed ^ 0xABCDEF))
    report = verify_equivalence(program, max_instructions=300_000)
    assert report.baseline.exit_code == 0


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=8, deadline=None)
def test_emulator_matches_baseline(seed):
    image = assemble(generate_program(seed))
    program = randomize(image, RandomizerConfig(seed=seed))
    reference = verify_equivalence(program, max_instructions=300_000).baseline
    emulated = ILREmulator(program, max_instructions=300_000).run()
    assert emulated.run.output == reference.output
    assert emulated.run.exit_code == reference.exit_code
    assert emulated.run.icount == reference.icount


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=6, deadline=None)
def test_cycle_simulator_matches_functional(seed):
    image = assemble(generate_program(seed))
    program = randomize(image, RandomizerConfig(seed=seed))
    reference = verify_equivalence(program, max_instructions=300_000).baseline
    for mode in ("baseline", "naive_ilr", "vcfr"):
        result = simulate(program.image_for(mode), make_flow(mode, program),
                          max_instructions=400_000)
        assert result.finished
        assert result.exit_code == reference.exit_code
        assert result.output == reference.output
        assert result.instructions == reference.icount


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=8, deadline=None)
def test_different_randomization_seeds_same_behaviour(prog_seed, rand_seed):
    """Any two randomizations of one program behave identically."""
    source = generate_program(prog_seed)
    a = randomize(assemble(source), RandomizerConfig(seed=rand_seed))
    b = randomize(assemble(source), RandomizerConfig(seed=rand_seed + 1))
    out_a = verify_equivalence(a, max_instructions=300_000).baseline
    out_b = verify_equivalence(b, max_instructions=300_000).baseline
    assert out_a.output == out_b.output
    assert a.layout.placement != b.layout.placement
