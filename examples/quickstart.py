"""Quickstart: assemble a program, randomize it, run it every way.

Demonstrates the full public API in one sitting:

1. write an RX86 program (with a function and a jump table),
2. randomize it (complete ILR: per-instruction layout randomization),
3. prove semantic equivalence across baseline / naive-ILR / VCFR,
4. cycle-simulate all three modes and compare IPC and cache behaviour,
5. inspect the RDR table and the randomized layout.

Run: ``python examples/quickstart.py``
"""

from repro.arch.cpu import simulate
from repro.ilr import RandomizerConfig, make_flow, randomize, verify_equivalence
from repro.isa import assemble

SOURCE = """
; Sum f(i) for i in 0..99, where f dispatches through a jump table.
.code 0x400000
main:
    movi edi, 0              ; accumulator
    movi esi, 0              ; i
.loop:
    mov eax, esi
    call f
    add edi, eax
    add esi, 1
    cmp esi, 100
    jl .loop
    movi eax, 5              ; EMIT syscall: observable output
    mov ebx, edi
    int 0x80
    movi eax, 1              ; EXIT
    movi ebx, 0
    int 0x80

f:                           ; f(i) = i, 3*i or i*i depending on i % 4
    mov ecx, eax
    and ecx, 3
    cmp ecx, 3
    jl .ok
    movi ecx, 0
.ok:
    shl ecx, 2
    movi edx, table
    add edx, ecx
    jmpi [edx+0]
case_id:
    ret
case_triple:
    mov edx, eax
    add eax, edx
    add eax, edx
    ret
case_square:
    imul eax, eax
    ret

.data 0x8000000
table:
    .word case_id, case_triple, case_square
"""


def main():
    image = assemble(SOURCE)
    print("assembled: %d bytes of code, entry 0x%x" % (image.code_size, image.entry))

    # -- randomize (the paper's Fig. 6 pipeline) ---------------------------
    program = randomize(image, RandomizerConfig(seed=2015))
    stats = program.stats
    print("randomized: %d instructions over a %d KiB region "
          "(%.1f bits of placement entropy)"
          % (stats.num_instructions, stats.region_size // 1024,
             stats.entropy_bits))
    print("  direct branches rewritten: %d, code pointers rewritten: %d"
          % (stats.num_direct_rewritten, stats.num_pointer_slots_rewritten))
    print("  return addresses randomized at %d call sites"
          % stats.num_ret_randomized)

    # -- prove the three modes agree ----------------------------------------
    report = verify_equivalence(program)
    print("\nequivalence across modes:")
    print(report.summary())
    print("program output:", report.baseline.output.words)

    # -- cycle-simulate ------------------------------------------------------
    print("\ncycle simulation (paper machine parameters):")
    baseline_ipc = None
    for mode in ("baseline", "naive_ilr", "vcfr"):
        result = simulate(program.image_for(mode), make_flow(mode, program))
        if baseline_ipc is None:
            baseline_ipc = result.ipc
        print("  %-10s IPC %.3f (%.1f%% of baseline)  IL1 miss %.4f  "
              "DRC lookups %d"
              % (mode, result.ipc, 100 * result.ipc / baseline_ipc,
                 result.il1_miss_rate, result.drc_lookups))

    # -- peek at the RDR table ------------------------------------------------
    rdr = program.rdr
    entry_rand = program.entry_rand
    print("\nRDR: entry 0x%x now lives at randomized address 0x%x"
          % (image.entry, entry_rand))
    print("RDR entries: %d mappings, %d failover redirects"
          % (rdr.num_entries, len(rdr.redirect)))


if __name__ == "__main__":
    main()
