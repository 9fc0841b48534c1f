"""Basic blocks, CFG construction, constant propagation, pointer scan."""

from repro.analysis import (
    build_blocks,
    build_cfg,
    disassemble,
    find_leaders,
    scan_image,
)
from repro.isa import assemble

BRANCHY = """
.code 0x400000
main:
    movi eax, 0
.loop:
    add eax, 1
    cmp eax, 10
    jl .loop
    movi eax, 1
    movi ebx, 0
    int 0x80
"""

JUMP_TABLE = """
.code 0x400000
main:
    movi edx, table
    jmpi [edx+0]
case_a:
    movi eax, 1
    jmp done
case_b:
    movi eax, 2
done:
    movi ebx, 0
    movi eax, 1
    int 0x80
.data 0x8000000
table:
    .word case_a, case_b
"""


class TestLeadersAndBlocks:
    def test_loop_head_is_leader(self):
        image = assemble(BRANCHY)
        disasm = disassemble(image)
        leaders = find_leaders(disasm, roots=[image.entry])
        assert 0x400005 in leaders  # .loop: first addr after movi (5 bytes)

    def test_blocks_partition_instructions(self):
        image = assemble(BRANCHY)
        disasm = disassemble(image)
        blocks = build_blocks(disasm, roots=[image.entry])
        total = sum(len(b) for b in blocks.values())
        assert total == len(disasm)
        # Every instruction belongs to the block that starts at or before it.
        for block in blocks.values():
            ends = block.start
            for inst in block.instructions:
                assert inst.addr == ends
                ends += inst.length

    def test_terminator_and_fallthrough(self):
        image = assemble(BRANCHY)
        blocks = build_blocks(disassemble(image), roots=[image.entry])
        loop_block = blocks[0x400005]
        assert loop_block.terminator.mnemonic == "jl"
        assert loop_block.falls_through
        # A block ending in an unconditional jmp does not fall through.
        image2 = assemble(".code 0x400000\nmain:\n jmp main\n")
        blocks2 = build_blocks(disassemble(image2), roots=[image2.entry])
        assert not blocks2[0x400000].falls_through


class TestCFG:
    def test_loop_edges(self):
        image = assemble(BRANCHY)
        cfg = build_cfg(image)
        loop = 0x400005
        assert loop in cfg.successors(loop)  # back edge
        assert cfg.predecessors(loop).count(loop) == 1

    def test_call_creates_call_target_not_edge(self):
        src = ".code 0x400000\nmain:\n call f\n ret\nf:\n ret\n"
        image = assemble(src)
        cfg = build_cfg(image)
        f = image.symbols.resolve("f")
        assert f in cfg.call_targets
        # Intra-procedural: no direct edge main -> f.
        assert f not in cfg.successors(0x400000)

    def test_indirect_edges_from_relocations(self):
        image = assemble(JUMP_TABLE)
        cfg = build_cfg(image)
        case_a = image.symbols.resolve("case_a")
        case_b = image.symbols.resolve("case_b")
        assert {case_a, case_b} <= cfg.indirect_targets
        jmpi_block = 0x400000
        assert case_a in cfg.successors(jmpi_block)
        assert case_b in cfg.successors(jmpi_block)

    def test_num_edges_counts(self):
        image = assemble(BRANCHY)
        cfg = build_cfg(image)
        assert cfg.num_edges == sum(len(v) for v in cfg.succs.values())


class TestConstProp:
    def test_resolves_register_indirect_jump(self):
        src = """
.code 0x400000
main:
    movi edx, target
    jmpi edx
target:
    movi eax, 1
    movi ebx, 0
    int 0x80
"""
        image = assemble(src)
        cfg = build_cfg(image, run_constprop=True)
        target = image.symbols.resolve("target")
        assert any(
            r.target == target and r.via == "register"
            for r in cfg.constprop.resolved
        )

    def test_resolves_memory_indirect_through_rodata(self):
        # The jump table lives in the read-only code section constants?
        # Our data section is writable, so constprop must NOT claim it.
        image = assemble(JUMP_TABLE)
        cfg = build_cfg(image, run_constprop=True)
        jmpi_addr = next(
            i.addr for i in cfg.disasm.by_addr.values() if i.mnemonic == "jmpi"
        )
        assert jmpi_addr in cfg.constprop.unresolved

    def test_mov_copy_propagation(self):
        src = """
.code 0x400000
main:
    movi ecx, target
    mov edx, ecx
    jmpi edx
target:
    movi eax, 1
    movi ebx, 0
    int 0x80
"""
        image = assemble(src)
        cfg = build_cfg(image, run_constprop=True)
        assert any(
            r.target == image.symbols.resolve("target")
            for r in cfg.constprop.resolved
        )

    def test_call_clobbers_constants(self):
        src = """
.code 0x400000
main:
    movi edx, target
    call f
    jmpi edx
target:
    nop
    ret
f:
    ret
"""
        image = assemble(src)
        cfg = build_cfg(image, run_constprop=True)
        jmpi_addr = next(
            i.addr for i in cfg.disasm.by_addr.values() if i.mnemonic == "jmpi"
        )
        # After a call, edx is unknown: the transfer must stay unresolved.
        assert jmpi_addr in cfg.constprop.unresolved

    def test_add_immediate_adjusts_constant(self):
        src = """
.code 0x400000
main:
    movi edx, target
    add edx, 0
    jmpi edx
target:
    movi eax, 1
    movi ebx, 0
    int 0x80
"""
        image = assemble(src)
        cfg = build_cfg(image, run_constprop=True)
        assert any(
            r.target == image.symbols.resolve("target")
            for r in cfg.constprop.resolved
        )


class TestPointerScan:
    def test_finds_jump_table_entries(self):
        image = assemble(JUMP_TABLE)
        disasm = disassemble(image)
        targets = {hit.target for hit in scan_image(image, disasm)}
        assert image.symbols.resolve("case_a") in targets
        assert image.symbols.resolve("case_b") in targets

    def test_respects_instruction_boundaries(self):
        image = assemble(JUMP_TABLE)
        disasm = disassemble(image)
        hits = scan_image(image, disasm)
        for hit in hits:
            assert disasm.is_instruction_start(hit.target)

    def test_without_disasm_is_more_permissive(self):
        image = assemble(JUMP_TABLE)
        disasm = disassemble(image)
        strict = {hit.target for hit in scan_image(image, disasm)}
        loose = {hit.target for hit in scan_image(image, None)}
        assert strict <= loose

    def test_stride_4_subset_of_stride_1(self):
        image = assemble(JUMP_TABLE)
        disasm = disassemble(image)
        s4 = {hit.target for hit in scan_image(image, disasm, stride=4)}
        s1 = {hit.target for hit in scan_image(image, disasm, stride=1)}
        assert s4 <= s1
