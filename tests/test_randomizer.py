"""ILR randomizer tests: rewriting, RDR construction, image emission."""

import dataclasses
import hashlib
import json
import sys

import pytest

from repro.analysis import disassemble
from repro.ilr import (
    RandomizerConfig,
    bundle,
    make_flow,
    randomize,
    verify_equivalence,
)
from repro.isa import assemble, decode
from repro.workloads import build_image

PROGRAM = """
.code 0x400000
main:
    movi edi, 0
    movi esi, 0
.loop:
    mov eax, esi
    call f
    add edi, eax
    add esi, 1
    cmp esi, 8
    jl .loop
    movi eax, 5
    mov ebx, edi
    int 0x80
    movi eax, 1
    movi ebx, 0
    int 0x80
f:
    mov ecx, eax
    and ecx, 1
    shl ecx, 2
    movi edx, table
    add edx, ecx
    jmpi [edx+0]
even:
    movi eax, 2
    ret
odd:
    imul eax, eax
    ret
.data 0x8000000
table:
    .word even, odd
"""


@pytest.fixture(scope="module")
def program():
    return randomize(assemble(PROGRAM), RandomizerConfig(seed=11))


class TestRDRConstruction:
    def test_every_instruction_mapped(self, program):
        disasm = disassemble(program.original)
        assert program.rdr.num_entries == len(disasm)
        for addr in disasm.by_addr:
            assert program.rdr.to_randomized(addr) is not None

    def test_bijection(self, program):
        program.rdr.check_bijection()

    def test_entry_randomized(self, program):
        assert program.entry_rand == program.rdr.to_randomized(
            program.original.entry
        )

    def test_fallthrough_skips_unconditional_ends(self, program):
        rdr = program.rdr
        disasm = disassemble(program.original)
        for addr, inst in disasm.by_addr.items():
            rand_addr = rdr.to_randomized(addr)
            if inst.mnemonic in ("jmp", "jmp8", "jmpi", "ret", "halt"):
                assert rand_addr not in rdr.fallthrough
            elif inst.next_addr in disasm.by_addr:
                assert rdr.fallthrough[rand_addr] == rdr.to_randomized(
                    inst.next_addr
                )

    def test_ret_randomized_sites_recorded(self, program):
        # The direct call to f is ret-randomizable; its fallthrough (the
        # 'add edi, eax') must be in ret_randomized.
        disasm = disassemble(program.original)
        call = next(i for i in disasm.by_addr.values() if i.mnemonic == "call")
        assert call.next_addr in program.rdr.ret_randomized


class TestVCFRImage:
    def test_layout_preserved(self, program):
        orig = program.original.section("code")
        vcfr = program.vcfr_image.section("code")
        assert orig.base == vcfr.base and orig.size == vcfr.size
        # Instruction boundaries and mnemonics are identical.
        orig_d = disassemble(program.original)
        vcfr_d = disassemble(program.vcfr_image)
        assert sorted(orig_d.by_addr) == sorted(vcfr_d.by_addr)
        for addr in orig_d.by_addr:
            assert orig_d.at(addr).mnemonic == vcfr_d.at(addr).mnemonic

    def test_direct_targets_rewritten_to_randomized_space(self, program):
        vcfr_d = disassemble(program.vcfr_image)
        rdr = program.rdr
        for inst in vcfr_d.by_addr.values():
            if inst.is_direct_branch:
                assert rdr.is_randomized_addr(inst.target), hex(inst.target)

    def test_jump_table_rewritten(self, program):
        table = program.original.symbols.resolve("table")
        for idx in range(2):
            value = program.vcfr_image.read_u32(table + 4 * idx)
            assert program.rdr.is_randomized_addr(value)

    def test_original_image_untouched(self, program):
        # The randomizer must copy, not mutate, its input.
        fresh = assemble(PROGRAM)
        assert bytes(fresh.section("code").data) == bytes(
            program.original.section("code").data
        )
        assert bytes(fresh.section("data").data) == bytes(
            program.original.section("data").data
        )


class TestNaiveImage:
    def test_instructions_at_randomized_slots(self, program):
        naive = program.naive_image.section("code_rand")
        orig_d = disassemble(program.original)
        for addr, inst in orig_d.by_addr.items():
            rand_addr = program.rdr.to_randomized(addr)
            placed = decode(naive.data, rand_addr - naive.base, rand_addr)
            # Mnemonics survive (module short->long branch widening).
            expected = "jmp" if inst.mnemonic == "jmp8" else inst.mnemonic
            assert placed.mnemonic == expected

    def test_naive_branches_target_randomized_space(self, program):
        naive = program.naive_image.section("code_rand")
        rdr = program.rdr
        for addr in rdr.derand:
            placed = decode(naive.data, addr - naive.base, addr)
            if placed.is_direct_branch:
                assert placed.target in rdr.derand

    def test_naive_entry(self, program):
        assert program.naive_image.entry == program.entry_rand

    def test_data_sections_copied(self, program):
        assert program.naive_image.section("data").size == (
            program.original.section("data").size
        )


class TestStatsAndOptions:
    def test_stats_populated(self, program):
        stats = program.stats
        assert stats.num_instructions > 20
        assert stats.num_direct_rewritten >= 2
        assert stats.num_pointer_slots_rewritten == 2
        assert stats.num_ret_randomized >= 1
        assert stats.entropy_bits > 5

    def test_seed_determinism(self):
        image = assemble(PROGRAM)
        a = randomize(image, RandomizerConfig(seed=3))
        b = randomize(assemble(PROGRAM), RandomizerConfig(seed=3))
        assert a.layout.placement == b.layout.placement

    def test_seed_variation(self):
        image = assemble(PROGRAM)
        a = randomize(image, RandomizerConfig(seed=3))
        b = randomize(assemble(PROGRAM), RandomizerConfig(seed=4))
        assert a.layout.placement != b.layout.placement

    def test_no_relocation_mode_still_equivalent(self):
        image = assemble(PROGRAM)
        program = randomize(
            image, RandomizerConfig(seed=5, use_relocations=False)
        )
        verify_equivalence(program)
        # Without proof, candidate targets keep failover redirects.
        assert len(program.rdr.redirect) > 0

    def test_conservative_policy_randomizes_fewer_rets(self):
        image = assemble(PROGRAM)
        arch = randomize(image, RandomizerConfig(seed=6))
        soft = randomize(
            assemble(PROGRAM),
            RandomizerConfig(seed=6, conservative_retaddr=True),
        )
        assert soft.stats.num_ret_randomized <= arch.stats.num_ret_randomized
        verify_equivalence(soft)

    def test_spread_factor_respected(self):
        image = assemble(PROGRAM)
        program = randomize(image, RandomizerConfig(seed=7, spread_factor=32))
        assert program.layout.region_size >= (
            32 * program.stats.num_instructions * 8
        )


#: ``_program_digest`` of every suite program randomized at seed 42,
#: default config (relocation records).
PINNED_DIGESTS = {
    "bzip2": "70f99569ae4bb9fc",
    "gcc": "be92c7b419f404ac",
    "h264ref": "d8a594e5913bf79e",
    "hmmer": "df8c1aec9342eba6",
    "lbm": "b00ad7626d36bb24",
    "libquantum": "b101669101fd9a82",
    "mcf": "72c6361bfb5b5278",
    "memcpy": "99cd943a756a8d3f",
    "namd": "2a2448f8a2e14727",
    "python": "4550285173aa00fd",
    "sjeng": "30e8c968d384da54",
    "soplex": "6b1f27d25f8858da",
    "xalan": "31e3cc783975a5fa",
}

#: The same with ``use_relocations=False`` (the pointer-scan path).
PINNED_STRIPPED_DIGESTS = {
    "gcc": "97517dbaf32a83b3",
    "xalan": "92f5c2c2c83e0d64",
}


def _program_digest(program) -> str:
    """Bundle bytes plus stats: everything ``randomize`` produced."""
    digest = hashlib.sha256(bundle.dump_bytes(program))
    digest.update(json.dumps(dataclasses.asdict(program.stats),
                             sort_keys=True).encode())
    return digest.hexdigest()[:16]


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_default_config(self, name):
        program = randomize(build_image(name), RandomizerConfig(seed=42))
        assert _program_digest(program) == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_STRIPPED_DIGESTS))
    def test_without_relocations(self, name):
        program = randomize(
            build_image(name),
            RandomizerConfig(seed=42, use_relocations=False),
        )
        assert _program_digest(program) == PINNED_STRIPPED_DIGESTS[name]


class TestCFGOnlyWhenStripped:
    """The CFG (and its pointer scan) is built only on the
    ``use_relocations=False`` path, the one that reads it."""

    def test_default_config_builds_no_cfg(self, monkeypatch):
        def no_cfg(*args, **kwargs):
            raise AssertionError("build_cfg called with relocations")

        monkeypatch.setattr("repro.ilr.randomizer.build_cfg", no_cfg)
        program = randomize(assemble(PROGRAM), RandomizerConfig(seed=11))
        verify_equivalence(program)

    def test_stripped_path_builds_it_once(self, monkeypatch):
        from repro.ilr import randomizer

        real, calls = randomizer.build_cfg, []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(randomizer, "build_cfg", counting)
        randomize(assemble(PROGRAM),
                  RandomizerConfig(seed=11, use_relocations=False))
        assert calls == [{"run_constprop": True}]

    @pytest.mark.parametrize("use_relocations, scans", [(True, 0), (False, 1)])
    def test_pointer_scan_runs_at_most_once(self, monkeypatch,
                                            use_relocations, scans):
        """The stripped path reads its pointer slots from the CFG's scan
        rather than scanning again."""
        from repro.analysis import pointer_scan

        real, calls = pointer_scan.scan_image, []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        # Every module that bound the function at import, re-exports
        # included, so no call path escapes the count.
        for module in list(sys.modules.values()):
            if getattr(module, "scan_image", None) is real:
                monkeypatch.setattr(module, "scan_image", counting)
        randomize(build_image("gcc"),
                  RandomizerConfig(seed=42, use_relocations=use_relocations))
        assert len(calls) == scans
