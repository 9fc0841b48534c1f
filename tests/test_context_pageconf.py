"""Time-shared execution and page-confined layout tests."""

import random

import pytest

from repro.arch.context import TimeSharedCPU
from repro.arch.cpu import CycleCPU
from repro.harness import ExperimentSession, RunSpec
from repro.ilr import RandomizerConfig, make_flow, randomize, verify_equivalence
from repro.ilr.layout import allocate_layout
from repro.isa import assemble
from repro.isa.encoder import make

SRC = """
.code 0x400000
main:
    movi esi, 0
.loop:
    call work
    cmp esi, 400
    jl .loop
    movi eax, 5
    mov ebx, esi
    int 0x80
    movi eax, 1
    movi ebx, 0
    int 0x80
work:
    add esi, 1
    mov eax, esi
    imul eax, eax
    ret
"""


@pytest.fixture(scope="module")
def program():
    return randomize(assemble(SRC), RandomizerConfig(seed=44))


class TestRunSlice:
    def test_slices_match_single_run(self, program):
        whole = CycleCPU(program.vcfr_image, make_flow("vcfr", program))
        whole_result = whole.run(max_instructions=100_000)
        sliced = CycleCPU(program.vcfr_image, make_flow("vcfr", program))
        finished = False
        while not finished:
            finished = sliced.run_slice(500)
        assert sliced.state.icount == whole.state.icount
        assert sliced.state.out == whole.state.out
        assert whole_result.finished

    def test_slice_after_finish_is_noop(self, program):
        cpu = CycleCPU(program.original, make_flow("baseline", program))
        while not cpu.run_slice(10_000):
            pass
        icount = cpu.state.icount
        assert cpu.run_slice(1000) is True
        assert cpu.state.icount == icount

    def test_slice_budget_respected(self, program):
        cpu = CycleCPU(program.original, make_flow("baseline", program))
        cpu.run_slice(100)
        assert cpu.state.icount == 100


class TestTimeSharing:
    def test_two_processes_complete_correctly(self, program):
        other = randomize(assemble(SRC), RandomizerConfig(seed=45))
        shared = TimeSharedCPU(
            [
                ("a", program.vcfr_image, make_flow("vcfr", program)),
                ("b", other.vcfr_image, make_flow("vcfr", other)),
            ],
            quantum_instructions=700,
        )
        out = shared.run(max_instructions_per_process=100_000)
        reference = verify_equivalence(program).baseline
        for name in ("a", "b"):
            proc = out.by_name(name)
            assert proc.result.finished
            assert proc.result.exit_code == 0
            assert proc.result.output == reference.output
            assert proc.quanta > 1

    def test_switch_accounting(self, program):
        shared = TimeSharedCPU(
            [("a", program.original, make_flow("baseline", program))],
            quantum_instructions=500,
            switch_cycles=100,
        )
        out = shared.run(max_instructions_per_process=3000)
        stats = out.switch_stats
        assert stats.switches == out.by_name("a").quanta
        assert stats.total_switch_cycles == 100 * stats.switches

    def test_unknown_process_name(self, program):
        shared = TimeSharedCPU(
            [("a", program.original, make_flow("baseline", program))]
        )
        out = shared.run(max_instructions_per_process=1000)
        with pytest.raises(KeyError):
            out.by_name("zzz")

    def test_smaller_quanta_never_help(self):
        session = ExperimentSession()
        long_q = RunSpec("xalan", "vcfr", max_instructions=30_000,
                         quantum=50_000)
        short_q = RunSpec("xalan", "vcfr", max_instructions=30_000,
                          quantum=1_000)
        session.prefetch([long_q, short_q])
        assert session.run(short_q).ipc <= session.run(long_q).ipc + 1e-9


def _fake_instructions(count):
    out, addr = [], 0x400000
    for _ in range(count):
        inst = make("nop", addr=addr)
        out.append(inst)
        addr += 1
    return out


class TestPageConfinedLayout:
    def test_slots_stay_within_group_pages(self):
        insts = _fake_instructions(2000)
        layout = allocate_layout(
            insts, random.Random(3), page_confined=True, spread_factor=16
        )
        assert layout.page_confined
        group_size = (4096 // 8) // 16  # slots_per_page / spread
        for idx, inst in enumerate(insts):
            page = (layout.placement[inst.addr] - layout.region_base) >> 12
            assert page == idx // group_size

    def test_sequential_page_transitions_collapse(self):
        # The iTLB benefit: consecutive original instructions stay on one
        # randomized page, so a sequential execution changes page only at
        # group boundaries instead of on ~every instruction.
        insts = _fake_instructions(2000)
        confined = allocate_layout(
            insts, random.Random(3), page_confined=True
        )
        spread = allocate_layout(insts, random.Random(3), page_confined=False)

        def transitions(layout):
            pages = [layout.placement[i.addr] >> 12 for i in insts]
            return sum(1 for a, b in zip(pages, pages[1:]) if a != b)

        assert transitions(confined) < transitions(spread) / 10

    def test_entropy_capped_at_page(self):
        insts = _fake_instructions(500)
        confined = allocate_layout(insts, random.Random(1), page_confined=True)
        import math
        assert confined.entropy_bits() == math.log2(4096 // 8)

    def test_placement_still_injective(self):
        insts = _fake_instructions(3000)
        layout = allocate_layout(insts, random.Random(9), page_confined=True)
        values = list(layout.placement.values())
        assert len(values) == len(set(values))

    def test_page_confined_program_equivalent(self):
        image = assemble(SRC)
        program = randomize(
            image, RandomizerConfig(seed=4, page_confined=True)
        )
        verify_equivalence(program)
        assert program.layout.page_confined
