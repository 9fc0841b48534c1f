"""Differential tests: block fast path vs the reference execute loop.

The fast path (``MachineConfig.fastpath=True``, the default) must be a
pure host-side optimization: for any program, flow, budget, slicing, or
observability configuration it has to produce *bit-identical*
architectural and micro-architectural results to the reference loop
(``fastpath=False``).  These tests run both loops over the same inputs
and compare full ``SimResult`` serializations, traces, and logged
checkpoint records, including the flows that rewrite code or swap RDR
tables mid-run and therefore exercise the explicit block-invalidation
API.
"""

from __future__ import annotations

import struct

import pytest

from repro.arch import attach_tracer
from repro.arch.config import default_config
from repro.arch.cpu import CycleCPU
from repro.emu import ILREmulator
from repro.ilr import RandomizerConfig, make_flow, randomize, rerandomize
from repro.ilr.rerandomize import apply_rerandomization
from repro.obs.events import EventLog, MemorySink
from repro.workloads import build_image
from repro.workloads.builder import ProgramBuilder

SEED = 7
BUDGET = 120_000

_programs = {}


def _program(name):
    if name not in _programs:
        image = build_image(name, scale=1.0)
        _programs[name] = randomize(image, RandomizerConfig(seed=SEED))
    return _programs[name]


def _cpu(mode, program, fastpath, checkpoint_interval=0, tracepath=True):
    """A CPU; with a checkpoint interval, it logs into memory."""
    cfg = default_config()
    cfg.fastpath = fastpath
    cfg.tracepath = tracepath
    return CycleCPU(
        program.image_for(mode),
        make_flow(mode, program),
        cfg,
        events=EventLog(MemorySink()) if checkpoint_interval else None,
        checkpoint_interval=checkpoint_interval,
    )


def _checkpoints(cpu):
    """The ``checkpoint`` records ``cpu`` logged, minus the log's own
    ``t`` and ``seq`` stamps."""
    return [{k: v for k, v in record.items() if k not in ("t", "seq")}
            for record in cpu.events.sink.records
            if record["kind"] == "checkpoint"]


class TestResultEquivalence:
    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    @pytest.mark.parametrize("workload", ["gcc", "bzip2", "xalan"])
    def test_results_bit_identical(self, mode, workload):
        """Cycle counts and every counter agree, checkpoints included.

        The checkpoint cadence is deliberately not a divisor of typical
        block lengths, so the fast loop repeatedly hits the clipped-
        budget case where a block is cut mid-way and the next call
        resumes inside it.
        """
        program = _program(workload)
        fast = _cpu(mode, program, True, checkpoint_interval=7_777)
        ref = _cpu(mode, program, False, checkpoint_interval=7_777)
        result_fast = fast.run(max_instructions=BUDGET)
        result_ref = ref.run(max_instructions=BUDGET)
        assert result_fast.to_dict() == result_ref.to_dict()
        assert _checkpoints(fast) == _checkpoints(ref)
        assert _checkpoints(fast), "cadence should have fired"

    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    def test_blocks_only_tier_bit_identical(self, mode):
        """The middle tier alone: fastpath on, trace compilation off.

        Trace-tier tests live in ``test_tracecache.py``; this pins the
        block path's own equivalence now that the default configuration
        layers traces on top of it."""
        program = _program("gcc")
        fast = _cpu(mode, program, True, tracepath=False)
        ref = _cpu(mode, program, False)
        result_fast = fast.run(max_instructions=BUDGET)
        result_ref = ref.run(max_instructions=BUDGET)
        assert fast._tracecache is None
        assert result_fast.to_dict() == result_ref.to_dict()

    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    def test_warmup_equivalent(self, mode):
        program = _program("mcf")
        fast = _cpu(mode, program, True)
        ref = _cpu(mode, program, False)
        result_fast = fast.run(max_instructions=60_000,
                               warmup_instructions=10_000)
        result_ref = ref.run(max_instructions=60_000,
                             warmup_instructions=10_000)
        assert result_fast.to_dict() == result_ref.to_dict()

    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    def test_slice_resumption_equivalent(self, mode):
        """Odd-sized run_slice calls cut blocks at arbitrary points."""
        program = _program("hmmer")
        fast = _cpu(mode, program, True)
        ref = _cpu(mode, program, False)
        for chunk in (1, 977, 3_333, 13, 50_000, 100_000):
            done_fast = fast.run_slice(chunk)
            done_ref = ref.run_slice(chunk)
            assert done_fast == done_ref
            assert fast.cycle == ref.cycle
            assert fast.state.icount == ref.state.icount
            assert fast.state.pc == ref.state.pc
        result_fast = fast.result()
        result_ref = ref.result()
        assert result_fast.to_dict() == result_ref.to_dict()


class TestFastTiersStandAlone:
    """Neither fast tier runs the reference loop: with it raising
    whenever ``fastpath`` is on, blocks cut by checkpoint windows and by
    odd ``run_slice`` chunks still give the reference loop's results."""

    @pytest.fixture(autouse=True)
    def _reference_loop_off_the_fast_path(self, monkeypatch):
        reference = CycleCPU._execute_loop_ref

        def guarded(cpu, budget):
            if cpu._fastpath:
                raise AssertionError("the fast path ran the reference loop")
            return reference(cpu, budget)

        monkeypatch.setattr(CycleCPU, "_execute_loop_ref", guarded)

    @pytest.mark.parametrize("interval", [1, 7, 997])
    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    @pytest.mark.parametrize("tracepath", [False, True],
                             ids=["blocks", "traces"])
    def test_checkpoint_windows(self, tracepath, mode, interval):
        program = _program("gcc")
        budget = 3_000 if interval == 1 else 30_000
        fast = _cpu(mode, program, True, interval, tracepath)
        ref = _cpu(mode, program, False, interval)
        assert fast.run(budget).to_dict() == ref.run(budget).to_dict()
        assert _checkpoints(fast) == _checkpoints(ref)

    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    @pytest.mark.parametrize("tracepath", [False, True],
                             ids=["blocks", "traces"])
    def test_odd_slices(self, tracepath, mode):
        program = _program("gcc")
        fast = _cpu(mode, program, True, tracepath=tracepath)
        ref = _cpu(mode, program, False)
        for chunk in (1, 977, 3_333, 13, 7, 20_001):
            assert fast.run_slice(chunk) == ref.run_slice(chunk)
            assert (fast.cycle, fast.state.icount, fast.state.pc) == (
                ref.cycle, ref.state.icount, ref.state.pc)
        result_fast = fast.result()
        result_ref = ref.result()
        assert result_fast.to_dict() == result_ref.to_dict()


#: Small structures, so that evictions run and so do the trace tier's
#: fallbacks to the model methods: ``pow2`` folds every set index into
#: generated code (8-entry ITLB, 4-entry DTLB, 4 BTB sets, 4 DL1 sets);
#: ``odd`` has set counts that do not fold (6 BTB sets, 3 DL1 and IL1
#: sets), which keeps those calls.
SMALL_GEOMETRIES = {
    "pow2": {("itlb", "entries"): 8, ("dtlb", "entries"): 4,
             ("branch", "btb_entries"): 16, ("dl1", "size_bytes"): 4 * 128},
    "odd": {("branch", "btb_entries"): 24, ("dl1", "size_bytes"): 3 * 128,
            ("il1", "size_bytes"): 3 * 128},
}


class TestSmallGeometries:
    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    @pytest.mark.parametrize("workload", ["gcc", "mcf", "soplex"])
    @pytest.mark.parametrize("geometry", sorted(SMALL_GEOMETRIES))
    def test_tiers_agree(self, geometry, workload, mode):
        program = _program(workload)
        results = []
        for fastpath, tracepath in ((False, False), (True, False),
                                    (True, True)):
            cfg = default_config()
            cfg.fastpath = fastpath
            cfg.tracepath = tracepath
            for (part, name), value in SMALL_GEOMETRIES[geometry].items():
                setattr(getattr(cfg, part), name, value)
            cpu = CycleCPU(program.image_for(mode), make_flow(mode, program),
                           cfg)
            folds = geometry == "pow2"
            assert (cpu.dl1._set_mask >= 0) == folds
            assert (cpu.branch.btb._set_mask >= 0) == folds
            results.append(cpu.run(
                max_instructions=BUDGET, warmup_instructions=5_000,
            ).to_dict())
        assert cpu.tier_stats()["traces"]["entries"] > 0
        assert results[1] == results[0], "block tier"
        assert results[2] == results[0], "trace tier"


class TestTraceEquivalence:
    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    def test_instruction_traces_identical(self, mode):
        program = _program("sjeng")
        fast = _cpu(mode, program, True)
        ref = _cpu(mode, program, False)
        trace_fast = attach_tracer(fast, capacity=100_000)
        trace_ref = attach_tracer(ref, capacity=100_000)
        fast.run(max_instructions=40_000)
        ref.run(max_instructions=40_000)
        assert trace_fast.retired == trace_ref.retired
        assert [e.as_dict() for e in trace_fast.entries] == [
            e.as_dict() for e in trace_ref.entries
        ]

    @staticmethod
    def _exit_program(how):
        """A hot loop whose program ends in ``how``: ``int`` exits through
        the loop's own ``int 0x80`` (the syscall number turns from 5,
        emit, to 1, exit, without a branch, so the last iteration exits
        inside a compiled trace); ``halt`` halts after the loop."""
        b = ProgramBuilder("exit_" + how)
        b.label("main")
        b.emits("movi ecx, 0", "movi ebx, 0")
        b.label("top")
        if how == "int":
            b.emits("add ecx, 1", "mov eax, ecx", "shr eax, 8",
                    "shl eax, 2", "movi edx, 5", "sub edx, eax",
                    "mov eax, edx", "int 0x80", "jmp top")
        else:
            b.emits("add ecx, 1", "cmp ecx, 300", "jl top", "halt")
        return randomize(b.image(), RandomizerConfig(seed=SEED))

    @pytest.mark.parametrize("how", ["int", "halt"])
    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    def test_trace_ends_with_the_exiting_instruction(self, mode, how):
        program = self._exit_program(how)
        traces = []
        for fastpath, tracepath in ((False, False), (True, False),
                                    (True, True)):
            cpu = _cpu(mode, program, fastpath, tracepath=tracepath)
            tracer = attach_tracer(cpu, capacity=100_000)
            result = cpu.run(max_instructions=BUDGET)
            assert result.finished
            assert tracer.retired == result.instructions
            assert tracer.entries[-1].mnemonic == how
            if tracepath:
                assert cpu.tier_stats()["traces"]["entries"] > 0
            traces.append([e.as_dict() for e in tracer.entries])
        assert traces[0] == traces[1] == traces[2]


class TestInvalidation:
    def test_rerandomization_invalidates_and_stays_equivalent(self):
        """Live epoch rotation: table swap + text rewrite must drop every
        decoded block, and the continued run must match the reference."""
        program = _program("gcc")
        fresh = rerandomize(program, new_seed=99)

        def run(fastpath):
            cpu = _cpu("vcfr", program, fastpath)
            cpu.run_slice(40_000)
            before = len(cpu._blockcache)
            apply_rerandomization(cpu, fresh)
            after = len(cpu._blockcache)
            cpu.run_slice(BUDGET)
            result = cpu.result()
            return before, after, result

        before_fast, after_fast, result_fast = run(True)
        _before_ref, _after_ref, result_ref = run(False)
        assert before_fast > 0 and after_fast == 0
        assert result_fast.finished
        assert result_fast.to_dict() == result_ref.to_dict()

    def test_rerandomization_rejects_non_vcfr(self):
        program = _program("gcc")
        cpu = _cpu("naive_ilr", program, True)
        with pytest.raises(ValueError):
            apply_rerandomization(cpu, rerandomize(program, new_seed=5))

    def test_rewrite_code_invalidates_stale_blocks(self):
        """Patching an executed instruction must take effect on the very
        next iteration — a stale decoded block would keep the old
        immediate alive on the fast path only."""
        b = ProgramBuilder("patchtest")
        b.label("main")
        b.emit("movi ecx, 0")
        loop = "looptop"
        b.label(loop)
        b.label("patchme")
        b.emit("movi eax, 41")
        b.emits("add ecx, 1", "cmp ecx, 4000", "jl %s" % loop)
        b.emit_word("eax")
        b.exit(0)
        image = b.image()
        patch_addr = image.symbols.resolve("patchme")

        def run(fastpath):
            cfg = default_config()
            cfg.fastpath = fastpath
            cpu = CycleCPU(image, make_flow("baseline", image=image), cfg)
            cpu.run_slice(2_000)  # loop body is hot (and decoded) by now
            # movi's imm32 field sits one byte past the opcode.
            cpu.rewrite_code(patch_addr + 1, struct.pack("<I", 99))
            cpu.run_slice(1_000_000)
            return cpu.result()

        result_fast = run(True)
        result_ref = run(False)
        assert list(result_fast.output.words) == [99]
        assert result_fast.to_dict() == result_ref.to_dict()

    def test_invalidate_range_is_targeted(self):
        """Rewriting one address drops only the blocks covering it."""
        program = _program("gcc")
        cpu = _cpu("vcfr", program, True)
        cpu.run_slice(40_000)
        blocks = dict(cpu._blockcache.blocks)
        assert blocks
        leader = next(iter(blocks))
        victim = blocks[leader]
        cpu.invalidate_blocks(victim.lo, victim.hi - victim.lo)
        assert leader not in cpu._blockcache.blocks
        survivors = [
            b for b in blocks.values()
            if b.hi <= victim.lo or b.lo >= victim.hi
        ]
        for block in survivors:
            assert block.leader in cpu._blockcache.blocks


class TestEmulatorCrossCheck:
    def test_architectural_output_matches_emulator(self):
        """The emulator shares the executor but none of the fast path,
        so agreeing with it checks architectural semantics end to end."""
        program = _program("libquantum")
        emu = ILREmulator(program, max_instructions=5_000_000).run()
        assert emu.run.exit_code is not None, "emulator must finish"
        for mode in ("baseline", "naive_ilr", "vcfr"):
            cpu = _cpu(mode, program, True)
            result = cpu.run(max_instructions=5_000_000)
            assert result.finished
            assert result.exit_code == emu.run.exit_code
            assert list(result.output.words) == list(emu.run.output.words)
            assert bytes(result.output.chars) == bytes(emu.run.output.chars)
