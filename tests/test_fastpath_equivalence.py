"""Differential tests: block fast path vs the reference execute loop.

The fast path (``MachineConfig.fastpath=True``, the default) must be a
pure host-side optimization: for any program, flow, budget, slicing, or
observability configuration it has to produce *bit-identical*
architectural and micro-architectural results to the reference loop
(``fastpath=False``).  These tests run both loops over the same inputs
and compare full ``SimResult`` serializations, traces, and checkpoint
streams, including the flows that rewrite code or swap RDR tables
mid-run and therefore exercise the explicit block-invalidation API.
"""

from __future__ import annotations

import copy
import struct

import pytest

from repro.arch import attach_tracer
from repro.arch.config import default_config
from repro.arch.cpu import CycleCPU
from repro.emu import ILREmulator
from repro.ilr import RandomizerConfig, make_flow, randomize, rerandomize
from repro.ilr.rerandomize import apply_rerandomization
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
    cfg = default_config()
    cfg.fastpath = fastpath
    cfg.tracepath = tracepath
    return CycleCPU(
        program.image_for(mode),
        make_flow(mode, program),
        cfg,
        checkpoint_interval=checkpoint_interval,
    )


def _comparable(result_dict):
    """Result dict minus host-side wall-clock (the one legal difference)."""
    out = copy.deepcopy(result_dict)
    for checkpoint in out["checkpoints"]:
        checkpoint.pop("host_seconds", None)
    return out


class TestResultEquivalence:
    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    @pytest.mark.parametrize("workload", ["gcc", "bzip2", "xalan"])
    def test_results_bit_identical(self, mode, workload):
        """Cycle counts and every counter agree, checkpoints included.

        The checkpoint cadence is deliberately not a divisor of typical
        block lengths, so the fast loop repeatedly hits the clipped-
        budget case where a partial block must fall back to the
        reference loop mid-run.
        """
        program = _program(workload)
        fast = _cpu(mode, program, True, checkpoint_interval=7_777)
        ref = _cpu(mode, program, False, checkpoint_interval=7_777)
        result_fast = fast.run(max_instructions=BUDGET)
        result_ref = ref.run(max_instructions=BUDGET)
        assert _comparable(result_fast.to_dict()) == _comparable(
            result_ref.to_dict()
        )
        assert result_fast.checkpoints, "cadence should have fired"

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
        assert _comparable(result_fast.to_dict()) == _comparable(
            result_ref.to_dict()
        )

    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    def test_warmup_equivalent(self, mode):
        program = _program("mcf")
        fast = _cpu(mode, program, True)
        ref = _cpu(mode, program, False)
        result_fast = fast.run(max_instructions=60_000,
                               warmup_instructions=10_000)
        result_ref = ref.run(max_instructions=60_000,
                             warmup_instructions=10_000)
        assert _comparable(result_fast.to_dict()) == _comparable(
            result_ref.to_dict()
        )

    @pytest.mark.parametrize("mode", ["baseline", "vcfr"])
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
        result_fast = fast._result(finished=fast._finished, warmup=0)
        result_ref = ref._result(finished=ref._finished, warmup=0)
        assert _comparable(result_fast.to_dict()) == _comparable(
            result_ref.to_dict()
        )


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
            result = cpu._result(finished=cpu._finished, warmup=0)
            return before, after, result

        before_fast, after_fast, result_fast = run(True)
        _before_ref, _after_ref, result_ref = run(False)
        assert before_fast > 0 and after_fast == 0
        assert result_fast.finished
        assert _comparable(result_fast.to_dict()) == _comparable(
            result_ref.to_dict()
        )

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
            return cpu._result(finished=cpu._finished, warmup=0)

        result_fast = run(True)
        result_ref = run(False)
        assert list(result_fast.output.words) == [99]
        assert _comparable(result_fast.to_dict()) == _comparable(
            result_ref.to_dict()
        )

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
