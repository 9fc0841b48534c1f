"""Trace-tier tests: compiled superblocks vs the block and reference tiers.

The trace cache (``MachineConfig.tracepath=True``, the top execution
tier) compiles hot block chains into generated Python functions.  Like
the block fast path beneath it, it is contractually a pure host-side
optimization: cycle counts, every simulated statistic and outputs must
be bit-identical to the reference loop.  These tests pin
that contract on the paths where generated code is easiest to get
wrong — every terminal and every ALU load and store form inside a
compiled loop, guard side-exits on mispredicted intra-trace branches,
self-modifying code landing mid-trace, re-randomization epochs rotating
tables out from under compiled traces — plus the exact
invalidation-window accounting both caches share, the exclusion of
trace knobs from result-cache fingerprints, and the process-wide cache
of compiled trace code (one ``compile()`` per distinct source, with
no CPU's results changed by running code another CPU compiled).
"""

from __future__ import annotations

import copy
import struct
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import tracecache
from repro.arch.config import default_config
from repro.arch.cpu import CycleCPU
from repro.arch.memory import MemoryFault
from repro.arch.tlb import PageVisibilityFault
from repro.harness.spec import config_fingerprint
from repro.ilr import RandomizerConfig, make_flow, randomize, rerandomize
from repro.ilr.rerandomize import apply_rerandomization
from repro.isa import assemble, opcodes
from repro.obs.events import EventLog, MemorySink
from repro.workloads import build_image
from repro.workloads.builder import ProgramBuilder

from tests.test_equivalence_property import generate_program

SEED = 7


def _config(fastpath=True, tracepath=True, hot=2):
    cfg = default_config()
    cfg.fastpath = fastpath
    cfg.tracepath = tracepath
    cfg.trace_hot_threshold = hot
    return cfg


def _counting_loop(iterations=4_000):
    b = ProgramBuilder("hotloop")
    b.label("main")
    b.emit("movi ecx, 0")
    b.label("looptop")
    b.emits("movi eax, 41", "add ecx, 1",
            "cmp ecx, %d" % iterations, "jl looptop")
    b.emit_word("ecx")
    b.exit(0)
    return b.image()


def _patchable_loop():
    """A counting loop whose first instruction, ``movi eax, 41``, a test
    can patch; returns ``(image, address of the patchable instruction)``."""
    b = ProgramBuilder("smctrace")
    b.label("main")
    b.emit("movi ecx, 0")
    b.label("looptop")
    b.label("patchme")
    b.emit("movi eax, 41")
    b.emits("add ecx, 1", "cmp ecx, 4000", "jl looptop")
    b.emit_word("eax")
    b.exit(0)
    image = b.image()
    return image, image.symbols.resolve("patchme")


def _program(name):
    image = build_image(name, scale=1.0)
    return randomize(image, RandomizerConfig(seed=SEED))


def _mode_cpu(mode, program, cfg):
    return CycleCPU(program.image_for(mode), make_flow(mode, program), cfg)


class TestTraceTier:
    def test_hot_loop_compiles_a_trace_and_matches_reference(self):
        image = _counting_loop()

        def run(cfg):
            cpu = CycleCPU(image, make_flow("baseline", image=image), cfg)
            result = cpu.run(max_instructions=100_000)
            return cpu, result

        cpu, result = run(_config())
        _ref_cpu, ref = run(_config(fastpath=False))

        stats = cpu.tier_stats()["traces"]
        assert stats["builds"] >= 1
        assert stats["traces"] >= 1
        assert stats["compile_failures"] == 0
        assert stats["entries"] > 0, "the loop must actually run traced"
        assert result.to_dict() == ref.to_dict()

    def test_one_register_add_sub_flags_match_reference(self):
        """``add r, r``/``sub r, r`` take OF (and sub's CF) from the
        source's value before the write-back; a trace that re-read the
        written register took the wrong ``jl`` on every iteration."""
        b = ProgramBuilder("aliased")
        b.label("main")
        b.emits("movi ecx, 0", "movi edx, 0")
        b.label("top")
        b.emits("movi eax, 1073741824", "add eax, eax", "jl skip_add",
                "add edx, 1")
        b.label("skip_add")
        b.emits("movi ebx, 2147483648", "sub ebx, ebx", "jl skip_sub",
                "add edx, 1")
        b.label("skip_sub")
        b.emits("add ecx, 1", "cmp ecx, 200", "jl top")
        b.emit_word("edx")
        b.exit(0)
        image = b.image()

        def run(cfg):
            cpu = CycleCPU(image, make_flow("baseline", image=image), cfg)
            return cpu, cpu.run(max_instructions=100_000)

        cpu, result = run(_config())
        _ref_cpu, ref = run(_config(fastpath=False))
        assert cpu.tier_stats()["traces"]["entries"] > 0
        assert list(ref.output.words) == [400]
        assert result.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    def test_workload_traces_match_reference(self, mode):
        """Real workload, aggressive tracing: every counter identical."""
        program = _program("gcc")
        fast = _mode_cpu(mode, program, _config(hot=1))
        ref = _mode_cpu(mode, program, _config(fastpath=False))
        result_fast = fast.run(max_instructions=80_000)
        result_ref = ref.run(max_instructions=80_000)
        assert fast.tier_stats()["traces"]["entries"] > 0
        # A failed compile falls back to blocks and stays bit-identical,
        # so only this count shows a broken template.
        assert fast.tier_stats()["traces"]["compile_failures"] == 0
        assert result_fast.to_dict() == result_ref.to_dict()


def _loop_image(body, tail=(), data=(), iterations=200):
    """``body`` once per iteration of a counted loop, emitting ``edx``
    at the end; ``tail`` follows the exit (callees, cold targets) and
    ``data`` fills the data section.  Lines ending in ``:`` are labels."""
    b = ProgramBuilder("terminal")
    b.label("main")
    b.emits("movi ecx, 0", "movi edx, 0")
    b.label("looptop")
    b.emits(*body)
    b.emits("add ecx, 1", "cmp ecx, %d" % iterations, "jl looptop")
    b.emit_word("edx")
    b.exit(0)
    b.emits(*tail)
    for line in data:
        b.data(line)
    return b.image()


def _run_modes(image, cfg, budget=100_000):
    """Run ``image`` traced (``cfg``) and on the reference loop in every
    mode; yields ``(mode, traced_cpu, traced_result, ref_result)``."""
    program = randomize(image, RandomizerConfig(seed=SEED))
    ref_cfg = copy.deepcopy(cfg)
    ref_cfg.fastpath = False
    for mode in ("baseline", "naive_ilr", "vcfr"):
        cpu = _mode_cpu(mode, program, cfg)
        result = cpu.run(max_instructions=budget)
        ref = _mode_cpu(mode, program, ref_cfg).run(max_instructions=budget)
        yield mode, cpu, result, ref


def _traced_ops(cpu):
    """``(inst, left_by_branch)`` for every instruction of every compiled
    trace.  ``left_by_branch`` is None for interior ops; for a block's
    terminal it says whether the recording left the block other than by
    its fall-through (the last block's successor is the anchor)."""
    for trace in cpu._tracecache.traces.values():
        blocks = trace.blocks
        for i, block in enumerate(blocks):
            *interior, term = block.ops
            for op in interior:
                yield op[1], None
            successor = blocks[(i + 1) % len(blocks)].leader
            yield term[1], successor != term[12]


def _op(mnemonic, mode=None, taken=None):
    """Matcher for :func:`_traced_ops` items (None matches anything)."""
    return lambda inst, left: (inst.mnemonic == mnemonic
                               and mode in (None, inst.mode)
                               and taken in (None, left))


def _cap_split(inst, left):
    """A block terminal that is not a control transfer."""
    return left is not None and not inst.is_control


#: cc -> (cmp operands that make it hold, operands that make it fail);
#: signed and unsigned conditions get operands that tell them apart.
_CC_OPERANDS = {
    "z": ((5, 5), (5, 6)),
    "nz": ((5, 6), (5, 5)),
    "l": ((-3, 7), (7, -3)),
    "ge": ((7, -3), (-3, 7)),
    "le": ((5, 5), (7, 3)),
    "g": ((7, 3), (5, 5)),
    "b": ((3, 7), (-3, 7)),
    "ae": ((-3, 7), (3, 7)),
}

_HELPER = ("helper:", "add edx, 1", "ret")
_SKIP = ["add edx, 100", "over:", "add edx, 1"]


def _jcc_case(cc, taken):
    a, b = _CC_OPERANDS[cc][0 if taken else 1]
    body = ["movi eax, %d" % a, "movi ebx, %d" % b, "cmp eax, ebx"]
    if taken:
        body += ["j%s over" % cc] + _SKIP
    else:
        body += ["j%s cold" % cc, "add edx, 1"]
    return (body, ("cold:", "jmp looptop"), (),
            (_op("j" + cc, taken=taken),))


#: case -> (body, tail, data, matchers): every matcher must match an
#: instruction of a compiled trace.  Each case's construct runs on
#: every iteration.
_TERMINAL_CASES = {
    "j%s_%s" % (cc, "taken" if taken else "fallthrough"):
        _jcc_case(cc, taken)
    for cc in _CC_OPERANDS for taken in (True, False)
}
_TERMINAL_CASES.update({
    "jmp": (["jmp over"] + _SKIP, (), (), (_op("jmp"),)),
    "jmp8": (["jmp8 over"] + _SKIP, (), (), (_op("jmp8"),)),
    "call_ret": (["call helper"], _HELPER, (),
                 (_op("call"), _op("ret"))),
    "calli_reg": (["movi esi, helper", "calli esi", "movi esi, 0"],
                  _HELPER, (), (_op("calli", opcodes.MODE_RR),)),
    "calli_mem": (["movi esi, fptr", "calli [esi+0]"], _HELPER,
                  ("fptr:", ".word helper"),
                  (_op("calli", opcodes.MODE_RM),)),
    "jmpi_reg": (["movi esi, over", "jmpi esi", "add edx, 100", "over:",
                  "movi esi, 0", "add edx, 1"], (), (),
                 (_op("jmpi", opcodes.MODE_RR),)),
    "jmpi_mem": (["movi esi, jt", "jmpi [esi+0]"] + _SKIP, (),
                 ("jt:", ".word over"), (_op("jmpi", opcodes.MODE_RM),)),
    "int": (["movi eax, 7", "int 0x80", "add edx, eax"], (), (),
            (_op("int"),)),
    "cap_split": (["add edx, %d" % k for k in range(1, 7)]
                  + ["xor edx, ecx"], (), (), (_cap_split,)),
})


class TestTerminalCoverage:
    """Every trace terminal template, compiled and held to the reference
    loop in every mode.  Loop-only selection compiles fewer traces, so
    real workloads no longer reach every terminal; these loops do."""

    @pytest.mark.parametrize("case", sorted(_TERMINAL_CASES))
    def test_terminal_is_traced_and_exact(self, case):
        body, tail, data, matchers = _TERMINAL_CASES[case]
        cfg = _config()
        if case == "cap_split":
            cfg.block_max_insts = 3
        for mode, cpu, result, ref in _run_modes(
                _loop_image(body, tail, data), cfg):
            wanted = matchers
            if (case, mode) == ("jmp8", "naive_ilr"):
                # The naive layout widens jmp8 to a rel32 jmp (rewriter).
                wanted = (_op("jmp"),)
            traced = list(_traced_ops(cpu))
            for match in wanted:
                assert any(match(inst, left) for inst, left in traced), (
                    "%s: no compiled trace holds %s" % (mode, case))
            assert cpu.tier_stats()["traces"]["compile_failures"] == 0
            assert result.finished
            assert result.to_dict() == ref.to_dict(), mode


#: (op, mode) for every ALU op in load form and in store form; ``imul``
#: has no store form.
_ALU_MEMORY_CASES = (
    [(op, opcodes.MODE_RM) for op in ("add", "sub", "cmp", "test", "and",
                                      "or", "xor", "imul")]
    + [(op, opcodes.MODE_MR) for op in ("add", "sub", "cmp", "test", "and",
                                        "or", "xor")]
)


class TestAluMemoryForms:
    """Every ALU op's load and store form inside a compiled trace, held
    to the reference loop in every mode.  The cell starts near the
    signed maximum and the store forms rewrite it, so the ``jl`` after
    the op sees its flags go both ways."""

    @pytest.mark.parametrize(
        "op,mode", _ALU_MEMORY_CASES,
        ids=["%s-%s" % (op, "rm" if mode == opcodes.MODE_RM else "mr")
             for op, mode in _ALU_MEMORY_CASES])
    def test_memory_form_is_traced_and_exact(self, op, mode):
        load = mode == opcodes.MODE_RM
        body = ["movi esi, cell",
                "%s edx, [esi+0]" % op if load else "%s [esi+0], ecx" % op,
                "jl below", "add edx, 1", "below:"]
        if not load:  # the stored word reaches the output
            body.append("add edx, [esi+0]")
        image = _loop_image(body, data=("cell:", ".word 2147483600"))
        for mode_name, cpu, result, ref in _run_modes(image, _config()):
            assert any(_op(op, mode)(inst, left)
                       for inst, left in _traced_ops(cpu)), (
                "%s: no compiled trace holds the op" % mode_name)
            stats = cpu.tier_stats()["traces"]
            assert stats["entries"] > 0
            assert stats["compile_failures"] == 0
            assert result.finished
            assert result.as_dict() == ref.as_dict(), mode_name


class TestLoopOnlySelection:
    """Only a recording that closes on its anchor is compiled; one that
    revisits another member or outgrows a cap is rejected and its
    anchor blacklisted, with results untouched."""

    BODIES = {
        # The inner loop runs ``2 * ecx`` times: never on the first pass,
        # so the outer head turns hot first, and twice on the pass it
        # records, so that recording meets ``inner`` again.
        "inner_revisit": [
            "jmp outer", "outer:", "mov edi, ecx", "add edi, ecx",
            "cmp edi, 0", "jz done", "inner:", "sub edi, 1", "cmp edi, 0",
            "jg inner", "done:"],
        # Three blocks per iteration against ``trace_max_blocks=2``.
        "over_cap": [
            "movi eax, 1", "cmp eax, 1", "jz over", "add edx, 100",
            "over:", "add edx, 1", "jmp join", "join:", "add edx, ecx"],
    }

    @pytest.mark.parametrize("case", sorted(BODIES))
    def test_non_looping_recording_is_rejected(self, case):
        cfg = _config()
        if case == "over_cap":
            cfg.trace_max_blocks = 2
        image = _loop_image(self.BODIES[case], iterations=60)
        for mode, cpu, result, ref in _run_modes(image, cfg):
            cache = cpu._tracecache
            stats = cpu.tier_stats()["traces"]
            assert stats["rejected"] >= 1, mode
            assert stats["compile_failures"] == 0
            # With no compile failures the blacklist holds exactly the
            # rejected anchors.
            assert cache._failed and not cache._failed & set(cache.traces)
            if case == "over_cap":
                assert stats["builds"] == 0
            if mode == "baseline" and case == "inner_revisit":
                assert image.symbols.resolve("outer") in cache._failed
            assert result.finished
            assert result.to_dict() == ref.to_dict(), mode


class TestGuardBailout:
    def test_mispredicted_intra_trace_branch_bails_and_stays_exact(self):
        """A conditional inside the trace flips direction mid-run.

        The trace is recorded while ``ecx < 2000`` (branch taken); every
        later iteration mispredicts against the compiled direction and
        must side-exit through the guard, landing back on the block path
        with architectural and timing state intact.
        """
        b = ProgramBuilder("flipbranch")
        b.label("main")
        b.emits("movi ecx, 0", "movi edx, 0")
        b.label("looptop")
        b.emits("cmp ecx, 2000", "jl skiptail", "add edx, 1")
        b.label("skiptail")
        b.emits("add ecx, 1", "cmp ecx, 4000", "jl looptop")
        b.emit_word("edx")
        b.exit(0)
        image = b.image()

        def run(cfg):
            cpu = CycleCPU(image, make_flow("baseline", image=image), cfg)
            result = cpu.run(max_instructions=200_000)
            return cpu, result

        cpu, result = run(_config())
        _ref_cpu, ref = run(_config(fastpath=False))

        assert cpu.tier_stats()["traces"]["bailouts"] > 0
        assert list(result.output.words) == [2000]
        assert result.to_dict() == ref.to_dict()

    def test_self_modifying_code_mid_trace(self):
        """Patching an instruction a compiled trace covers must drop the
        trace (and its blocks) before the next entry — the generated
        code bakes the old immediate into its source."""
        image, patch_addr = _patchable_loop()

        def run(cfg):
            cpu = CycleCPU(image, make_flow("baseline", image=image), cfg)
            cpu.run_slice(2_000)  # loop is hot: decoded, traced, running
            traced_before = len(cpu._tracecache) if cpu._tracecache else 0
            cpu.rewrite_code(patch_addr + 1, struct.pack("<I", 99))
            cpu.run_slice(1_000_000)
            result = cpu.result()
            return cpu, traced_before, result

        cpu, traced_before, result = run(_config())
        _ref_cpu, _tb, ref = run(_config(fastpath=False))

        assert traced_before > 0, "the loop must be traced before the patch"
        assert cpu.tier_stats()["traces"]["invalidations"] >= 1
        assert list(result.output.words) == [99]
        assert result.to_dict() == ref.to_dict()

    def test_epoch_rotation_mid_trace(self):
        """Re-randomization swaps RDR tables and rewrites text: every
        compiled trace froze per-epoch ``sequential``/transfer results
        and must flush, and the continued run must stay bit-identical."""
        program = _program("gcc")
        fresh = rerandomize(program, new_seed=99)

        def run(cfg):
            cpu = _mode_cpu("vcfr", program, cfg)
            cpu.run_slice(40_000)
            traced_before = len(cpu._tracecache) if cpu._tracecache else 0
            apply_rerandomization(cpu, fresh)
            traced_after = len(cpu._tracecache) if cpu._tracecache else 0
            cpu.run_slice(120_000)
            result = cpu.result()
            return cpu, traced_before, traced_after, result

        cpu, before, after, result = run(_config(hot=1))
        _ref, _b, _a, ref = run(_config(fastpath=False))

        assert before > 0, "traces must exist before the rotation"
        assert after == 0, "rotation must flush every compiled trace"
        assert cpu.tier_stats()["traces"]["invalidations"] >= 1
        assert result.to_dict() == ref.to_dict()


#: case -> (loop body, start of ``esi``, fault, faulting address).  Each
#: loop walks a page a word at a time: 1,024 accesses, each a hit on
#: the MRU DTLB page after the first, then the next page faults.  The
#: first two walk into the invisible RDR tables; the third into an
#: unmapped page with ``SparseMemory.strict`` set.
_FAULT_CASES = {
    "read_invisible": ("mov eax, [esi+0]", 0x5FFFF000, PageVisibilityFault,
                       0x60000000),
    "write_invisible": ("mov [esi+0], eax", 0x67FFF000, PageVisibilityFault,
                        0x68000000),
    "read_strict": ("mov eax, [esi+0]", 0x7FFFE000, MemoryFault, 0x7FFFF000),
}


class TestFaultsInsideTraces:
    """A fault raised inside compiled trace code, by an inlined hit
    path's fallback call, leaves the same state as on the block and
    reference tiers."""

    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    @pytest.mark.parametrize("case", sorted(_FAULT_CASES))
    def test_fault_state_matches_every_tier(self, case, mode):
        body, start, fault, fault_addr = _FAULT_CASES[case]
        b = ProgramBuilder("fault")
        b.label("main")
        b.emit("movi esi, %d" % start)
        b.label("loop")
        b.emits(body, "add esi, 4", "jmp loop")
        program = randomize(b.image(), RandomizerConfig(seed=SEED))

        seen = []
        for cfg in (_config(fastpath=False), _config(tracepath=False),
                    _config()):
            cpu = _mode_cpu(mode, program, cfg)
            if fault is MemoryFault:
                cpu.mem.write_block(start, bytes(4096))
                cpu.mem.strict = True
            with pytest.raises(fault) as info:
                cpu.run(max_instructions=100_000)
            seen.append((info.value.addr, cpu.state.icount, cpu.cycle,
                         cpu.state.pc, cpu.dtlb.stats.accesses))
        assert seen[0][0] == fault_addr
        assert seen[1] == seen[0], "block tier"
        assert seen[2] == seen[0], "trace tier"
        assert cpu.tier_stats()["traces"]["entries"] > 0
        frames = traceback.extract_tb(info.tb)
        assert any(f.filename.startswith("<trace:") for f in frames), (
            "the fault must come from compiled trace code")


class TestInvalidationWindows:
    """Exact per-instruction invalidation accounting, both cache tiers.

    Regression: a store overlapping only the *last* instruction of a
    cached block (or straddling the block boundary) must drop the
    block, while a store landing in a layout gap *between* a scattered
    block's instructions must not."""

    def _hot_cpu(self, mode, hot=1):
        program = _program("gcc")
        cpu = _mode_cpu(mode, program, _config(hot=hot))
        cpu.run_slice(40_000)
        return cpu

    def test_store_overlapping_last_instruction_drops_block(self):
        cpu = self._hot_cpu("vcfr")
        blocks = dict(cpu._blockcache.blocks)
        assert blocks
        victim = next(iter(blocks.values()))
        # Straddling write: starts on the final byte of the block's last
        # instruction and runs past the block boundary.
        cpu.invalidate_blocks(victim.hi - 1, 4)
        assert victim.leader not in cpu._blockcache.blocks

    def test_store_just_past_block_boundary_is_ignored(self):
        cpu = self._hot_cpu("vcfr")
        blocks = dict(cpu._blockcache.blocks)
        assert blocks
        # Pick a contiguous victim: for scattered blocks ``hi`` is only
        # the hull's end, and an adjacent write could legally hit a
        # different member instruction.
        victim = next(
            (b for b in blocks.values() if b.spans is None), None)
        if victim is None:
            pytest.skip("no contiguous block decoded")
        cpu.invalidate_blocks(victim.hi, 4)
        assert victim.leader in cpu._blockcache.blocks

    @staticmethod
    def _gap_of(spans):
        """A (start, size) window strictly between two member spans."""
        ordered = sorted(spans)
        for (_, prev_hi), (next_lo, _) in zip(ordered, ordered[1:]):
            if next_lo > prev_hi:
                return prev_hi, next_lo - prev_hi
        return None

    def test_store_in_gap_of_scattered_block_survives(self):
        """Naive ILR scatters a block's instructions across fetch space;
        a write inside the hull but between instructions is not a code
        write for that block."""
        cpu = self._hot_cpu("naive_ilr")
        scattered = [
            b for b in cpu._blockcache.blocks.values()
            if b.spans is not None and self._gap_of(b.spans)
        ]
        assert scattered, "naive ILR must produce non-contiguous blocks"
        victim = scattered[0]
        start, size = self._gap_of(victim.spans)
        before = len(cpu._blockcache)
        cpu.invalidate_blocks(start, size)
        assert victim.leader in cpu._blockcache.blocks
        # Sanity: the window may still hit *other* blocks' instructions,
        # but never more than existed.
        assert len(cpu._blockcache) <= before

    def test_traces_inherit_window_semantics(self):
        """The trace tier reuses the block spans for overlap checks: a
        gap write keeps the trace, a last-byte write drops it."""
        cpu = self._hot_cpu("naive_ilr")
        cache = cpu._tracecache
        assert cache is not None and len(cache) > 0

        def covered(trace):
            spans = []
            for block in trace.blocks:
                if block.spans is None:
                    spans.append((block.lo, block.hi))
                else:
                    spans.extend(block.spans)
            return spans

        # A trace whose member instructions leave a hole inside the
        # [lo, hi) hull: writes into the hole must not invalidate it.
        for anchor, trace in list(cache.traces.items()):
            gap = self._gap_of(covered(trace))
            if gap is None:
                continue
            start, size = gap
            cache.invalidate_range(start, size)
            assert cache.traces.get(anchor) is trace, (
                "gap write must not drop the trace")
            break
        else:
            pytest.skip("no trace with an interior layout gap")

        anchor, trace = next(iter(cache.traces.items()))
        cache.invalidate_range(trace.hi - 1, 1)
        assert cache.traces.get(anchor) is None, (
            "write into the last member instruction must drop the trace")


class TestTierTelemetry:
    def test_run_end_carries_tier_stats_and_stats_cli_renders_them(self):
        """Events + ``repro.tools.stats``: a run with events enabled
        attaches tier counters to ``run_end``, and the stats CLI's
        ``tiers`` section aggregates them across runs."""
        from repro.tools.stats import tier_table

        image = _counting_loop()
        sink = MemorySink()
        cpu = CycleCPU(image, make_flow("baseline", image=image), _config(),
                       events=EventLog(sink=sink))
        cpu.run(max_instructions=100_000)

        run_ends = [r for r in sink.records if r.get("kind") == "run_end"]
        assert run_ends and run_ends[0].get("tiers")
        tiers = run_ends[0]["tiers"]
        assert tiers["blocks"]["execs"] > 0
        assert tiers["traces"]["entries"] > 0

        table = tier_table(sink.records * 2)  # two "runs" aggregate
        assert table is not None
        assert "traces" in table and "entries" in table
        assert str(2 * tiers["traces"]["entries"]) in table

    def test_tier_table_absent_without_tier_records(self):
        from repro.tools.stats import tier_table
        assert tier_table([{"kind": "run_end", "instructions": 5}]) is None


class TestFingerprintExclusion:
    def test_trace_knobs_do_not_change_result_fingerprints(self):
        """Every trace knob is host tuning: cached results computed with
        any tier configuration must be served to any other."""
        reference = config_fingerprint(default_config())
        for knob, value in (
            ("fastpath", False),
            ("tracepath", False),
            ("trace_hot_threshold", 1),
            ("trace_max_blocks", 2),
            ("trace_max_insts", 16),
            ("trace_cache_capacity", 3),
            ("block_cache_capacity", 64),
            ("block_max_insts", 4),
        ):
            cfg = default_config()
            setattr(cfg, knob, value)
            assert config_fingerprint(cfg) == reference, knob

    def test_timing_fields_still_change_fingerprints(self):
        cfg = default_config()
        cfg.il1.latency += 1
        assert config_fingerprint(cfg) != config_fingerprint(
            default_config())


@pytest.fixture
def compiles(monkeypatch):
    """Start from a cold code cache and list the file name of every
    ``compile()`` trace code makes from here on."""
    tracecache.clear_code_cache()
    calls = []
    real = compile

    def counting(src, filename, mode):
        calls.append(filename)
        return real(src, filename, mode)

    monkeypatch.setattr(tracecache, "compile", counting, raising=False)
    return calls


@pytest.fixture
def sources(monkeypatch):
    """Every trace source rendered from here on, compiled or not."""
    seen = []
    real = tracecache._module_code

    def recording(src, filename):
        seen.append(src)
        return real(src, filename)

    monkeypatch.setattr(tracecache, "_module_code", recording)
    return seen


def _sliced_result(cpu):
    """The result of a CPU driven by ``run_slice``."""
    return cpu.result()


class TestProcessCodeCache:
    """A process compiles each distinct trace source once: a CPU that
    renders a source another CPU compiled rebuilds the code from the
    process-wide cache, and sharing it changes nothing any CPU
    computes."""

    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    def test_second_cpu_compiles_nothing_and_matches_the_first(
            self, compiles, mode):
        program = _program("gcc")
        first = _mode_cpu(mode, program, _config())
        result = first.run(max_instructions=60_000)
        built = len(compiles)
        assert built > 0
        second = _mode_cpu(mode, program, _config())
        again = second.run(max_instructions=60_000)
        assert len(compiles) == built, "the second CPU must compile nothing"
        assert again.to_dict() == result.to_dict()
        assert second.tier_stats() == first.tier_stats()
        ours = first._tracecache.traces
        theirs = second._tracecache.traces
        assert ours and ours.keys() == theirs.keys()
        for anchor, trace in ours.items():
            fn = theirs[anchor].fn
            assert fn is not trace.fn
            assert fn.__code__ is not trace.fn.__code__
            assert fn.__code__.co_code == trace.fn.__code__.co_code

    def test_interleaved_cpus_match_their_solo_runs(self, compiles):
        """VCFR at two DRC sizes renders the same sources (the size is
        not baked in), so the second CPU runs code the first compiled.
        Interleaved slice by slice, each still computes exactly its
        solo run: shared code never reaches another CPU's state."""
        program = _program("gcc")
        sizes = (16, 512)

        def cpu(entries):
            config = _config().with_overrides([("drc.entries", entries)])
            return _mode_cpu("vcfr", program, config)

        def run(cpus):
            for _ in range(12):
                for each in cpus:
                    each.run_slice(5_000)
            return [_sliced_result(each).to_dict() for each in cpus]

        solo = [run([cpu(entries)])[0] for entries in sizes]
        assert solo[0] != solo[1], "the DRC size must show in the results"
        distinct = len(compiles)
        assert distinct > 0
        tracecache.clear_code_cache()
        assert run([cpu(entries) for entries in sizes]) == solo
        assert len(compiles) == 2 * distinct

    def test_sources_repeat_per_cpu_and_differ_by_mode(self, sources):
        program = _program("gcc")

        def rendered(mode, events=None):
            start = len(sources)
            CycleCPU(program.image_for(mode), make_flow(mode, program),
                     _config(), events=events).run(max_instructions=40_000)
            return sources[start:]

        by_mode = {mode: rendered(mode)
                   for mode in ("baseline", "naive_ilr", "vcfr")}
        assert all(by_mode.values())
        assert rendered("vcfr") == by_mode["vcfr"]
        assert not set(by_mode["baseline"]) & set(by_mode["naive_ilr"])
        assert not set(by_mode["naive_ilr"]) & set(by_mode["vcfr"])
        assert not set(by_mode["baseline"]) & set(by_mode["vcfr"])
        # The event log is not a trace trait: a logging CPU renders
        # exactly the null log's sources.
        for mode, plain in by_mode.items():
            assert rendered(mode, EventLog(MemorySink())) == plain, mode

    @pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
    def test_logging_cpu_reuses_null_log_code(self, compiles, mode):
        program = _program("gcc")
        plain = _mode_cpu(mode, program, _config()).run(
            max_instructions=60_000)
        built = len(compiles)
        assert built > 0
        logged = CycleCPU(program.image_for(mode), make_flow(mode, program),
                          _config(), events=EventLog(MemorySink()))
        result = logged.run(max_instructions=60_000)
        assert len(compiles) == built, "the logging CPU must compile nothing"
        assert result.to_dict() == plain.to_dict()

    def test_rewritten_code_misses_and_the_other_cpu_is_unaffected(
            self, compiles):
        image, patch_addr = _patchable_loop()

        def cpu():
            fresh = CycleCPU(image, make_flow("baseline", image=image),
                             _config())
            fresh.run_slice(2_000)  # the loop is traced and running
            return fresh

        def finish(cpu):
            cpu.run_slice(1_000_000)
            return _sliced_result(cpu)

        solo = finish(cpu()).to_dict()
        tracecache.clear_code_cache()
        patched = cpu()
        built = len(compiles)
        assert built > 0
        other = cpu()
        assert len(compiles) == built, "the same loop must hit"
        patched.rewrite_code(patch_addr + 1, struct.pack("<I", 99))
        result = finish(patched)
        assert len(compiles) > built, "the patched loop's trace must miss"
        assert list(result.output.words) == [99]
        built = len(compiles)
        assert finish(other).to_dict() == solo
        assert len(compiles) == built

    def test_bound_flushes_and_runs_stay_exact(self, compiles, monkeypatch):
        cap = 24_000  # a handful of gcc's traces
        monkeypatch.setattr(tracecache, "_CODE_CACHE_CAP", cap)
        held = []
        real = tracecache._module_code

        def checked(src, filename):
            code = real(src, filename)
            stored = sum(map(len, tracecache._code_cache.values()))
            assert stored == tracecache._code_cache_bytes <= cap
            held.append(len(tracecache._code_cache))
            return code

        monkeypatch.setattr(tracecache, "_module_code", checked)
        program = _program("gcc")
        ref = _mode_cpu("vcfr", program, _config(fastpath=False)).run(
            max_instructions=60_000)
        for _ in range(2):
            result = _mode_cpu("vcfr", program, _config()).run(
                max_instructions=60_000)
            assert result.to_dict() == ref.to_dict()
        assert any(b < a for a, b in zip(held, held[1:])), (
            "the bound must have flushed the cache")

    def test_clear_code_cache_restores_a_cold_start(self, compiles):
        image = _counting_loop()

        def run():
            CycleCPU(image, make_flow("baseline", image=image),
                     _config()).run(max_instructions=100_000)

        run()
        cold = len(compiles)
        assert cold > 0
        run()
        assert len(compiles) == cold
        tracecache.clear_code_cache()
        run()
        assert len(compiles) == 2 * cold


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=10, deadline=None)
def test_trace_tier_matches_reference_on_random_programs(seed):
    """Property: on arbitrary (terminating) block graphs the trace tier
    retires the same instruction count with identical statistics as the
    reference loop — loops, calls, indirect dispatch and all."""
    image = assemble(generate_program(seed))
    program = randomize(image, RandomizerConfig(seed=seed ^ 0x5EED))
    for mode in ("baseline", "vcfr"):
        fast = _mode_cpu(mode, program, _config(hot=1))
        ref = _mode_cpu(mode, program, _config(fastpath=False))
        result_fast = fast.run(max_instructions=150_000)
        result_ref = ref.run(max_instructions=150_000)
        assert fast.tier_stats()["traces"]["compile_failures"] == 0
        assert result_fast.instructions == result_ref.instructions
        assert result_fast.to_dict() == result_ref.to_dict()
