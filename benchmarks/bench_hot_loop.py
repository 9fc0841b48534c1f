"""Micro-benchmark: the block + trace fast path must actually be fast.

Runs a branchy-but-hot kernel (a long straight-line inner loop, a call
per outer iteration — the shape the block cache and the superblock
trace tier are built for) under all three cycle-simulated modes, with
the full fast path (``fastpath=True`` with the trace tier compiling
hot superblocks), with the block tier alone (``tracepath=False``) and
with the reference execute loop, and asserts three things:

1. **Equivalence** — all three paths return *identical* ``SimResult``
   serializations (every cycle, every counter).  Speed that changes the
   numbers is not an optimization.
2. **Speedup** — the full fast path is at least :data:`MIN_SPEEDUP`
   times faster than the reference loop in every mode.
3. **Block-tier speedup** — the block tier alone is at least
   :data:`MIN_BLOCKS_SPEEDUP` times faster than the reference loop, so
   a regression in the block handlers cannot hide under the traces.

A second leg runs the gcc workload, whose hot code is short-trip loops
and branchy paths, with traces on and with the block tier alone
(results asserted identical), and asserts the trace tier costs it at
most a little: blocks-only seconds / traces-on seconds must stay at or
above :data:`MIN_BRANCHY_VS_BLOCKS` in every mode.  On the hot kernel
every trace loops, so only code like this shows a trace tier that
compiles more than it retires.

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_hot_loop.py

or through pytest: ``pytest benchmarks/bench_hot_loop.py -q``.  Timing
uses min-of-N interleaved repetitions, which is robust to transient
host noise.
"""

import time

from repro.arch.config import default_config
from repro.arch.cpu import CycleCPU
from repro.ilr import RandomizerConfig, make_flow, randomize
from repro.tools.benchgate import record
from repro.workloads import build_image
from repro.workloads.builder import ProgramBuilder

MAX_INSTRUCTIONS = 120_000
REPETITIONS = 3
MIN_SPEEDUP = 3.0
MIN_BLOCKS_SPEEDUP = 1.8
MIN_BRANCHY_VS_BLOCKS = 0.8
MODES = ("baseline", "naive_ilr", "vcfr")

_INNER_ITERS = 40
_OUTER_ITERS = 100_000  # never reached; MAX_INSTRUCTIONS bounds the run


def build_hot_loop_image():
    """A kernel dominated by one long, hot basic block.

    The inner loop is ten straight-line instructions ending in a single
    conditional branch; the outer loop adds a call/return pair so the
    block cache sees calls, returns, and a taken back-edge — the common
    control shapes — while still spending ~80% of retirement inside one
    block.
    """
    b = ProgramBuilder("hotloop")
    b.label("main")
    b.emits("movi esi, buf", "movi ecx, 0", "movi eax, 1")
    b.label("outer")
    b.emit("movi edi, 0")
    b.label("inner")
    b.emits(
        "mov edx, [esi+0]",
        "add eax, edx",
        "movi ebx, 40503",
        "imul eax, ebx",
        "xor eax, ecx",
        "and eax, 268435455",
        "mov [esi+4], eax",
        "add edi, 1",
        "cmp edi, %d" % _INNER_ITERS,
        "jl inner",
    )
    b.emits(
        "call helper",
        "add ecx, 1",
        "cmp ecx, %d" % _OUTER_ITERS,
        "jl outer",
    )
    b.emit_word("eax")
    b.exit(0)
    b.func("helper")
    b.emits("add eax, 7", "shr eax, 1")
    b.endfunc()
    b.data_label("buf")
    b.data(".space 4096")
    return b.image()


def _build_program():
    return randomize(build_hot_loop_image(), RandomizerConfig(seed=42))


def _image_for(mode, program):
    return {
        "baseline": program.original,
        "naive_ilr": program.naive_image,
        "vcfr": program.vcfr_image,
    }[mode]


#: leg -> (fastpath, tracepath), in run order within each repetition
LEGS = {"fast": (True, True), "ref": (False, False), "blocks": (True, False)}
BRANCHY_LEGS = {"fast": LEGS["fast"], "blocks": LEGS["blocks"]}


def _run_once(program, mode, fastpath, tracepath=True):
    """One fresh simulation; returns (host_seconds, result_dict)."""
    config = default_config()
    config.fastpath = fastpath
    config.tracepath = tracepath
    cpu = CycleCPU(_image_for(mode, program), make_flow(mode, program),
                   config)
    start = time.perf_counter()
    result = cpu.run(max_instructions=MAX_INSTRUCTIONS)
    return time.perf_counter() - start, result.to_dict()


def measure_mode(program, mode, legs=LEGS, base="ref"):
    """Best host seconds per leg of ``legs`` after asserting every leg
    produced the ``base`` leg's results."""
    # Warm every leg once (allocator, bytecode caches) before timing.
    warm = {leg: _run_once(program, mode, *flags)[1]
            for leg, flags in legs.items()}
    for leg in legs:
        assert warm[leg] == warm[base], (
            "%s: %s path diverged from the %s path" % (mode, leg, base)
        )
    times = {leg: [] for leg in legs}
    for _ in range(REPETITIONS):  # interleave to share host noise
        for leg, flags in legs.items():
            times[leg].append(_run_once(program, mode, *flags)[0])
    return {leg: min(seconds) for leg, seconds in times.items()}


def test_fast_path_speedup_and_equivalence():
    program = _build_program()
    failures = []
    for mode in MODES:
        best = measure_mode(program, mode)
        speedup = best["ref"] / best["fast"]
        blocks_speedup = best["ref"] / best["blocks"]
        print(
            "\nhot loop [%s]: ref %.4fs, blocks %.4fs -> %.2fx, "
            "fast %.4fs -> %.2fx"
            % (mode, best["ref"], best["blocks"], blocks_speedup,
               best["fast"], speedup)
        )
        if not record("hot_loop", "%s_speedup" % mode,
                      round(speedup, 2), MIN_SPEEDUP):
            failures.append((mode + " fast", speedup))
        if not record("hot_loop", "%s_blocks_speedup" % mode,
                      round(blocks_speedup, 2), MIN_BLOCKS_SPEEDUP):
            failures.append((mode + " blocks", blocks_speedup))
    assert not failures, (
        "below the %.1fx (fast) / %.1fx (blocks) floors: %s"
        % (MIN_SPEEDUP, MIN_BLOCKS_SPEEDUP,
           ", ".join("%s %.2fx" % pair for pair in failures))
    )


def test_branchy_traces_keep_pace_with_blocks():
    program = randomize(build_image("gcc", scale=1.0),
                        RandomizerConfig(seed=42))
    failures = []
    for mode in MODES:
        best = measure_mode(program, mode, BRANCHY_LEGS, base="blocks")
        ratio = best["blocks"] / best["fast"]
        print("\nbranchy gcc [%s]: blocks %.4fs, fast %.4fs -> %.2fx"
              % (mode, best["blocks"], best["fast"], ratio))
        if not record("hot_loop", "%s_branchy_vs_blocks" % mode,
                      round(ratio, 2), MIN_BRANCHY_VS_BLOCKS):
            failures.append((mode, ratio))
    assert not failures, (
        "traces-on gcc below %.1fx of blocks alone: %s"
        % (MIN_BRANCHY_VS_BLOCKS,
           ", ".join("%s %.2fx" % pair for pair in failures))
    )


if __name__ == "__main__":
    # Run both legs before failing, so BENCH_hot_loop.json holds every
    # gate's value.
    errors = []
    for leg in (test_fast_path_speedup_and_equivalence,
                test_branchy_traces_keep_pace_with_blocks):
        try:
            leg()
        except AssertionError as exc:
            errors.append(str(exc))
    if errors:
        raise SystemExit("FAILED: " + "; ".join(errors))
    print("OK: fast path >= %.1fx and blocks alone >= %.1fx in every "
          "mode, traced gcc >= %.1fx of blocks alone, results identical"
          % (MIN_SPEEDUP, MIN_BLOCKS_SPEEDUP, MIN_BRANCHY_VS_BLOCKS))
